"""Compensated summation helpers and the Dirichlet-sum engine.

Scalar reductions go through math.fsum (exactly rounded).  Prefix sums use a
chunked cumulative sum whose chunk offsets are themselves exactly rounded, so
the worst-case relative error of any prefix is ~chunk_len*eps of the local
chunk plus one rounding of the offset; with the default chunk of 4096 that
stays below 1e-12 even for 1e7-term sums.

dirichlet_sums evaluates sum a_n n^(-s) at many real s from per-block
moments (the Taylor-block idea of Odlyzko-Schonhage, Trans. AMS 309, 1988):
the weights are read once, and each further s costs O(blocks), not O(N).
"""
from __future__ import annotations

import math

import numpy as np

_CHUNK = 4096

# Dirichlet-sum engine: terms n <= _HEAD are summed directly; the rest is cut
# into blocks of relative width ~_WIDTH, each expanded to _MOMENTS Taylor
# terms.  With |x| <= 1/64 the truncation stays near 1e-16 of a block's own
# sum up to s = 3.3, the top of the CLI's profile grid (sigma0 + 1.5 with
# sigma0 <= 1.73), and below 1e-15 up to s = 5; at larger s the head dominates.
_HEAD = 4096
_WIDTH = 1.0 / 32.0
_MOMENTS = 10


def fsum(values) -> float:
    """Exactly rounded sum of an iterable of floats."""
    return math.fsum(values)


def fsum_complex(values) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


def compensated_sum(a) -> float:
    """Sum of a float array: exactly rounded chunk totals, fsum-combined.

    Matches fsum to ~1e-14 relative on positive 1e7-term arrays while staying
    vectorized (fsum alone walks the array in Python).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size == 0:
        return 0.0
    return math.fsum(float(np.sum(a[i : i + _CHUNK])) for i in range(0, a.size, _CHUNK))


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum of a 1-D float array with ≤1e-12 relative error.

    Chunks of the input are cumsummed in float64; the running offset added to
    each chunk is the exactly rounded sum of all previous chunk totals.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    offset_terms: list[float] = []
    for start in range(0, a.size, _CHUNK):
        stop = min(start + _CHUNK, a.size)
        local = np.cumsum(a[start:stop])
        out[start:stop] = local + math.fsum(offset_terms)
        # exact chunk total, so offsets do not inherit cumsum drift
        offset_terms.append(math.fsum(a[start:stop].tolist()))
    return out


def dirichlet_sums(a, s_values) -> tuple:
    """Sums sum_{n=1}^{N} a[n] n^(-s) for every real s, N = len(a) - 1 (a[0] unused).

    Returns (values, remainders), two float arrays aligned with s_values.
    Terms n <= 4096 are summed directly.  Above that, each block (lo, hi]
    with centre c and x = n/c - 1 contributes c^(-s) sum_m binom(-s, m) M_m
    from its moments M_m = sum a_n x^m, m < 10, computed once for all s.
    The remainder is the Lagrange bound on the dropped Taylor terms,
    |binom(-s, 10)| sum_k c_k^(-s) x_k^10 max_(|xi| <= x_k) (1 + xi)^(-s-10)
    sum_(block k) |a_n|, with x_k the block's largest |x|; it bounds the
    truncation exactly, while floating-point rounding adds a few ulps of
    sum |a_n| n^(-s) on top.  Non-finite weights propagate to the values.
    """
    a = np.asarray(a, dtype=np.float64)
    s = np.asarray(s_values, dtype=np.float64).ravel()
    N = a.size - 1
    head = np.arange(1, min(N, _HEAD) + 1, dtype=np.float64)
    head_terms = a[1 : head.size + 1] * np.exp(-np.outer(s, np.log(head)))
    values = head_terms.sum(axis=1)
    remainders = np.zeros_like(s)
    if N <= _HEAD:
        return values, remainders

    edges = [_HEAD]  # block k holds the integers (edges[k], edges[k + 1]]
    while edges[-1] < N:
        edges.append(min(N, max(edges[-1] + 1, int(edges[-1] * (1.0 + _WIDTH)))))
    K = len(edges) - 1
    centre = np.empty(K)
    xmax = np.empty(K)
    mass = np.empty(K)
    mom = np.empty((K, _MOMENTS))
    # inf weights (the spiked demo family) meet x <= 0 in the moments and
    # x = 0 in the remainder; the resulting nans are replaced or propagate
    with np.errstate(invalid="ignore"):
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            half = 0.5 * (hi - lo - 1)
            centre[k] = lo + 1 + half
            xmax[k] = half / centre[k]
            x = (np.arange(hi - lo) - half) / centre[k]
            p = a[lo + 1 : hi + 1].copy()
            mass[k] = np.abs(p).sum()
            for m in range(_MOMENTS):
                mom[k, m] = p.sum()
                if m + 1 < _MOMENTS:
                    p *= x
        # a block holding an infinite weight sums to it, as the direct sum does
        mom[~np.isfinite(mom[:, 0]), 1:] = 0.0

        binom = np.empty((s.size, _MOMENTS + 1))  # binom(-s, m), m = 0.._MOMENTS
        binom[:, 0] = 1.0
        for m in range(_MOMENTS):
            binom[:, m + 1] = binom[:, m] * (-s - m) / (m + 1)
        scale = np.exp(-np.outer(s, np.log(centre)))  # c_k^(-s)
        blocks = scale * (binom[:, :_MOMENTS] @ mom.T)
        values = np.array([math.fsum([h, *row]) for h, row in zip(values, blocks)])

        e = -(s[:, None] + _MOMENTS)
        lagrange = np.maximum(np.exp(e * np.log1p(-xmax)), np.exp(e * np.log1p(xmax)))
        per_block = scale * lagrange * (mass * xmax**_MOMENTS)
        remainders = np.abs(binom[:, _MOMENTS]) * per_block.sum(axis=1)
    return values, remainders
