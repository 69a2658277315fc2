"""Compensated summation helpers and the Dirichlet-sum engine.

Scalar reductions go through math.fsum (exactly rounded).  Prefix sums use a
chunked cumulative sum whose chunk offsets are themselves exactly rounded, so
the worst-case relative error of any prefix is ~chunk_len*eps of the local
chunk plus one rounding of the offset; with the chunk of 4096 that stays
below 1e-12 even for 1e7-term sums.  The exactly rounded chunk totals come
from a vectorised TwoSum tree whose result is accepted only under a proven
error bound (Ogita-Rump-Oishi, SIAM J. Sci. Comput. 26, 2005), with a
math.fsum fallback per chunk, and the offsets from one running exact sum,
so a prefix-sum pass costs O(N) array work plus O(N / 4096) Python steps.

The Dirichlet-sum engine evaluates sum a_n n^(-s) at many s from per-block
Taylor moments (the Taylor-block idea of Odlyzko-Schonhage, Trans. AMS 309,
1988) in two steps: block_moments reads the coefficients once, and
moment_sums evaluates the moments at real s or on a sigma x t tensor grid of
complex s = sigma + it, each further s costing O(blocks), not O(N).  Every
value carries a proven Taylor remainder.  The block width follows from the
largest |s| the moments must serve (see _block_width), so the remainder stays
near 1e-15 of sum |a_n| n^(-sigma) as the t-window widens.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_CHUNK = 4096
_ROWS = 32  # chunks per batch of the TwoSum tree: ~0.5 MB per level-1 buffer

# Dirichlet-sum engine: terms n <= _HEAD are summed directly; the rest is cut
# into blocks of relative width ~_WIDTH, each expanded to _MOMENTS Taylor
# terms.  With |x| <= 1/64 the truncation stays near 1e-16 of a block's own
# sum up to s = 3.3, the top of the CLI's profile grid (sigma0 + 1.5 with
# sigma0 <= 1.73), and below 1e-15 up to |s| = 5; past that the blocks narrow.
_HEAD = 4096
_WIDTH = 1.0 / 32.0
_MOMENTS = 10


def fsum_complex(values) -> complex:
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


def compensated_sum(a) -> float:
    """Sum of a float array: exactly rounded chunk totals, fsum-combined.

    Matches fsum to ~1e-14 relative on positive 1e7-term arrays while staying
    vectorized (fsum alone walks the array in Python).  A single chunk is its
    own total; + 0.0 gives fsum's +0.0 for a zero sum.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size <= _CHUNK:
        return float(np.sum(a)) + 0.0
    return math.fsum(float(np.sum(a[i : i + _CHUNK])) for i in range(0, a.size, _CHUNK))


def _two_sum(a, b):
    """(s, t) with s = fl(a + b) and s + t = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _certified_totals(rows: np.ndarray) -> tuple:
    """Exactly rounded sums of the rows of a (K, 4096) array, where provable.

    Returns (totals, ok); totals[k] equals math.fsum(rows[k]) wherever ok[k].
    A 12-level pairwise TwoSum tree leaves each row sum as s + E exactly, E
    the sum of the tree's rounding errors, and forms e ~ E in floating point
    with |e - E| < 289 u^2 sum|x| (u = 2^-53; 12 levels of errors, each at
    most u of that level's sum|s|, summed at depth <= 24).  T = fl(s + e) is
    then the exactly rounded sum when s + e - T, widened by 2^-96 sum|x| =
    1024 u^2 sum|x|, lies strictly inside T's rounding cell, whose halves
    differ at powers of two.  Rows that are not finite, come near overflow
    or underflow, or sit too close to a rounding tie are left to the caller.
    """
    K = rows.shape[0]
    total = np.empty(K)
    resid = np.empty(K)
    absum = np.empty(K)
    half = _CHUNK // 2
    s, e, bb = (np.empty((_ROWS, half)) for _ in range(3))
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, K, _ROWS):
            x = rows[lo : lo + _ROWS]
            n = x.shape[0]
            a, b, sk, ek, bk = x[:, :half], x[:, half:], s[:n], e[:n], bb[:n]
            # the first level in preallocated buffers: it is half the work
            np.add(a, b, out=sk)
            np.subtract(sk, a, out=bk)
            np.subtract(sk, bk, out=ek)
            np.subtract(a, ek, out=ek)
            np.subtract(b, bk, out=bk)
            ek += bk
            absum[lo : lo + n] = np.abs(a, out=bk).sum(axis=1) + np.abs(b, out=bk).sum(axis=1)
            width = half
            while width > 1:
                width //= 2
                sk, t = _two_sum(sk[:, :width], sk[:, width:])
                ek = ek[:, :width] + ek[:, width:]
                ek += t
            total[lo : lo + n], resid[lo : lo + n] = _two_sum(sk[:, 0], ek[:, 0])
        bound = absum * 2.0**-96
        up = np.nextafter(total, np.inf) - total
        down = total - np.nextafter(total, -np.inf)
        ok = (absum >= 2.0**-900) & (absum < 2.0**1020)
        ok &= (resid + bound < 0.5 * up) & (resid - bound > -0.5 * down)
    # an all-zero row totals +-0, which adds nothing to the offsets
    return total, ok | (absum == 0.0)


class _RunningFsum:
    """math.fsum over a growing list of terms, O(1) amortised per term.

    add() runs fsum's own partials update, so value() equals math.fsum of
    every term added so far, with the same nan, inf and OverflowError
    outcomes, while the list of terms itself is never re-read.
    """

    def __init__(self):
        self.partials: list = []
        self.special = 0.0  # sum of the nan and inf terms, as fsum keeps it
        self.inf = 0.0  # sum of the inf terms: nan means both signs were seen

    def add(self, x: float):
        p, i, x0 = self.partials, 0, x
        for y in p:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo != 0.0:
                p[i] = lo
                i += 1
            x = hi
        del p[i:]
        if x == 0.0:
            return
        if math.isfinite(x):
            p.append(x)
            return
        if math.isfinite(x0):
            raise OverflowError("intermediate overflow in fsum")
        if math.isinf(x0):
            self.inf += x0
        self.special += x0
        p.clear()

    def value(self) -> float:
        if self.special != 0.0:
            if math.isnan(self.inf):
                raise ValueError("-inf + inf in fsum")
            return self.special
        return math.fsum(self.partials)


def compensated_cumsum(a: np.ndarray) -> np.ndarray:
    """Cumulative sum of a 1-D float array with ≤1e-12 relative error.

    Each 4096-term chunk is cumsummed in float64, and the offset added to it
    is the exactly rounded sum of the exactly rounded totals of all previous
    chunks.  The totals come from _certified_totals, and from
    math.fsum(chunk) wherever its certificate fails; the offsets from one
    running exact sum of them, O(number of chunks) in all.  The full chunks
    are cumsummed in place in the output as one (K, 4096) array.  Results are
    bit for bit those of cumsumming chunk by chunk and calling math.fsum on
    each chunk and on the list of earlier totals, non-finite input included.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    K, tail = divmod(a.size, _CHUNK)
    head = K * _CHUNK
    rows = a[:head].reshape(K, _CHUNK)
    totals, ok = _certified_totals(rows)
    offsets = np.empty(K + (tail > 0))
    running = _RunningFsum()
    for k in range(offsets.size):
        offsets[k] = running.value()
        if k < K and ok[k]:
            total = float(totals[k])
        else:  # raises where fsum does
            total = math.fsum((rows[k] if k < K else a[head:]).tolist())
        if k + 1 < offsets.size:  # no offset needs the last total
            running.add(total)
    out_rows = out[:head].reshape(K, _CHUNK)
    np.cumsum(rows, axis=1, out=out_rows)
    out_rows += offsets[:K, None]
    if tail:
        np.cumsum(a[head:], out=out[head:])
        out[head:] += offsets[K]
    return out


class BlockMoments(NamedTuple):
    """Per-block Taylor moments of sum a_n n^(-s), built once by block_moments."""

    head: np.ndarray  # a_1..a_H, H = min(N, 4096), summed directly
    centre: np.ndarray  # block centres c_k
    xmax: np.ndarray  # largest |n/c_k - 1| over block k
    mass: np.ndarray  # sum of |a_n| over block k
    mom: np.ndarray  # mom[k, m] = sum over block k of a_n (n/c_k - 1)^m


def _block_width(s_max: float) -> float:
    # |binom(-s, M)| <= prod_(j<M) (|s| + j) / M!; past |s| = 5 the width
    # shrinks so that this factor times (width/2)^M keeps its |s| = 5 value
    if not 5.0 < s_max < math.inf:  # no finite width serves s_max = inf or nan
        return _WIDTH
    ratio = math.prod((5.0 + j) / (s_max + j) for j in range(_MOMENTS))
    return _WIDTH * ratio ** (1.0 / _MOMENTS)


def block_moments(a, s_max: float) -> BlockMoments:
    """Moments of a[1..N] (a[0] unused) for evaluation at any |s| <= s_max.

    Terms n <= 4096 are kept for direct summation.  Above that the integers
    are cut into blocks (lo, hi] of relative width 1/32, narrowed past
    |s| = 5 by _block_width; block k with centre c and x = n/c - 1 stores
    M_m = sum a_n x^m for m < 10.  a may be real or complex.  A block holds
    at least one integer, so as |s| grows past ~1000 the blocks shrink toward
    single terms and the engine loses its edge over a direct sum.
    """
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    N = a.size - 1
    width = _block_width(float(s_max))
    edges = [_HEAD]  # block k holds the integers (edges[k], edges[k + 1]]
    while edges[-1] < N:
        edges.append(min(N, max(edges[-1] + 1, int(edges[-1] * (1.0 + width)))))
    K = len(edges) - 1
    centre = np.empty(K)
    xmax = np.empty(K)
    mass = np.empty(K)
    mom = np.empty((K, _MOMENTS), dtype=a.dtype)
    # inf weights (the spiked demo family) meet x <= 0 in the moments; the
    # resulting nans are replaced below
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
    return BlockMoments(a[1 : min(N, _HEAD) + 1], centre, xmax, mass, mom)


def moment_sums(bm: BlockMoments, sigmas, ts=None) -> tuple:
    """sum a_n n^(-s) from block moments, with the Lagrange bound of each value.

    ts=None: s runs over the real sigmas; returns two float arrays aligned
    with them.  Each value is the head's sum plus an exactly rounded fsum
    over the block terms c_k^(-s) sum_m binom(-s, m) M_m.
    ts given: s = sigma + it on the sigma x t tensor grid; returns complex
    values and float remainders of shape (len(sigmas), len(ts)).  The head
    is (a_n n^(-sigma)) @ e^(-it log n) over the nonzero a_n, the block terms
    come from sum_m binom(-s, m) sum_k c_k^(-sigma) e^(-it log c_k) M_km,
    and the reductions run in a fixed order, so values are bit-reproducible.
    The remainder bounds the dropped Taylor terms for real and complex s alike,
    |binom(-s, 10)| sum_k c_k^(-sigma) x_k^10 max_(|xi| <= x_k) (1 + xi)^(-sigma-10)
    sum_(block k) |a_n|, with x_k the block's largest |x|; floating-point
    rounding adds a few ulps of sum |a_n| n^(-sigma) on top.  Non-finite
    weights propagate to the values.
    """
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    logc = np.log(bm.centre)
    real_scale = np.exp(-np.outer(sig, logc))  # c_k^(-sigma)
    if ts is None:
        s = sig
        n = np.arange(1, bm.head.size + 1, dtype=np.float64)
        head = (bm.head * np.exp(-np.outer(sig, np.log(n)))).sum(axis=1)
    else:
        t = np.asarray(ts, dtype=np.float64).ravel()
        s = sig[:, None] + 1j * t[None, :]
        nz = np.flatnonzero(bm.head)
        logn = np.log(nz + 1.0)
        amp = bm.head[nz] * np.exp(-np.outer(sig, logn))
        head = amp @ np.exp(-1j * np.outer(logn, t))
    binom = np.empty(s.shape + (_MOMENTS + 1,), dtype=s.dtype)  # binom(-s, m)
    binom[..., 0] = 1.0
    for m in range(_MOMENTS):
        binom[..., m + 1] = binom[..., m] * (-s - m) / (m + 1)
    with np.errstate(invalid="ignore"):  # inf weights: see block_moments
        e = -(sig[:, None] + _MOMENTS)
        lagrange = np.maximum(np.exp(e * np.log1p(-bm.xmax)), np.exp(e * np.log1p(bm.xmax)))
        per_block = real_scale * lagrange * (bm.mass * bm.xmax**_MOMENTS)
        if ts is None:
            blocks = real_scale * (binom[:, :_MOMENTS] @ bm.mom.T)
            values = np.array([math.fsum([h, *row]) for h, row in zip(head, blocks)])
            remainders = np.abs(binom[:, _MOMENTS]) * per_block.sum(axis=1)
        else:
            # q[i, m, j] = sum_k c_k^(-sigma_i) e^(-i t_j log c_k) M_km
            q = (real_scale[:, None, :] * bm.mom.T) @ np.exp(-1j * np.outer(logc, t))
            values = head + np.einsum("ijm,imj->ij", binom[..., :_MOMENTS], q)
            remainders = np.abs(binom[..., _MOMENTS]) * per_block.sum(axis=1)[:, None]
    return values, remainders


def dirichlet_sums(a, s_values) -> tuple:
    """Sums sum_{n=1}^{N} a[n] n^(-s) for every real s, N = len(a) - 1 (a[0] unused).

    Returns (values, remainders), two float arrays aligned with s_values:
    moment_sums over the block_moments of a, sized for the largest |s|.
    """
    s = np.asarray(s_values, dtype=np.float64).ravel()
    return moment_sums(block_moments(a, float(np.max(np.abs(s), initial=0.0))), s)
