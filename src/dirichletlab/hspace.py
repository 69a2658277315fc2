"""Truncated Dirichlet polynomials and the weighted Hilbert-space geometry.

Everything here is finite-dimensional on purpose: a polynomial carries its
truncation level N, norms and inner products are exact finite sums, and the
reproducing identity <F, k_xi> = F(xi) holds algebraically on shared support
(no tail enters).
"""

from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass

from .accum import exact_sum
from .errors import MembershipError, RangeError


@dataclass(frozen=True)
class DirichletPolynomial:
    """Coefficients a_0..a_N of sum a_n n^(-s); index 0 is unused and zero."""

    coeffs: np.ndarray  # complex128, length N + 1

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise RangeError(f"coefficients must be a 1-d array a_0..a_N, got shape {arr.shape}")
        if arr[0] != 0:
            raise RangeError("index 0 is not a Dirichlet index; coeffs[0] must be 0")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise RangeError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def limit(self) -> int:
        """The truncation level N."""
        return self.coeffs.size - 1


def poly_from_coeffs(coeffs) -> DirichletPolynomial:
    """Build from a_1..a_N (index 0 NOT included)."""
    return DirichletPolynomial(
        np.concatenate([[0.0 + 0.0j], np.asarray(coeffs, dtype=np.complex128)]))


def derivative(F: DirichletPolynomial) -> DirichletPolynomial:
    # d/ds sum a_n n^(-s) = -sum a_n log(n) n^(-s); the n=1 term drops.
    logn = np.arange(F.limit + 1, dtype=np.float64)
    logn[0] = 1.0
    np.log(logn, out=logn)
    arr = np.negative(F.coeffs)
    arr *= logn
    arr[0] = 0.0
    return DirichletPolynomial(arr)


def _sum_complex(terms: np.ndarray) -> complex:
    """math.fsum of the real parts and of the imaginary parts, bit for bit."""
    return complex(exact_sum((terms.real,)), exact_sum((terms.imag,)))


def evaluate(F: DirichletPolynomial, s: complex) -> complex:
    """Compensated evaluation of F(s) = sum a_n exp(-s log n)."""
    idx = np.flatnonzero(F.coeffs)
    if idx.size == 0:
        return 0.0 + 0.0j
    terms = F.coeffs[idx] * np.exp(-complex(s) * np.log(idx.astype(np.float64)))
    return _sum_complex(terms)


# the support is walked this many coefficients at a time
_CHUNK = 1 << 14


def _walk(F: DirichletPolynomial, w):
    """(a_n, w_n) over the support of F, in order, as one pair of arrays per
    _CHUNK coefficients; each chunk's membership is checked before it is
    yielded, so MembershipError names the first excluded index."""
    if F.limit > w.limit:
        raise RangeError(f"polynomial truncation {F.limit} exceeds weight truncation {w.limit}")
    for lo in range(0, F.limit + 1, _CHUNK):
        idx = np.flatnonzero(F.coeffs[lo : lo + _CHUNK]) + lo
        w_idx = w.w[idx]
        zero = np.flatnonzero(w_idx == 0.0)
        if zero.size:
            bad = idx[zero[0]]
            raise MembershipError(
                f"coefficient a_{bad} != 0 but w_{bad} = 0: direction excluded from the space"
            )
        yield F.coeffs[idx], w_idx


def hw_norm(F: DirichletPolynomial, w) -> float:
    """sqrt(sum |a_n|^2 / w_n) over the support of F.

    The support is walked in chunks of _CHUNK coefficients, so the
    temporaries stay bounded, and the terms of every chunk go into one
    accum.exact_sum, which has math.fsum's bits over the whole support.
    """
    return math.sqrt(exact_sum((a.real**2 + a.imag**2) / w_a for a, w_a in _walk(F, w)))


def hw_inner(F: DirichletPolynomial, G: DirichletPolynomial, w) -> complex:
    """<F, G>_w = sum a_n conj(b_n) / w_n over shared support.

    F and then G are walked as hw_norm walks them, which refuses a
    polynomial past w's truncation or off its support.
    """
    for P in (F, G):
        for _ in _walk(P, w):
            pass
    n = min(F.limit, G.limit) + 1
    idx = np.flatnonzero((F.coeffs[:n] != 0) & (G.coeffs[:n] != 0))
    if idx.size == 0:
        return 0.0 + 0.0j
    terms = F.coeffs[idx] * np.conj(G.coeffs[idx]) / w.w[idx]
    return _sum_complex(terms)


def hw_kernel(w, xi: complex) -> DirichletPolynomial:
    """Reproducing kernel at xi, truncated with w: coefficients w_n n^(-conj(xi)).

    For constant weights this is the translate of the truncated zeta series,
    k(s) = sum n^(-s-conj(xi)).
    """
    n = np.arange(w.limit + 1, dtype=np.float64)
    n[0] = 1.0
    arr = w.w * np.exp(-np.conj(complex(xi)) * np.log(n))
    arr = arr.astype(np.complex128)
    arr[0] = 0.0
    return DirichletPolynomial(arr)
