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
    """Coefficients a_1..a_N of sum a_n n^(-s); index 0 is unused and zero."""

    limit: int
    coeffs: np.ndarray  # complex128, length limit + 1

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.limit + 1,):
            raise RangeError(
                f"coefficient array must have length N+1={self.limit + 1}, got {arr.shape}"
            )
        if arr[0] != 0:
            raise RangeError("index 0 is not a Dirichlet index; coeffs[0] must be 0")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise RangeError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.coeffs)


def poly_from_coeffs(coeffs) -> DirichletPolynomial:
    """Build from a_1..a_N (index 0 NOT included)."""
    arr = np.concatenate([[0.0 + 0.0j], np.asarray(coeffs, dtype=np.complex128)])
    return DirichletPolynomial(limit=len(arr) - 1, coeffs=arr)


def derivative(F: DirichletPolynomial) -> DirichletPolynomial:
    # d/ds sum a_n n^(-s) = -sum a_n log(n) n^(-s); the n=1 term drops.
    logn = np.arange(F.limit + 1, dtype=np.float64)
    logn[0] = 1.0
    np.log(logn, out=logn)
    arr = np.negative(F.coeffs)
    arr *= logn
    arr[0] = 0.0
    return DirichletPolynomial(limit=F.limit, coeffs=arr)


def _sum_complex(terms: np.ndarray) -> complex:
    """math.fsum of the real parts and of the imaginary parts, bit for bit."""
    return complex(exact_sum((terms.real,)), exact_sum((terms.imag,)))


def evaluate(F: DirichletPolynomial, s: complex) -> complex:
    """Compensated evaluation of F(s) = sum a_n exp(-s log n)."""
    idx = F.support()
    if idx.size == 0:
        return 0.0 + 0.0j
    terms = F.coeffs[idx] * np.exp(-complex(s) * np.log(idx.astype(np.float64)))
    return _sum_complex(terms)


# hw_norm walks the support this many coefficients at a time
_CHUNK = 1 << 14


def _check_limit(F: DirichletPolynomial, w) -> None:
    if F.limit > w.limit:
        raise RangeError(
            f"polynomial truncation {F.limit} exceeds weight truncation {w.limit}"
        )


def _refuse_excluded(idx: np.ndarray, w_idx: np.ndarray) -> None:
    """MembershipError at the first support index idx[i] with w_idx[i] == 0."""
    zero = np.flatnonzero(w_idx == 0.0)
    if zero.size:
        bad = idx[zero[0]]
        raise MembershipError(
            f"coefficient a_{bad} != 0 but w_{bad} = 0: direction excluded from the space"
        )


def _check_membership(F: DirichletPolynomial, w) -> np.ndarray:
    _check_limit(F, w)
    idx = F.support()
    _refuse_excluded(idx, w.w[idx])
    return idx


def _norm_chunks(F: DirichletPolynomial, w):
    """|a_n|^2 / w_n over the support, in order, as one array per _CHUNK
    coefficients, each chunk's membership checked before it is formed."""
    for lo in range(0, F.limit + 1, _CHUNK):
        idx = np.flatnonzero(F.coeffs[lo : lo + _CHUNK]) + lo
        w_idx = w.w[idx]
        _refuse_excluded(idx, w_idx)
        a = F.coeffs[idx]
        yield (a.real**2 + a.imag**2) / w_idx


def hw_norm(F: DirichletPolynomial, w) -> float:
    """sqrt(sum |a_n|^2 / w_n) over the support of F.

    The support is walked in chunks of _CHUNK coefficients, so the
    temporaries stay bounded, and the terms of every chunk go into one
    accum.exact_sum, which has math.fsum's bits over the whole support.
    """
    _check_limit(F, w)
    return math.sqrt(exact_sum(_norm_chunks(F, w)))


def hw_inner(F: DirichletPolynomial, G: DirichletPolynomial, w) -> complex:
    """<F, G>_w = sum a_n conj(b_n) / w_n over shared support."""
    fi = _check_membership(F, w)
    _check_membership(G, w)
    n = min(F.limit, G.limit)
    idx = fi[fi <= n]
    idx = idx[G.coeffs[idx] != 0]
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
    return DirichletPolynomial(limit=w.limit, coeffs=arr)
