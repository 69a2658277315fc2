"""Zeta-type evaluations on the right half plane, the upper incomplete gamma
function, reproducing-kernel formulas and critical abscissas.

The zeta function has one evaluation route, Euler-Maclaurin summation, on
the whole supported region; tests check it against mpmath.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .accum import compensated_sum
from .errors import DomainError

# Bernoulli numbers B_2..B_30 (exact rationals, rounded once).
_B2J = [
    float(Fraction(n, d))
    for n, d in [
        (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
        (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
        (-236364091, 2730), (8553103, 6), (-23749461029, 870),
        (8615841276005, 14322),
    ]
]

_T_MAX = 1e5


def zeta(s: complex) -> complex:
    """Riemann zeta on Re s > 0, s != 1, by Euler-Maclaurin summation.

    The first M - 1 terms, M = max(25, 1.6|t| + 10), are summed directly; the
    tail is the integral M^(1-s)/(s-1), the half term M^(-s)/2 and 14
    Bernoulli corrections.  Stated accuracy 1e-10 max(1, |zeta(s)|) for
    Re s >= 1/2 and |t| <= 100: absolute where |zeta| <= 1, relative near the
    pole, where double rounding of a value ~ 1/|s-1| alone exceeds any
    absolute bound.  The route stays usable well beyond that strip but
    carries no promise there.  Points so near s = 1 that 1/|s-1| overflows
    count as the pole.
    """
    s = complex(s)
    if abs(s - 1.0) * sys.float_info.max < 1.0:
        raise DomainError(f"pole at s=1: |s-1| = {abs(s - 1.0):.3g} puts |zeta| past the double range")
    if s.real <= 0.0:
        raise DomainError(f"Re s = {s.real:.3g} <= 0 unsupported (no functional-equation branch)")
    if abs(s.imag) > _T_MAX:
        raise DomainError(f"|t| = {abs(s.imag):.3g} beyond supported strip")
    M = max(25, int(1.6 * abs(s.imag)) + 10)
    n = np.arange(1, M, dtype=np.float64)
    with np.errstate(over="ignore"):  # Re s past ~5e307: -s log n is -inf, its power 0
        powers = np.exp(-s * np.log(n))
    head = complex(compensated_sum(powers.real), compensated_sum(powers.imag))
    out = head + M ** (1.0 - s) / (s - 1.0) + 0.5 * M ** (-s)
    # correction j is B_2j/(2j)! s(s+1)...(s+2j-2) M^(1-s-2j); one running
    # product, one factor at a time, so it stays 0 (not inf * 0) once
    # M^(-s-1) underflows at large Re s
    term = s * M ** (-s - 1.0)
    fact = 2.0
    for j in range(1, 15):
        out += _B2J[j - 1] / fact * term
        term *= (s + 2 * j - 1) / M
        term *= (s + 2 * j) / M
        fact *= (2 * j + 1) * (2 * j + 2)
    return out


_TINY = 1e-300  # stands in for a zero denominator in the Lentz recurrence
_EPS = 2.0**-52


def _gamma_cf(a: float, x: float) -> float:
    """Gamma(a, x) from Legendre's continued fraction, modified Lentz.

    Gamma(a, x) = e^-x x^a / (b_0 + a_1/(b_1 + a_2/(b_2 + ...))) with
    b_i = x + 2i + 1 - a and a_i = -i (i - a); it converges for every real a,
    quickly once x >= max(1, a).
    """
    f = x + 1.0 - a
    if f == 0.0:
        f = _TINY
    c, d = f, 0.0
    for i in range(1, 1000):
        ai = -i * (i - a)
        bi = x + 2.0 * i + 1.0 - a
        d = bi + ai * d
        d = 1.0 / (d if d != 0.0 else _TINY)
        c = bi + ai / c
        if c == 0.0:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _EPS:
            return math.exp(a * math.log(x) - x) / f
    raise DomainError(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = integral_x^inf t^(a-1) e^-t dt,
    for x > 0 and any real a; Gamma(0, x) is the exponential integral E_1(x).

    Each route is free of cancellation on its range:
    * x < a: Gamma(a) minus the lower series
      gamma(a, x) = x^a e^-x sum_n x^n / (a (a+1) ... (a+n)), which stays
      below about 2/3 of Gamma(a) there;
    * x >= max(1, a): Legendre's continued fraction;
    * a <= x < 1: Gamma(a, 1) from the fraction plus integral_x^1 t^(a-1) e^-t dt,
      expanded in e^-t as sum_n (-1)^n / n! (1 - x^(a+n)) / (a+n), every
      piece computed with expm1, so a near 0 or a negative integer loses
      nothing (the sum is within a factor e^2 of its absolute series).
    Within 2e-14 relative of mpmath.gammainc over a in [-2.5, 3], x in [0.01, 60].
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"upper_gamma needs finite x > 0, got {x}")
    if x < a:
        s = term = 1.0 / a
        n = 0
        while abs(term) > _EPS * s:
            n += 1
            term *= x / (a + n)
            s += term
        return math.gamma(a) - math.exp(a * math.log(x) - x) * s
    if x >= 1.0:
        return _gamma_cf(a, x)
    lx = math.log(x)
    total, coef, n = 0.0, 1.0, 0
    while True:
        # (1 - x^c)/c = -lx expm1(y)/y with y = c lx; the ratio is 1 to double
        # precision for |y| <= 1e-17, which also covers a subnormal c
        y = (a + n) * lx
        piece = -coef * lx * (math.expm1(y) / y if abs(y) > 1e-17 else 1.0)
        total += piece
        if abs(piece) <= 0.1 * _EPS * abs(total):
            return _gamma_cf(a, 1.0) + total
        n += 1
        coef /= -n


def _mobius_small(k: int) -> int:
    """mu(k) by trial division of k."""
    mu, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if k > 1 else mu


def prime_zeta(s: complex) -> complex:
    """Prime zeta via the Mobius-log expansion sum mu(k)/k log zeta(ks).

    Valid for Re s > 1; terms are dropped once k*Re(s) exceeds 50, where
    |log zeta(ks)| < 2^-50 is below double rounding.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError(f"prime_zeta needs Re s > 1, got {s.real:.6g}")
    total = 0.0 + 0.0j
    k = 1
    while k * s.real <= 50.0:
        mu = _mobius_small(k)
        if mu:
            total += mu / k * cmath.log(zeta(k * s))
        k += 1
    return total


_BRENT_STEPS = 100


def _brent(f, xa, xb, fa, fb, xtol):
    """Root of f bracketed by xa, xb (fa, fb of opposite signs), Brent's method.

    Each step takes the inverse quadratic (or secant) step when it stays well
    inside the bracket and shrinks fast enough, and bisects otherwise; it
    stops once half the bracket is below (xtol + 8.9e-16 |x|) / 2 (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).  Step
    rules and stopping test follow scipy's brentq, so the two agree bit for
    bit on the abscissas.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 8.9e-16 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = f(xcur)
    raise DomainError(f"root bracket did not shrink to {xtol} in {_BRENT_STEPS} steps")


def solve_abscissa(func, target: float, lo: float, hi: float) -> float:
    """Root of func(x) = target on [lo, hi] for strictly monotone func.

    Brent's method (bracketing, with inverse quadratic steps) refined to 1e-12,
    then the residual is re-checked against 1e-9; a residual above that is
    treated as a failure, not a result.
    """
    flo = func(lo) - target
    fhi = func(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise DomainError(f"no sign change on [{lo}, {hi}] for target {target}")
    root = _brent(lambda x: func(x) - target, lo, hi, flo, fhi, 1e-12)
    residual = abs(func(root) - target)
    if residual > 1e-9:
        raise DomainError(f"abscissa solve residual {residual:.3g} exceeds 1e-9")
    return float(root)


@lru_cache(maxsize=None)
def prime_zeta_unit_abscissa() -> float:
    """The point rho > 1 where the prime zeta function equals 1."""
    return solve_abscissa(lambda x: prime_zeta(x).real, 1.0, 1.05, 3.0)


@lru_cache(maxsize=None)
def zeta_equals_two_abscissa() -> float:
    """The point rho1 > 1 where zeta equals 2."""
    return solve_abscissa(lambda x: zeta(x).real, 2.0, 1.2, 3.0)


_KERNEL_FAMILIES = ("dalpha", "zeta_power", "log_zeta", "mccarthy_pick", "besov")
_REGION_MARGIN = 1e-9


@dataclass(frozen=True)
class KernelSpec:
    """Reproducing-kernel family selector.

    family "dalpha" takes the smoothness parameter alpha <= 1; "zeta_power"
    and "besov" take a power gamma; "log_zeta" and "mccarthy_pick" take no
    parameter.  anchor is the fixed second argument xi of the kernel.  Both
    must be finite.
    """

    family: str
    param: float = 0.0
    anchor: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.family not in _KERNEL_FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if not math.isfinite(self.param):
            raise DomainError(f"kernel param must be finite, got {self.param}")
        if not cmath.isfinite(self.anchor):
            raise DomainError(f"kernel anchor must be finite, got {self.anchor}")
        if self.family == "dalpha" and self.param > 1.0:
            raise DomainError("dalpha kernels are defined for alpha <= 1")
        if self.family == "zeta_power" and self.param <= 0.0:
            raise DomainError("zeta_power needs gamma > 0")
        if self.family == "besov" and self.param < 0.0:
            raise DomainError("besov needs gamma >= 0")


def kernel_region(spec: KernelSpec, s: complex) -> complex:
    """z = s + conj(anchor), checked to lie in the family's region: finite,
    with Re z above 1 (above rho1 for mccarthy_pick, rho for besov).
    Raises DomainError otherwise, a nan or infinite s included."""
    z = complex(s) + complex(spec.anchor).conjugate()
    threshold = 1.0
    if spec.family == "mccarthy_pick":
        threshold = zeta_equals_two_abscissa()
    elif spec.family == "besov":
        threshold = prime_zeta_unit_abscissa()
    if not (threshold + _REGION_MARGIN < z.real < math.inf and math.isfinite(z.imag)):
        raise DomainError(f"{spec.family} kernel: s + conj(anchor) = {z:.9g} must be finite "
                          f"with real part above {threshold:.9g}")
    return z


def kernel_eval(spec: KernelSpec, s: complex) -> complex:
    """Evaluate the kernel k(s, anchor) for the chosen family.

    Powers and logs are principal branch throughout.
    """
    z = kernel_region(spec, s)
    if spec.family == "dalpha":
        a = spec.param
        zz = z - 1.0
        if a == 1.0:
            return -cmath.log(zz) / math.pi
        if a == 0.0:
            return 1.0 / zz  # family constant normalized to 1
        if a < 0.0:
            c = (-a) * 2.0 ** (-a - 1.0)
        else:
            c = 2.0 ** (a - 1.0) / (1.0 - a)
        return c * zz ** (a - 1.0)
    if spec.family == "zeta_power":
        return cmath.exp(spec.param * cmath.log(zeta(z)))
    if spec.family == "log_zeta":
        return cmath.log(zeta(z))
    if spec.family == "mccarthy_pick":
        return 1.0 / (2.0 - zeta(z))
    # besov
    g = spec.param
    w = 1.0 - prime_zeta(z)
    if g == 0.0:
        return -cmath.log(w)
    return cmath.exp(-g * cmath.log(w))
