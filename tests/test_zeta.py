import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from dirichletlab import weights as W
from dirichletlab.errors import DomainError, RangeError
from dirichletlab.tauberian import log_power_tail, mellin_profile
from dirichletlab.zeta import (
    KernelSpec,
    kernel_eval,
    prime_zeta,
    prime_zeta_unit_abscissa,
    solve_abscissa,
    upper_gamma,
    zeta,
    zeta_equals_two_abscissa,
)

# reference constants (independent high-precision evaluations, frozen)
ZETA3 = 1.2020569031595943
PRIME_ZETA_15 = 0.8495626836215662
RHO = 1.3994333287263299
RHO1 = 1.728647238998184


def test_zeta_at_even_integers_closed_form():
    assert zeta(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    assert zeta(4.0).real == pytest.approx(math.pi**4 / 90.0, rel=1e-13)


def test_zeta_reference_value():
    assert zeta(3.0).real == pytest.approx(ZETA3, rel=1e-13)


def test_prime_zeta_reference_and_direct_sum():
    from dirichletlab.arithmetic import prime_segments

    assert prime_zeta(1.5).real == pytest.approx(PRIME_ZETA_15, rel=1e-12)
    # at sigma = 3 the raw prime sum to 1e5 has tail < integral x^-3 = 5e-11
    primes = np.flatnonzero(np.concatenate(list(prime_segments(10**5))))
    direct = math.fsum(float(p) ** -3.0 for p in primes)
    assert prime_zeta(3.0).real == pytest.approx(direct, abs=1e-9)


def test_abscissas_and_residuals():
    rho = prime_zeta_unit_abscissa()
    rho1 = zeta_equals_two_abscissa()
    assert rho == pytest.approx(RHO, abs=1e-9)
    assert rho1 == pytest.approx(RHO1, abs=1e-9)
    assert abs(prime_zeta(rho).real - 1.0) <= 1e-9
    assert abs(zeta(rho1).real - 2.0) <= 1e-9
    # monotone brackets guaranteeing uniqueness of the roots
    assert prime_zeta(1.1).real > 1.0 > prime_zeta(2.0).real
    assert zeta(1.5).real > 2.0 > zeta(2.0).real


def test_solve_abscissa_on_transparent_function():
    root = solve_abscissa(lambda s: s * s, 4.0, 1.0, 3.0)
    assert root == pytest.approx(2.0, abs=1e-10)


def test_abscissas_against_mpmath_findroot():
    with mpmath.workdps(40):
        rho = mpmath.findroot(lambda x: mpmath.primezeta(x) - 1, 1.4)
        rho1 = mpmath.findroot(lambda x: mpmath.zeta(x) - 2, 1.7)
    assert abs(prime_zeta_unit_abscissa() - float(rho)) <= 1e-12
    assert abs(zeta_equals_two_abscissa() - float(rho1)) <= 1e-12


@pytest.mark.parametrize("func, target, lo, hi", [
    (lambda x: prime_zeta(x).real, 1.0, 1.05, 3.0),
    (lambda x: zeta(x).real, 2.0, 1.2, 3.0),
    (lambda x: x * x, 4.0, 1.0, 3.0),
    (lambda x: math.exp(-x) - 0.3, 0.0, -2.0, 5.0),
])
def test_solve_abscissa_matches_brentq_bit_for_bit(func, target, lo, hi):
    ref = optimize.brentq(lambda x: func(x) - target, lo, hi, xtol=1e-12, rtol=8.9e-16)
    assert solve_abscissa(func, target, lo, hi) == ref


def test_solve_abscissa_requires_sign_change():
    with pytest.raises(DomainError):
        solve_abscissa(lambda x: x * x, -1.0, 1.0, 3.0)


def _gammainc(a, x):
    with mpmath.workdps(40):
        return float(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-2.5, max_value=3.0), st.floats(min_value=0.01, max_value=60.0))
@example(-2.2, 60.0)  # the scipy-plus-recurrence route was off by 1.5e-9 here
@example(2.2e-16, 0.5)  # Gamma(a) - gamma(a, x) would cancel to nothing
@example(5e-324, 0.01)  # subnormal a: expm1(a log x) / a keeps no digits
@example(-1.0 + 1e-9, 0.3)
@example(-2.0, 0.99)
@example(2.0, 1.0)  # the continued fraction starts on a zero: x + 1 - a = 0
def test_upper_gamma_against_mpmath(a, x):
    assert upper_gamma(a, x) == pytest.approx(_gammainc(a, x), rel=1e-13)


def test_upper_gamma_e1_at_cross_check_arguments():
    # E_1((s-1) L) and E_1((s-1/2) L) for s = 1.5 at N = 1e4 and 1e7
    for N in (1e4, 1e7):
        for x in (0.5 * math.log(N), math.log(N)):
            with mpmath.workdps(40):
                e1 = float(mpmath.e1(x))
            assert upper_gamma(0.0, x) == pytest.approx(e1, rel=1e-14)


def test_upper_gamma_domain():
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            upper_gamma(0.5, x)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.5, allow_nan=False, allow_infinity=False),
       st.floats(min_value=-100.0, max_value=100.0))
@example(1.0000001, 0.0)  # |zeta| ~ 1e7: rounding alone exceeds 1e-10 absolute
@example(1.0, 1e-300)
@example(1.0, 5e-324)  # 1/|s-1| overflows: the pole's DomainError
@example(0.5, 14.134725141734695)  # first zero
@example(1.0, 9.064720283654388)  # a zero of 1 - 2^(1-s)
@example(1.05, 0.0)
@example(1.5, 2.3)
@example(2.0, -5.0)
@example(3.7, 0.0)
@example(3e11, 0.0)  # M^(-s-1) underflows: the corrections must stay 0, not inf * 0
@example(1e300, 0.0)
@example(1e300, 50.0)
def test_zeta_against_mpmath_over_stated_region(sigma, t):
    s = complex(sigma, t)
    if abs(s - 1.0) * 1.7976931348623157e308 < 1.0:
        with pytest.raises(DomainError):
            zeta(s)
        return
    with mpmath.workdps(30):
        ref = complex(mpmath.zeta(mpmath.mpc(sigma, t)))
    assert abs(zeta(s) - ref) <= 1e-10 * max(1.0, abs(ref))


# the oracles' region: Re s in [1.05, 6], |Im s| <= 60
ORACLE_SIGMA = st.floats(min_value=1.05, max_value=6.0)
ORACLE_T = st.floats(min_value=-60.0, max_value=60.0)


def _mp(z: complex):
    return mpmath.mpc(z.real, z.imag)


@settings(max_examples=25, deadline=None)
@given(ORACLE_SIGMA, ORACLE_T)
@example(1.05, 0.0)
@example(1.05, 60.0)
def test_prime_zeta_against_mpmath(sigma, t):
    s = complex(sigma, t)
    with mpmath.workdps(30):
        ref = complex(mpmath.primezeta(_mp(s)))
    assert abs(prime_zeta(s) - ref) <= 1e-12 * max(1.0, abs(ref))


def _kernel_reference(family, g, z):
    """The kernel k at z = s + conj(anchor), from mpmath's zeta and prime zeta."""
    with mpmath.workdps(30):
        z = _mp(z)
        if family == "zeta_power":
            v = mpmath.exp(g * mpmath.log(mpmath.zeta(z)))
        elif family == "log_zeta":
            v = mpmath.log(mpmath.zeta(z))
        elif family == "mccarthy_pick":
            v = 1 / (2 - mpmath.zeta(z))
        elif g == 0.0:  # besov
            v = -mpmath.log(1 - mpmath.primezeta(z))
        else:
            v = mpmath.exp(-g * mpmath.log(1 - mpmath.primezeta(z)))
        return complex(v)


KERNEL_ORACLE_CASES = [("zeta_power", 0.5), ("zeta_power", 2.0), ("log_zeta", 0.0),
                       ("mccarthy_pick", 0.0), ("besov", 0.0), ("besov", 1.5)]


@pytest.mark.parametrize("family, g", KERNEL_ORACLE_CASES)
@settings(max_examples=15, deadline=None)
@given(sigma=ORACLE_SIGMA, t=ORACLE_T)
@example(sigma=1.05, t=0.0)
@example(sigma=2.0, t=-60.0)
def test_kernel_families_against_mpmath(family, g, sigma, t):
    anchor = complex(0.25, -1.5)
    spec = KernelSpec(family=family, param=g, anchor=anchor)
    s = complex(sigma, t) - anchor.conjugate()
    z = s + anchor.conjugate()  # the point kernel_eval evaluates at
    threshold = {"mccarthy_pick": zeta_equals_two_abscissa(),
                 "besov": prime_zeta_unit_abscissa()}.get(family, 1.0)
    if z.real <= threshold + 1e-9:
        with pytest.raises(DomainError):
            kernel_eval(spec, s)
        return
    ref = _kernel_reference(family, g, z)
    assert abs(kernel_eval(spec, s) - ref) <= 1e-12 * max(1.0, abs(ref))


def _dalpha_reference(alpha, w):
    """The dalpha kernel at z = w + 1 from mpmath: for alpha < 1,
    c / Gamma(1 - alpha) times the Laplace integral of x^(-alpha) e^(-w x)
    over (0, inf), and -log(w)/pi at alpha = 1.

    The integral runs along the ray x = u^p conj(w)/|w|, p = 1/(1 - alpha),
    where e^(-w x) does not oscillate (Cauchy: Re(w x) > 0 between the ray
    and the real axis) and x^(-alpha) dx has no singularity at u = 0.
    """
    with mpmath.workdps(30):
        w = _mp(w)
        if alpha == 1.0:
            return complex(-mpmath.log(w) / mpmath.pi)
        a = mpmath.mpf(alpha)
        if a < 0:
            c = -a * mpmath.mpf(2) ** (-a - 1)
        elif a == 0:
            c = mpmath.mpf(1)
        else:
            c = mpmath.mpf(2) ** (a - 1) / (1 - a)
        ray, p = mpmath.conj(w) / abs(w), 1 / (1 - a)

        def f(u):
            return (u**p * ray) ** (-a) * mpmath.exp(-abs(w) * u**p) * ray * p * u ** (p - 1)

        knee = abs(w) ** (a - 1)  # where e^(-|w| u^p) = 1/e
        return complex(c / mpmath.gamma(1 - a) * mpmath.quad(f, [0, knee, 2 * knee, mpmath.inf]))


@settings(max_examples=25, deadline=None)
@given(alpha=st.one_of(st.floats(min_value=-4.0, max_value=0.99), st.sampled_from([0.0, 1.0])),
       re_w=st.floats(min_value=0.05, max_value=5.0), t=st.floats(min_value=-50.0, max_value=50.0))
@example(alpha=-1.0, re_w=0.05, t=50.0)
@example(alpha=0.5, re_w=5.0, t=-50.0)
@example(alpha=0.99, re_w=0.05, t=0.0)
@example(alpha=1.0, re_w=0.05, t=-50.0)
def test_dalpha_kernel_against_mpmath(alpha, re_w, t):
    anchor = complex(0.25, -1.5)
    w = complex(re_w, t)  # z - 1, z = s + conj(anchor)
    v = kernel_eval(KernelSpec(family="dalpha", param=alpha, anchor=anchor),
                    w + 1.0 - anchor.conjugate())
    ref = _dalpha_reference(alpha, w)
    assert abs(v - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("family", ["dalpha", "zeta_power", "log_zeta", "besov"])
@pytest.mark.parametrize("param, anchor", [(math.nan, 1.0), (-math.inf, 1.0), (math.inf, 1.0),
                                           (0.5, complex(math.nan, 0.0)),
                                           (0.5, complex(1.0, math.inf))])
def test_kernel_spec_rejects_non_finite_param_and_anchor(family, param, anchor):
    with pytest.raises(DomainError, match="param" if not math.isfinite(param) else "anchor"):
        KernelSpec(family=family, param=param, anchor=anchor)


def test_kernel_rejects_non_finite_s():
    spec = KernelSpec(family="dalpha", param=-1.0, anchor=1.0)
    for s in (complex(math.nan, 0.0), complex(1.0, math.nan), complex(math.inf, 0.0),
              complex(1.0, -math.inf)):
        with pytest.raises(DomainError):
            kernel_eval(spec, s)


def test_weighted_zeta_brackets_closed_form():
    w = W.catalog("constant", 10**5)
    out = mellin_profile(w, [2.0])[0]  # sum n^-2 -> zeta(2)
    z2 = math.pi**2 / 6.0
    assert out.value < z2
    assert out.value + 2.0 * out.tail_bound > z2
    assert out.tail_bound > 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_log_power_tail_matches_quadrature(alpha):
    # integral_L^inf e^(-u y) y^(-alpha) dy, the x = e^y form of the tail
    for u, N in ((0.02, 1e5), (0.3, 4096), (0.5, 1e7), (1.5, 1e7), (3.0, 1e7)):
        L = math.log(N)
        with mpmath.workdps(30):
            exact = mpmath.quad(lambda y: mpmath.exp(-u * y) * y ** (-alpha), [L, mpmath.inf])
        assert log_power_tail(u, L, alpha) == pytest.approx(float(exact), rel=1e-10)


def test_weighted_zeta_tail_finite_past_alpha_one():
    out = mellin_profile(W.catalog("log_power", 10**5, alpha=-1.5), [1.6])[0]  # alpha = 1.5
    assert math.isfinite(out.tail_bound) and out.tail_bound > 0.0
    assert out.remainder <= 1e-15 * out.value


def test_weighted_zeta_rejects_divergent_sigma():
    w = W.catalog("constant", 1000)
    with pytest.raises(DomainError):
        mellin_profile(w, [1.0])  # sum n^-1 diverges


def test_kernel_dalpha_bergman_and_szego():
    # alpha = -1 (Bergman-type): 1/(s + conj(w) - 1)^2; alpha = 0: reciprocal form
    s, anchor = 0.8 + 0.3j, 1.1 - 0.2j
    v = kernel_eval(KernelSpec(family="dalpha", param=-1.0, anchor=anchor), s)
    assert v == pytest.approx(1.0 / (s + anchor.conjugate() - 1.0) ** 2, rel=1e-13)
    v0 = kernel_eval(KernelSpec(family="dalpha", param=0.0, anchor=anchor), s)
    assert v0 == pytest.approx(1.0 / (s + anchor.conjugate() - 1.0), rel=1e-13)


def test_kernel_hermitian_symmetry():
    for family, param in (("dalpha", -1.0), ("dalpha", 0.5), ("zeta_power", 2.0),
                          ("log_zeta", 0.0), ("mccarthy_pick", 0.0)):
        a = 1.3 + 0.4j
        b = 1.6 - 0.2j
        k_ab = kernel_eval(KernelSpec(family=family, param=param, anchor=b), a)
        k_ba = kernel_eval(KernelSpec(family=family, param=param, anchor=a), b)
        assert k_ab == pytest.approx(k_ba.conjugate(), rel=1e-12)


def test_kernel_diagonal_positive():
    for family, param in (("dalpha", -1.0), ("zeta_power", 2.0), ("mccarthy_pick", 0.0)):
        xi = 1.9 + 0.7j
        v = kernel_eval(KernelSpec(family=family, param=param, anchor=xi), xi)
        assert v.real > 0.0 and abs(v.imag) < 1e-12 * max(1.0, v.real)


def test_kernel_unknown_family():
    with pytest.raises((DomainError, RangeError)):
        KernelSpec(family="nope", param=0.0, anchor=1.0 + 0.0j)
