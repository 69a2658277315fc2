import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import hspace, weights as W
from dirichletlab.errors import MembershipError, RangeError
from dirichletlab.hspace import (
    derivative,
    evaluate,
    hw_inner,
    hw_kernel,
    hw_norm,
    poly_from_coeffs,
)


def sparse(d, limit):
    """Polynomial with coefficients {n: a_n}, zeros elsewhere."""
    a = np.zeros(limit, dtype=np.complex128)  # a[k] holds a_{k+1}
    for n, c in d.items():
        a[n - 1] = c
    return poly_from_coeffs(a)


def monomial(n, limit=None, c=1.0):
    """c n^(-s) with the truncation level limit (default n)."""
    return sparse({n: c}, n if limit is None else limit)


def test_monomial_evaluates_as_power():
    m = monomial(7, c=2.0)
    s = 1.4 - 0.9j
    assert evaluate(m, s) == pytest.approx(2.0 * 7.0 ** (-s), rel=1e-15)


def test_evaluate_matches_direct_sum():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(40) + 1j * rng.standard_normal(40)  # a_1..a_40
    F = poly_from_coeffs(a)
    s = 0.9 + 3.0j
    direct = sum(a[n - 1] * n ** (-s) for n in range(1, 41))
    assert evaluate(F, s) == pytest.approx(direct, rel=1e-13)


def test_derivative_coefficients_and_value():
    F = sparse({2: 1.0, 9: -0.5}, 9)
    dF = derivative(F)
    assert dF.coeffs[2] == pytest.approx(-math.log(2.0))
    assert dF.coeffs[9] == pytest.approx(0.5 * math.log(9.0))
    s = 1.1 + 0.2j
    h = 1e-6
    fd = (evaluate(F, s + h) - evaluate(F, s - h)) / (2.0 * h)
    assert evaluate(dF, s) == pytest.approx(fd, rel=1e-8)


def test_monomial_norm_is_inverse_weight():
    w = W.catalog("divisor", 100)
    for n in (1, 5, 64):
        assert hw_norm(monomial(n), w) ** 2 == pytest.approx(1.0 / w.w[n], rel=1e-14)


def test_monomials_orthogonal():
    w = W.catalog("constant", 50)
    assert hw_inner(monomial(3), monomial(4, limit=50), w) == 0.0
    v = hw_inner(monomial(6, c=2.0), monomial(6, c=1.0 + 1.0j), w)
    assert v == pytest.approx(2.0 * (1.0 - 1.0j), rel=1e-14)  # a conj(b) / w_6


@given(st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=30))
@settings(max_examples=50)
def test_hw_norm_is_weighted_coefficient_sum(coeff_list):
    w = W.catalog("log_power", 64, alpha=1.0)
    a = np.zeros(31, dtype=np.complex128)
    a[: len(coeff_list)] = coeff_list
    F = poly_from_coeffs(a)
    direct = math.fsum(abs(a[n - 1]) ** 2 / w.w[n] for n in range(1, 32))
    assert hw_norm(F, w) ** 2 == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_norm_rejects_poly_past_weight_truncation():
    w = W.catalog("constant", 10)
    with pytest.raises(RangeError):
        hw_norm(monomial(30), w)


def test_membership_error_off_support():
    wk = W.catalog("kadec", 4000, blocks=8)
    with pytest.raises(MembershipError):
        hw_norm(monomial(4), wk)  # w_4 = 0: direction excluded
    assert hw_norm(monomial(3), wk) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_polynomial_carries_only_its_coefficients():
    F = poly_from_coeffs([1.0, 0.0, 2.0])
    assert F.limit == 3 and F.coeffs.shape == (4,)
    for bad in (np.zeros(0), np.zeros((2, 3))):
        with pytest.raises(RangeError):
            hspace.DirichletPolynomial(bad)


def test_hw_inner_refuses_what_hw_norm_refuses():
    # F is walked before G, each in hw_norm's chunks over its whole support
    n = 2 * hspace._CHUNK + 5  # in the third chunk
    w = types.SimpleNamespace(w=np.ones(n + 1), limit=n)
    w.w[[4, n]] = 0.0
    ok, bad = monomial(3, limit=n), sparse({3: 1.0, 4: 1.0}, 10)
    with pytest.raises(MembershipError, match="a_4 != 0 but w_4 = 0"):
        hw_inner(bad, sparse({3: 1.0, n: 1.0}, n), w)
    with pytest.raises(MembershipError, match=rf"a_{n} != 0 but w_{n} = 0"):
        hw_inner(ok, sparse({3: 1.0, n: 1.0}, n), w)
    with pytest.raises(RangeError, match="exceeds weight truncation"):
        hw_inner(ok, monomial(3, limit=n + 1), w)
    assert hw_inner(ok, sparse({3: 2.0, 5: 1.0}, 10), w) == 2.0


# coefficient-array lengths on both sides of each of the first three chunk edges
_NEAR_EDGES = st.builds(lambda k, d: k * hspace._CHUNK + d,
                        st.integers(1, 3), st.integers(-2, 2))


def _chunk_case(length, seed):
    """Random coefficients a_1..a_(length-1) with ~1/3 zeros, and weights spread
    over 12 decades, so the terms are far apart and their sum rounds."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(length - 1) + 1j * rng.standard_normal(length - 1)
    a[rng.random(length - 1) < 1.0 / 3.0] = 0.0
    a[-1] = 1.0 + 1.0j  # the support reaches the last coefficient
    w = np.concatenate([[0.0], 10.0 ** rng.uniform(-6.0, 6.0, length - 1)])
    return poly_from_coeffs(a), types.SimpleNamespace(w=w, limit=length - 1)


@given(_NEAR_EDGES, st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chunked_hw_norm_is_bit_identical(length, seed):
    F, w = _chunk_case(length, seed)
    idx = np.flatnonzero(F.coeffs)
    a = F.coeffs[idx]
    whole = math.sqrt(math.fsum((a.real**2 + a.imag**2) / w.w[idx]))
    assert hw_norm(F, w) == whole  # fsum over all chunks: bit for bit


@given(_NEAR_EDGES, st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=30, deadline=None)
def test_chunked_hw_norm_names_the_first_excluded_index(length, seed, data):
    F, w = _chunk_case(length, seed)
    support = np.flatnonzero(F.coeffs)
    chunk = data.draw(st.integers(0, (length - 1) // hspace._CHUNK), label="chunk")
    in_chunk = support[support // hspace._CHUNK == chunk]
    bad = data.draw(st.sampled_from(in_chunk.tolist()), label="bad")
    w.w[bad] = 0.0
    w.w[support[support > bad]] = 0.0  # later zeros, in this chunk and past it
    with pytest.raises(MembershipError, match=rf"a_{bad} != 0 but w_{bad} = 0"):
        hw_norm(F, w)


def test_kernel_coefficients_are_weighted_translates():
    w = W.catalog("divisor", 100)
    xi = 1.7 + 0.4j
    k = hw_kernel(w, xi)
    for n in (1, 2, 3, 10, 99):
        assert k.coeffs[n] == pytest.approx(w.w[n] * n ** (-xi.conjugate()), rel=1e-14)


def test_kernel_reproduces_point_evaluations():
    rng = np.random.default_rng(20260817)
    names = ["constant", "divisor", "log_power", "inv_divisor_pow"]
    for trial in range(10):
        name = names[trial % len(names)]
        params = {"alpha": 0.7} if name in ("log_power", "inv_divisor_pow") else {}
        w = W.catalog(name, 200, **params)
        a = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * np.sqrt(w.w[1:])
        F = poly_from_coeffs(a)
        xi = complex(1.6 + rng.random(), rng.standard_normal())
        lhs = hw_inner(F, hw_kernel(w, xi), w)
        assert lhs == pytest.approx(evaluate(F, xi), rel=1e-12, abs=1e-12)
