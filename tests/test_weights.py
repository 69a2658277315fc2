import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import weights as W
from dirichletlab.arithmetic import divisor_count_table, von_mangoldt_table
from dirichletlab.errors import DomainError, FitError, RangeError


def test_catalog_rejects_unknowns_and_tiny_limits():
    with pytest.raises(DomainError):
        W.catalog("no_such_family", 100)
    with pytest.raises(RangeError):
        W.catalog("constant", 1)
    with pytest.raises(RangeError):
        W.catalog("mangoldt", 100)  # needs a sieve table


def test_constant_weights_and_partial_sums():
    w = W.catalog("constant", 5000)
    assert np.all(w.w[1:] == 1.0) and w.w[0] == 0.0
    S = W.partial_sums(w)
    assert np.array_equal(S[1:], np.arange(1, 5001, dtype=np.float64))
    assert w.expected_alpha == 0.0 and w.sigma0 == 1.0


def test_dgamma_two_equals_divisor_function(table_small):
    w = W.catalog("dgamma", 20_000, table=table_small, gamma=2.0)
    d = divisor_count_table(20_000)
    assert np.array_equal(w.w[1:], d[1:].astype(np.float64))
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            W.catalog("dgamma", 100, table=table_small, gamma=bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            W.catalog("besov", 100, table=table_small, gamma=bad)


def test_mangoldt_weights_match_arithmetic_table(table_small):
    w = W.catalog("mangoldt", 10**5, table=table_small)
    lam = von_mangoldt_table(table_small)
    assert np.array_equal(w.w, lam)
    assert w.expected_alpha == 0.0


def test_mangoldt_over_log_is_prime_power_indicatorish(table_small):
    w = W.catalog("mangoldt_over_log", 5000, table=table_small)
    # Lambda(n)/log n equals 1/k at p^k, zero elsewhere
    assert w.w[1] == 0.0
    assert w.w[7] == pytest.approx(1.0)
    assert w.w[8] == pytest.approx(1.0 / 3.0)
    assert w.w[12] == 0.0
    assert w.expected_alpha == 1.0


def test_prime_indicator(table_small):
    w = W.catalog("prime_indicator", 5000, table=table_small)
    primes = set(table_small.primes[table_small.primes <= 5000].tolist())
    assert np.array_equal(np.flatnonzero(w.w), np.array(sorted(primes)))
    assert np.all(w.w[np.flatnonzero(w.w)] == 1.0)


def test_log_power_shape():
    w = W.catalog("log_power", 100, alpha=0.5)
    for n in (2, 10, 77):
        assert w.w[n] == pytest.approx((1.0 + math.log(n)) ** 0.5, rel=1e-15)
    assert w.expected_alpha == -0.5


def test_inv_divisor_pow(table_small):
    w = W.catalog("inv_divisor_pow", 1000, alpha=1.0)
    d = divisor_count_table(1000)
    assert np.allclose(w.w[1:], 1.0 / d[1:], rtol=1e-15)
    assert w.expected_alpha == 0.5
    with pytest.raises(DomainError):
        W.catalog("inv_divisor_pow", 100, alpha=0.0)


def test_kadec_weights_and_indices():
    idx = W.kadec_indices(10)
    assert idx[0] == 3 and idx[1] == 7  # nearest integers to e, e^2
    devs = [abs(math.log(n) - k) for k, n in enumerate(idx, start=1)]
    assert max(devs) <= 0.2
    w = W.catalog("kadec", 4000, blocks=8)
    sup = np.flatnonzero(w.w)
    assert np.array_equal(sup, np.array(W.kadec_indices(8)))
    assert np.array_equal(w.w[sup], sup.astype(np.float64))  # w_{n_k} = n_k


def test_kadec_indices_refuse_past_double_precision():
    ok = W.kadec_indices(36)
    assert len(ok) == 36
    with pytest.raises(RangeError):
        W.kadec_indices(37)


def test_kadec_needs_room():
    with pytest.raises(RangeError):
        W.catalog("kadec", 100, blocks=8)


@pytest.mark.parametrize("name,params,needs_table,limit", [
    ("constant", {}, False, 2000),
    ("log_power", {"alpha": 0.5}, False, 2000),
    ("divisor", {}, False, 2000),
    ("inv_divisor_pow", {"alpha": 1.0}, False, 2000),
    ("dgamma", {"gamma": 3.0}, True, 2000),
    ("mangoldt", {}, True, 2000),
    ("mangoldt_over_log", {}, True, 2000),
    ("prime_indicator", {}, True, 2000),
    ("besov", {"gamma": 2.0}, True, 2000),
    ("mccarthy", {}, False, 2000),
    ("inv_ordered_factorization", {}, False, 2000),
    ("kadec", {"blocks": 6}, False, 2000),
    # spiked entries are e^n, finite only up to n ~ 709 (the demo's domain)
    ("kadec_spiked", {"blocks": 6}, False, 700),
])
def test_catalog_prefix_sums_nondecreasing(table_small, name, params, needs_table, limit):
    w = W.catalog(name, limit, table=table_small if needs_table else None, **params)
    S = W.partial_sums(w)
    assert np.all(np.isfinite(w.w))
    assert np.all(np.diff(S[1:]) >= 0.0)
    assert np.all(w.w >= 0.0)


def test_catalog_names_cover_parametrization():
    listed = {"constant", "log_power", "divisor", "inv_divisor_pow", "dgamma",
              "mangoldt", "mangoldt_over_log", "prime_indicator", "besov",
              "mccarthy", "inv_ordered_factorization", "kadec", "kadec_spiked"}
    assert listed == set(W.CATALOG_NAMES)


def test_partial_sums_match_fsum_prefixes():
    rng = np.random.default_rng(3)
    w = W.catalog("log_power", 3000, alpha=1.0)
    S = W.partial_sums(w)
    for k in (1, 2, 500, 2999):
        assert S[k] == pytest.approx(math.fsum(w.w[1 : k + 1]), rel=1e-14)


def test_sum_upto_steps_at_integers():
    w = W.catalog("constant", 100)
    assert W.sum_upto(w, 10.0) == 10.0
    assert W.sum_upto(w, 10.7) == 10.0
    with pytest.raises(RangeError):
        W.sum_upto(w, 101.5)


def test_fit_alpha_constant_near_zero():
    fit = W.fit_alpha(W.catalog("constant", 10**5))
    assert abs(fit.alpha_hat) <= 0.05  # measured -0.000156
    assert fit.residual_rms < 0.01
    assert fit.C_hat == pytest.approx(1.0, abs=0.05)


def test_fit_alpha_divisor_band():
    fit = W.fit_alpha(W.catalog("divisor", 10**6))
    assert -1.05 <= fit.alpha_hat <= -0.92  # measured -0.9836 at this truncation


def test_fit_alpha_refuses_degenerate_grids():
    w = W.catalog("constant", 10**4)
    with pytest.raises(FitError):
        W.fit_alpha(w, np.array([100.0, 200.0]))
    with pytest.raises(FitError):
        W.fit_alpha(w, np.geomspace(1000.0, 9000.0, 8))  # < 2 decades


def test_chebyshev_ratios_constant_flat():
    w = W.catalog("constant", 10**4)
    xs = np.geomspace(100.0, 10**4, 12)
    r = W.chebyshev_ratios(w, xs)  # alpha defaults to expected 0
    assert np.all((r >= 0.99) & (r <= 1.01))
    with pytest.raises(RangeError):
        W.chebyshev_ratios(w, np.array([1.5]))
    with pytest.raises(RangeError):
        W.chebyshev_ratios(w, np.array([2e4]))


def test_block_sums_against_direct_slices():
    w = W.catalog("divisor", 10**4)
    S = W.partial_sums(w)
    xs = np.array([100.0, 1000.0, 9000.0])
    eta = 0.5
    got = W.block_sums(w, eta, xs)  # mass of (eta*x, x]
    for x, val in zip(xs, got):
        lo, hi = int(eta * x), int(x)
        assert val == pytest.approx(S[hi] - S[lo], rel=1e-12)
    with pytest.raises(DomainError):
        W.block_sums(w, 1.5, xs)


def test_ratio_envelope_constant_tight():
    lo, hi = W.ratio_envelope(W.catalog("constant", 10**4))
    assert 0.98 <= lo <= hi <= 1.0


def test_shift_to_unit_abscissa_moves_mccarthy():
    from dirichletlab.tauberian import detect_abscissa

    w = W.catalog("mccarthy", 20_000)
    assert detect_abscissa(w) == pytest.approx(w.sigma0, abs=0.02)  # near 1.7286
    shifted = W.shift_to_unit_abscissa(w)
    assert shifted.sigma0 == 1.0
    assert detect_abscissa(shifted) == pytest.approx(1.0, abs=0.02)  # measured 0.9980


@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=2, max_value=2000))
@settings(max_examples=40)
def test_sum_upto_additive_on_disjoint_ranges(a, b):
    w = W.catalog("divisor", 2000)
    lo, hi = sorted((a, b))
    S = W.partial_sums(w)
    assert S[hi] - S[lo] == pytest.approx(
        math.fsum(w.w[lo + 1 : hi + 1]), rel=1e-12, abs=1e-12
    )
