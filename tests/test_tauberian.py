import math

import numpy as np
import pytest

from dirichletlab import accum, weights as W
from dirichletlab.errors import DomainError, FitError, RangeError
from dirichletlab.tauberian import (
    SingularityFit,
    detect_abscissa,
    fit_singularity,
    mellin_profile,
    predict_and_compare,
    prescan,
)
from dirichletlab.zeta import prime_zeta, zeta

RHO = 1.3994333287263299  # prime zeta = 1


def standard_fit(name, limit, **params):
    w = W.catalog(name, limit, **params)
    grid = w.sigma0 + np.geomspace(0.02, 1.5, 48)
    return w, fit_singularity(mellin_profile(w, grid), w.sigma0)


def test_profile_matches_zeta_within_tail():
    prof = mellin_profile(W.catalog("constant", 10**6), [1.5, 2.0, 3.0])
    for p in prof:
        gap = zeta(p.sigma).real - p.value
        assert 0.0 <= gap <= p.tail_bound


def test_profile_divisor_matches_zeta_squared():
    w = W.catalog("divisor", 10**7)
    p15, p20 = mellin_profile(w, [1.5, 2.0])
    # at sigma = 1.5 the truncation tail itself is ~1e-2; the identity is
    # checkable only through the bracket there, and directly from 2.0 on
    gap = zeta(1.5).real ** 2 - p15.value
    assert 0.0 <= gap <= p15.tail_bound
    assert abs(p20.value - zeta(2.0).real ** 2) <= 1e-4  # measured 1.8e-6


def test_profile_large_sigma_leaves_first_term():
    p = mellin_profile(W.catalog("constant", 100), [40.0])[0]
    assert p.value == pytest.approx(1.0, rel=1e-9)


def test_profile_strictly_decreasing():
    for name in ("constant", "divisor", "prime_indicator"):
        w = W.catalog(name, 10**5)
        vals = [p.value for p in mellin_profile(w, np.linspace(1.2, 4.0, 15))]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_profile_rejects_sigma_at_abscissa():
    w = W.catalog("constant", 10**4)
    with pytest.raises(DomainError):
        mellin_profile(w, [0.9, 1.5])
    with pytest.raises(DomainError):
        mellin_profile(w, [1.0])


@pytest.mark.parametrize("grid", [[math.nan, 1.5], [math.inf]])
def test_profile_refuses_a_non_finite_sigma_before_reading(grid):
    w = W.catalog("mangoldt", 10**6)
    with pytest.raises(DomainError):
        mellin_profile(w, grid)
    assert not w._moments and not w._sums


@pytest.mark.parametrize("grid", [[math.nan, 1.5], [1.5, math.inf], [-math.inf], [1.0], [0.5, 2.0]])
def test_prescan_refuses_what_the_profile_refuses_before_reading(grid, monkeypatch):
    w = W.catalog("mangoldt", 10**6)
    with pytest.raises(DomainError) as want:
        mellin_profile(w, grid)
    monkeypatch.setattr(accum, "scan", lambda *a, **k: pytest.fail("a weight was read"))
    with pytest.raises(DomainError) as got:
        prescan(w, grid, [10.0, 1e5])
    assert str(got.value) == str(want.value)
    assert not w._moments and not w._sums


def test_fit_constant_simple_pole():
    _, fit = standard_fit("constant", 10**6)
    assert not fit.log_singularity
    assert -0.1 <= fit.beta_hat <= 0.1
    assert fit.beta_hat == pytest.approx(0.079964296516, abs=1e-9)  # frozen
    assert fit.g_at_sigma0 == pytest.approx(1.157137441042, abs=1e-9)
    assert 0.0 < fit.fit_window[0] < fit.fit_window[1]
    assert fit.residual_rms < 1e-2


def test_fit_divisor_double_pole():
    # 10^7 terms: with fewer the tail-clean window starts too shallow and
    # the regular part of zeta^2 drags the slope above -0.85
    _, fit = standard_fit("divisor", 10**7)
    assert not fit.log_singularity
    assert -1.15 <= fit.beta_hat <= -0.85
    assert fit.beta_hat == pytest.approx(-0.873544314196, abs=1e-9)  # frozen


def test_fit_summatory_mangoldt_stays_power():
    # the analytic part of -zeta'/zeta enters negatively, which also steepens
    # the shallow slopes; the shape contest keeps this on the power branch
    _, fit = standard_fit("mangoldt", 10**6)
    assert not fit.log_singularity
    assert abs(fit.beta_hat) <= 0.1  # frozen 0.075768


@pytest.mark.parametrize(
    "name,g_frozen",
    [("mangoldt_over_log", 0.947039691606), ("prime_indicator", 0.864862266704)],
)
def test_fit_log_singularities(name, g_frozen):
    _, fit = standard_fit(name, 10**6)
    assert fit.log_singularity
    assert fit.beta_hat == 1.0
    assert fit.g_at_sigma0 == pytest.approx(g_frozen, abs=1e-9)


def test_fit_refuses_short_window():
    # (log x)^2-type growth keeps tails heavy: at 10^6 terms fewer than
    # 0.3 decades of the profile are tail-clean
    w = W.catalog("dgamma", 10**6, gamma=3)
    prof = mellin_profile(w, w.sigma0 + np.geomspace(0.02, 1.5, 48))
    with pytest.raises(FitError, match="decades"):
        fit_singularity(prof, w.sigma0)


def test_fit_refuses_tail_dominated_profile():
    w = W.catalog("constant", 10**4)
    prof = mellin_profile(w, 1.0 + np.geomspace(1e-4, 2e-3, 10))
    with pytest.raises(FitError, match="tails exceed"):
        fit_singularity(prof, 1.0)


def test_fit_refuses_non_finite_profile():
    # e^n weights overflow past n ~ 709: every profile value and tail bound
    # is inf, and inf <= 0.01 * inf must not pass the tail gate
    w = W.catalog("kadec_spiked", 10**5, blocks=6)
    prof = mellin_profile(w, w.sigma0 + np.geomspace(0.02, 1.5, 48))
    assert all(p.value == p.tail_bound == np.inf for p in prof)
    with pytest.raises(FitError, match=r"48 of 48 profile points are not finite \(value inf"):
        fit_singularity(prof, w.sigma0)


def test_fit_keeps_finite_points_beside_non_finite_ones():
    w = W.catalog("constant", 10**6)
    prof = mellin_profile(w, w.sigma0 + np.geomspace(0.02, 1.5, 48))
    spoilt = [p._replace(value=np.inf, tail_bound=np.inf) if i % 2 else p
              for i, p in enumerate(prof)]
    got = fit_singularity(spoilt + [prof[1]._replace(value=np.nan)], w.sigma0)
    assert got == fit_singularity(prof[::2], w.sigma0)


def test_fit_refuses_too_few_points():
    w = W.catalog("constant", 10**4)
    prof = mellin_profile(w, [1.5, 1.8, 2.1])
    with pytest.raises(FitError, match="usable profile points"):
        fit_singularity(prof, 1.0)


def test_predict_constant_ideal_shape():
    # with the exact exponents the ratio column is floor(x)/x, calibrated
    w = W.catalog("constant", 10**6)
    fit = SingularityFit(1.0, 0.0, 1.0, (0.0, 0.0), 0.0, False)
    rows = predict_and_compare(fit, w, np.geomspace(1e4, 1e6, 9))
    assert all(0.99 <= r.ratio <= 1.01 for r in rows)


def test_predict_constant_fitted_pipeline():
    w, fit = standard_fit("constant", 10**6)
    rows = predict_and_compare(fit, w, np.geomspace(1e5, 1e6, 9))
    ratios = [r.ratio for r in rows]
    assert 0.97 <= min(ratios) and max(ratios) <= 1.03  # measured [0.9924, 1.0070]
    mid = rows[len(rows) // 2]
    assert mid.ratio == pytest.approx(1.0, abs=1e-12)  # calibration point
    assert all(r.measured == pytest.approx(r.ratio * r.predicted) for r in rows)


def test_predict_summatory_mangoldt_last_decade():
    w, fit = standard_fit("mangoldt", 10**6)
    rows = predict_and_compare(fit, w, np.geomspace(1e5, 1e6, 9))
    assert all(0.95 <= r.ratio <= 1.05 for r in rows)  # measured [0.9939, 1.0068]


def test_predict_prime_counts_with_unit_log_power():
    w = W.catalog("prime_indicator", 10**7)
    fit = SingularityFit(1.0, 1.0, 1.0, (0.0, 0.0), 0.0, True)
    rows = predict_and_compare(fit, w, np.geomspace(1e6, 1e7, 5))
    assert all(0.9 <= r.ratio <= 1.1 for r in rows)  # measured [0.9942, 1.0065]


def test_predict_grid_checks():
    w = W.catalog("constant", 10**4)
    fit = SingularityFit(1.0, 0.0, 1.0, (0.0, 0.0), 0.0, False)
    with pytest.raises(RangeError):
        predict_and_compare(fit, w, [])
    with pytest.raises(RangeError):
        predict_and_compare(fit, w, [100.0, 2e4])


def test_detect_abscissa_constant():
    v = detect_abscissa(W.catalog("constant", 10**5))
    assert v == pytest.approx(1.0, abs=1e-12)


def test_detect_abscissa_divisor():
    # the (log x)^1 factor drags the finite-range slope above 1
    v = detect_abscissa(W.catalog("divisor", 10**5))
    assert v == pytest.approx(1.101256347034861, rel=1e-12)  # frozen
    assert abs(v - 1.0) <= 0.15


def test_detect_abscissa_refuses_non_finite_sums():
    with pytest.raises(FitError, match=r"S\(\d+\) = inf is not finite"):
        detect_abscissa(W.catalog("kadec_spiked", 10**5, blocks=6))


def test_detect_abscissa_mccarthy():
    w = W.catalog("mccarthy", 20_000)
    assert detect_abscissa(w) == pytest.approx(w.sigma0, abs=0.02)  # near 1.7286


@pytest.mark.parametrize("name", ["constant", "divisor"])
def test_singularity_exponent_matches_sum_exponent(name):
    w, fit = standard_fit(name, 10**6)
    afit = W.fit_alpha(w)
    assert abs(fit.beta_hat - afit.alpha_hat) <= 0.25  # measured 0.080 / 0.134


def test_prime_zeta_derivative_nonzero_at_unit_crossing():
    # simple zero of 1 - prime zeta: the derivative there is clearly nonzero
    h = 1e-5
    d = (prime_zeta(RHO + h) - prime_zeta(RHO - h)) / (2 * h)
    assert abs(d.imag) < 1e-9
    assert d.real == pytest.approx(-1.731156, abs=1e-4)
    assert abs(d.real) > 1.0


@pytest.mark.parametrize("name", ["divisor", "mangoldt"])
def test_prescan_serves_the_workflow_from_one_scan(name, monkeypatch):
    w = W.catalog(name, 10**6)
    sigmas, xs = w.sigma0 + np.geomspace(0.02, 1.5, 48), np.geomspace(1e5, 1e6, 9)
    whole = W.catalog(name, 10**6)
    whole.w  # built: the workflow reads views of the array
    want_prof = mellin_profile(whole, sigmas)
    want_fit = fit_singularity(want_prof, whole.sigma0)
    want_abscissa = detect_abscissa(whole)
    want_rows = predict_and_compare(want_fit, whole, xs)
    scans, scan = [], accum.scan
    monkeypatch.setattr(accum, "scan", lambda *a, **k: scans.append(1) or scan(*a, **k))
    prescan(w, sigmas, xs)
    prof = mellin_profile(w, sigmas)
    fit = fit_singularity(prof, w.sigma0)
    assert prof == want_prof and fit == want_fit
    assert detect_abscissa(w) == want_abscissa
    assert predict_and_compare(fit, w, xs) == want_rows
    assert len(scans) == 1 and w._w is None
