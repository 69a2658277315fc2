import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import weights as W
from dirichletlab.accum import (
    _HEAD,
    block_moments,
    compensated_cumsum,
    compensated_sum,
    dirichlet_sums,
    fsum,
    fsum_complex,
    moment_sums,
)
from dirichletlab.tauberian import mellin_profile


def test_fsum_exact_on_cancellation():
    a = [1.0, 1e100, 1.0, -1e100] * 1000
    assert fsum(a) == math.fsum(a) == 2000.0


def test_compensated_sum_small_terms_after_large():
    a = np.concatenate([[1e16], np.full(10**6, 1e-3)])
    assert compensated_sum(a) == pytest.approx(math.fsum(a), rel=1e-14)


@given(st.lists(st.floats(min_value=0.0, max_value=1e12, allow_nan=False), max_size=300))
def test_compensated_sum_tracks_fsum_on_positive_arrays(xs):
    assert compensated_sum(np.asarray(xs, dtype=np.float64)) == pytest.approx(
        math.fsum(xs), rel=1e-13, abs=1e-300
    )


def test_fsum_complex_splits_parts():
    zs = [complex(1e16, -1.0), complex(1.0, 1e16), complex(-1e16, -1e16)]
    out = fsum_complex(zs)
    assert out.real == math.fsum(z.real for z in zs)
    assert out.imag == math.fsum(z.imag for z in zs)


def test_cumsum_endpoint_and_monotone():
    rng = np.random.default_rng(11)
    a = rng.random(200_001)  # straddles any internal chunk boundary
    c = compensated_cumsum(a)
    assert c.shape == a.shape
    assert c[-1] == pytest.approx(math.fsum(a), rel=1e-15)
    assert np.all(np.diff(c) > 0)


def test_cumsum_prefixes_are_exact_sums():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5000) * np.logspace(-8, 8, 5000)
    c = compensated_cumsum(a)
    for k in (1, 17, 999, 4999):
        assert c[k] == pytest.approx(math.fsum(a[: k + 1]), rel=1e-13, abs=1e-12)


def test_scalar_fsum_wrapper():
    assert fsum([0.1] * 10) == math.fsum([0.1] * 10)


def direct_sums(a, sigmas):
    """The reference the engine replaces: one compensated pass over all N terms per s."""
    logn = np.log(np.arange(1, a.size, dtype=np.float64))
    return np.array([compensated_sum(a[1:] * np.exp(-s * logn)) for s in sigmas])


CATALOG_PARAMS = {
    "log_power": {"alpha": -1.5},
    "dgamma": {"gamma": 1.5},
    "inv_divisor_pow": {"alpha": 1.0},
    "besov": {"gamma": 0.5},
    "kadec": {"blocks": 11},
    "kadec_spiked": {"blocks": 6},
}


@pytest.mark.parametrize("name", W.CATALOG_NAMES)
def test_engine_matches_direct_sum_on_catalog(name, table_small):
    w = W.catalog(name, 10**5, table=table_small, **CATALOG_PARAMS.get(name, {}))
    sigmas = np.append(w.sigma0 + np.geomspace(0.02, 1.5, 48), 40.0)
    for N in (_HEAD - 1, _HEAD, _HEAD + 1, 10**5):
        prof = mellin_profile(w, sigmas, limit=N)
        direct = direct_sums(w.w[: N + 1], sigmas)
        got = np.array([p.value for p in prof])
        rem = np.array([p.remainder for p in prof])
        if not np.all(np.isfinite(direct)):  # e^n spikes overflow past n ~ 709
            assert np.array_equal(got, direct)
            continue
        assert np.all(np.abs(got - direct) <= 1e-13 * direct), f"{name} N={N}"
        assert np.all((rem >= 0.0) & (rem <= 1e-15 * got)), f"{name} N={N}"


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(_HEAD - 2, 3 * _HEAD),
    seed=st.integers(0, 2**32 - 1),
    decades=st.floats(0.0, 12.0),
    zero_frac=st.floats(0.0, 1.0),
    zero_head=st.booleans(),
    s=st.floats(0.05, 40.0),
)
def test_engine_error_within_remainder_on_random_weights(N, seed, decades, zero_frac, zero_head, s):
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(-decades, 0.0, N + 1)
    a[rng.random(N + 1) < zero_frac] = 0.0
    if zero_head:  # only blocks left: the Taylor remainder is all there is
        a[: _HEAD + 1] = 0.0
    values, rems = dirichlet_sums(a, [s])
    direct = direct_sums(a, [s])[0]
    assert abs(values[0] - direct) <= rems[0] + 1e-13 * direct


@pytest.mark.parametrize("N", [_HEAD + 1, 10**5])
def test_engine_constant_weight_is_zeta_minus_hurwitz(N):
    sigmas = np.append(1.0 + np.geomspace(0.02, 1.5, 48), 40.0)
    values, _ = dirichlet_sums(W.catalog("constant", N).w, sigmas)
    with mpmath.workdps(40):
        exact = [float(mpmath.zeta(s) - mpmath.zeta(s, N + 1)) for s in sigmas]
    assert np.all(np.abs(values - exact) <= 1e-13 * np.array(exact))


def test_engine_keeps_input_order_and_small_n():
    a = np.array([0.0, 2.0, 3.0])
    values, rems = dirichlet_sums(a, [3.0, 1.0])
    assert values == pytest.approx([2.0 + 3.0 / 8.0, 3.5], rel=1e-15)
    assert np.all(rems == 0.0)


@settings(max_examples=30, deadline=None)
@given(
    N=st.sampled_from([_HEAD - 1, _HEAD, _HEAD + 1, 20_000]),
    seed=st.integers(0, 2**32 - 1),
    sigmas=st.lists(st.floats(0.5, 3.0, exclude_min=True), min_size=1, max_size=3),
    ts=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=3),
)
def test_engine_error_within_remainder_at_complex_s(N, seed, sigmas, ts):
    # random complex coefficients cancel, so the gate is relative to sum |a_n| n^-sigma
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    a[0] = 0.0
    s_max = max(abs(complex(sg, t)) for sg in sigmas for t in ts)
    values, rems = moment_sums(block_moments(a, s_max), sigmas, ts)
    assert values.shape == rems.shape == (len(sigmas), len(ts))
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    for i, sg in enumerate(sigmas):
        absolute = compensated_sum(np.abs(a[1:]) * np.exp(-sg * logn))
        for j, t in enumerate(ts):
            direct = fsum_complex(a[1:] * np.exp(-complex(sg, t) * logn))
            assert abs(values[i, j] - direct) <= rems[i, j] + 1e-12 * absolute


@pytest.mark.parametrize("N", [20_000, 10**5])
def test_block_width_keeps_the_remainder_small_at_wide_t(N):
    # the blocks narrow with max |s|, so |t| = 30 costs no accuracy
    rng = np.random.default_rng(3)
    a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    a[0] = 0.0
    sigmas, ts = [0.5 + 2.0**-20, 1.0, 3.0], [-30.0, 30.0]
    bm = block_moments(a, abs(complex(3.0, 30.0)))
    _, rems = moment_sums(bm, sigmas, ts)
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    for i, sg in enumerate(sigmas):
        absolute = compensated_sum(np.abs(a[1:]) * np.exp(-sg * logn))
        assert np.all(rems[i] <= 1e-15 * absolute)
    # the width at |s| <= 5 is the fixed 1/32 the real profiles use
    assert np.array_equal(block_moments(a, 5.0).centre, block_moments(a, 0.0).centre)
    assert bm.centre.size > block_moments(a, 5.0).centre.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_remainder_bounds_the_error_past_the_width_it_was_built_for(seed):
    # moments sized for |s| <= 5 evaluated at |t| up to 60: the Taylor error
    # is far above rounding there, and the remainder must still cover it
    N = 3 * _HEAD
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    a[: _HEAD + 1] = 0.0  # blocks only
    sigmas, ts = [0.6, 1.5], [-60.0, -25.0, 40.0, 60.0]
    values, rems = moment_sums(block_moments(a, 5.0), sigmas, ts)
    logn = np.log(np.arange(1, N + 1, dtype=np.float64))
    for i, sg in enumerate(sigmas):
        absolute = compensated_sum(np.abs(a[1:]) * np.exp(-sg * logn))
        assert np.all(rems[i] > 1e-11 * absolute)
        for j, t in enumerate(ts):
            direct = fsum_complex(a[1:] * np.exp(-complex(sg, t) * logn))
            assert abs(values[i, j] - direct) <= rems[i, j] + 1e-14 * absolute


def test_complex_grid_at_t_zero_agrees_with_the_real_path():
    a = W.catalog("divisor", 10**5).w.copy()
    a[: _HEAD + 1] = 0.0  # blocks only, so every moment shows
    sigmas = [0.6, 2.0, 5.0]
    bm = block_moments(a, 5.0)
    real, real_rems = moment_sums(bm, sigmas)
    grid, grid_rems = moment_sums(bm, sigmas, [0.0])
    assert np.all(np.abs(grid[:, 0] - real) <= 2e-15 * real)  # measured <= 3.6e-16
    assert grid_rems[:, 0] == pytest.approx(real_rems, rel=1e-15)
