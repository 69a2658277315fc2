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
    fsum_complex,
    moment_sums,
)
from dirichletlab.tauberian import mellin_profile


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


def cumsum_reference(a):
    """The chunk-by-chunk loop compensated_cumsum replaced: each chunk's
    cumsum plus fsum of every earlier chunk's fsum total, O(K^2) in all."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    offset_terms = []
    for start in range(0, a.size, 4096):
        stop = min(start + 4096, a.size)
        local = np.cumsum(a[start:stop])
        out[start:stop] = local + math.fsum(offset_terms)
        offset_terms.append(math.fsum(a[start:stop].tolist()))
    return out


def _outcome(f, a):
    """f(a)'s bytes and dtype, or the type of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            r = f(a)
    except (ValueError, OverflowError) as e:  # what math.fsum raises
        return type(e)
    return r.dtype, r.tobytes()


CHUNK_EDGE_LENGTHS = st.one_of(
    st.sampled_from([0, 1, 4095, 4096, 4097]),
    st.builds(lambda k, d: k * 4096 + d, st.integers(1, 5), st.sampled_from([-1, 0, 1])),
)


def _cumsum_data(kind, n, rng):
    """n values of one kind; built at length >= 1 so that n = 0 needs no case."""
    m = max(n, 1)
    if kind == "wide":  # signed, over +-40 decades
        x = rng.standard_normal(m) * 10.0 ** rng.uniform(-40, 40, m)
    elif kind == "integers":
        x = rng.integers(-(2**40), 2**40, m).astype(np.float64)
    elif kind == "powers_of_two":  # every full chunk totals exactly 2^12
        x = np.ones(m)
        d = rng.choice([0.5, 2.0**-20, 3 * 2.0**-30], m // 2)
        x[0 : 2 * d.size : 2] += d
        x[1 : 2 * d.size : 2] -= d
    elif kind == "near_ties":  # totals a few half-ulps from 2^12, both sides
        x = np.ones(m)
        x[rng.integers(0, m, m // 64)] += rng.choice(
            [2.0**-42, -(2.0**-42), 2.0**-43, -(2.0**-44), 3 * 2.0**-44], m // 64)
    elif kind == "sparse_logs":  # Lambda-like, with whole zero chunks and -0.0
        x = np.zeros(m)
        idx = rng.integers(0, m, m // 500)
        x[idx] = np.log(idx + 2.0)
        x[rng.integers(0, m, 2)] = -0.0
    elif kind == "reciprocals":
        x = 1.0 / np.arange(1, m + 1)
    elif kind == "huge":  # near overflow: fsum's OverflowError in a chunk or the offsets
        if rng.random() < 0.5:
            x = rng.choice([1e308, -1e308, 8e307, 1.0], m)
        else:  # chunk totals of +-1.6e308
            x = np.repeat(rng.choice([4e304, -4e304], m // 4096 + 1), 4096)[:m]
    else:  # non-finite: inf, -inf or nan, up to three times
        x = rng.standard_normal(m)
        k = rng.integers(1, 4)
        x[rng.integers(0, m, k)] = rng.choice([np.inf, -np.inf, np.nan], k)
    return x[:n]


@settings(max_examples=150, deadline=None)
@given(n=CHUNK_EDGE_LENGTHS,
       kind=st.sampled_from(["wide", "integers", "powers_of_two", "near_ties", "sparse_logs",
                             "reciprocals", "huge", "nonfinite"]),
       seed=st.integers(0, 2**32 - 1))
def test_cumsum_equals_reference_bit_for_bit(n, kind, seed):
    a = _cumsum_data(kind, n, np.random.default_rng(seed))
    assert _outcome(compensated_cumsum, a) == _outcome(cumsum_reference, a)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_cumsum_chunk_total_with_lost_error_terms(side):
    # s = 4096 absorbs every other entry, so the tree's error sum e starts at
    # t1, just inside the rounding cell of 4096 on one side, and five
    # 0.44-ulp(e) terms are each rounded away; together they carry the exact
    # sum across the cell's edge (2^-41 above 4096, 2^-42 below)
    ulp_e = 2.0**-94 if side > 0 else 2.0**-95
    t1 = side * (2.0**-41 if side > 0 else 2.0**-42) - side * 2 * ulp_e
    row = np.zeros(4096)
    row[0], row[2048] = 4096.0, t1
    row[[1024, 512, 256, 128, 64]] = side * 7 * ulp_e / 16
    a = np.concatenate([row, [0.0]])  # the tail shows the offset bare
    assert math.fsum(row.tolist()) != 4096.0 + t1  # fl(s + e) is not the total
    assert compensated_cumsum(a).tobytes() == cumsum_reference(a).tobytes()


def test_cumsum_last_chunk_total_is_not_summed():
    # two chunks of total 1.6e308: fsum would overflow adding the second
    # total, which no offset needs; a third chunk needs it and does overflow
    a = np.full(8192, 4e304)
    with np.errstate(over="ignore"):  # the second chunk's prefixes overflow
        assert compensated_cumsum(a).tobytes() == cumsum_reference(a).tobytes()
    with pytest.raises(OverflowError):
        compensated_cumsum(np.full(8193, 4e304))


def test_cumsum_equals_reference_on_mangoldt_and_divisor(table_mid):
    # Lambda's chunk totals often sit on a rounding tie of s + e: the fallback
    for name in ("mangoldt", "divisor"):
        w = W.catalog(name, 10**6, table=table_mid).w
        assert compensated_cumsum(w).tobytes() == cumsum_reference(w).tobytes()


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40)
       | st.builds(lambda n, x: [x] * n, st.integers(0, 4096), st.sampled_from([-0.0, 0.0, 1e-300])))
def test_compensated_sum_single_chunk_is_fsum_of_its_total(xs):
    a = np.asarray(xs, dtype=np.float64)
    with np.errstate(all="ignore"):
        expected = math.fsum([float(np.sum(a))])
        got = compensated_sum(a)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)
    assert got == expected or (math.isnan(got) and math.isnan(expected))


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
