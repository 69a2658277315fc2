import itertools
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirichletlab import accum, hspace, weights as W
from dirichletlab.accum import (
    _HEAD,
    block_moments,
    compensated_cumsum,
    compensated_sum,
    exact_sum,
    moment_sums,
)
from dirichletlab.errors import RangeError


def fsum_complex(values) -> complex:
    """The oracle for complex sums: math.fsum of the real parts and of the
    imaginary parts, one Python float at a time."""
    vals = list(values)
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


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
    # hspace.evaluate and hw_inner sum their complex terms through exact_sum
    assert hspace._sum_complex(np.array(zs)) == out


def _sum_outcome(f):
    """f()'s float64 bytes, "nan", or the type of the exception it raises."""
    try:
        r = f()
    except (ValueError, OverflowError) as e:  # what math.fsum raises
        return type(e)
    return "nan" if math.isnan(r) else np.float64(r).tobytes()


# full 53-bit significands from the subnormals (2^-1074) up to 2^1000
SIGNIFICANDS = st.integers(0, 2**53 - 1)
FINITE = st.one_of(
    st.builds(lambda m, k, neg: (-1.0) ** neg * math.ldexp(m, k),
              SIGNIFICANDS, st.integers(-1074, 1000 - 53), st.booleans()),
    st.floats(-(2.0**1000), 2.0**1000, allow_nan=False, allow_infinity=False),
)


@st.composite
def sum_inputs(draw):
    """Values of mixed size and sign, often a list and most of its negatives
    (heavy cancellation), maybe with nan and inf among them, in any order."""
    xs = draw(st.lists(FINITE, max_size=60))
    if draw(st.booleans()):
        xs += [-x for x in xs[: draw(st.integers(0, len(xs)))]] + draw(st.lists(FINITE, max_size=3))
    xs += draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3))
    return draw(st.permutations(xs))


@settings(max_examples=400, deadline=None)
@given(xs=sum_inputs(), data=st.data())
@example(xs=[], data=None)
@example(xs=[-0.0] * 5, data=None)  # fsum gives +0.0 (Python 3.10 to 3.13)
@example(xs=[-0.0, 0.0], data=None)
@example(xs=[math.inf, 1.0, -math.inf], data=None)
@example(xs=[math.nan, math.inf], data=None)
@example(xs=[-math.inf, 2.0**-1074], data=None)
@example(xs=[np.finfo(np.float64).max] * 2, data=None)
@example(xs=[np.finfo(np.float64).max, math.nan, np.finfo(np.float64).max] * 2, data=None)
@example(xs=[2.0**-1074, -(2.0**-1075), 2.0**-1074], data=None)
@example(xs=[1.0, 2.0**-53, 2.0**-105], data=None)  # one past the half-way point
def test_exact_sum_is_fsum_bit_for_bit(xs, data):
    a = np.array(xs, dtype=np.float64)
    cuts = [] if data is None else data.draw(st.lists(st.integers(0, a.size), max_size=4))
    chunks = np.split(a, sorted(cuts))  # empty chunks included
    assert _sum_outcome(lambda: exact_sum(chunks)) == _sum_outcome(lambda: math.fsum(xs))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 4095, accum._PIECE + 3]))
def test_exact_sum_is_fsum_bit_for_bit_on_long_arrays(seed, n):
    # full significands over +-60 binades, many per exponent and piece
    rng = np.random.default_rng(seed)
    a = np.ldexp(rng.integers(-(2**53) + 1, 2**53, n).astype(np.float64), rng.integers(-113, -53, n))
    assert exact_sum((a[: n // 3], a[n // 3 :])) == math.fsum(a.tolist())


def test_exact_sum_lets_each_array_go_before_the_next_is_made():
    refs = []

    def probe():  # holds none of its arrays once resumed
        for k in range(4):
            assert all(r() is None for r in refs), k
            x = np.full(accum._PIECE + 5, 0.1 * (k + 1))
            refs.append(weakref.ref(x))
            yield x
            del x

    got = exact_sum(probe())
    assert len(refs) == 4
    assert got == math.fsum([0.1 * (k + 1) for k in range(4) for _ in range(accum._PIECE + 5)])


def test_exact_sum_rounds_where_fsum_partials_overflow():
    # the one edge where exact_sum is not fsum: fsum's partials meet
    # M + 2^970, a tie that rounds past the float64 range, while the exact
    # sum of [M, -2^-1074, 2^970] rounds to M
    M = np.finfo(np.float64).max
    xs = [M, -(2.0**-1074), 2.0**970]
    with pytest.raises(OverflowError):
        math.fsum(xs)
    assert exact_sum((np.array(xs),)) == M


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


def test_cumsum_restarts_its_offsets_after_a_nonfinite_total():
    # fsum drops its finite partials at a nan or inf total, yet still raises
    # OverflowError on the finite totals after it: every order of near-overflow
    # chunks (totals +-1.6e308), special chunks and plain ones
    special = [np.ones(4096) for _ in range(3)]
    for x, v in zip(special, [np.inf, -np.inf, np.nan]):
        x[100] = v
    kinds = [np.full(4096, 4e304), np.full(4096, -4e304), *special, np.ones(4096)]
    for order in itertools.product(kinds, repeat=4):
        a = np.concatenate([*order, np.ones(5)])
        assert _outcome(compensated_cumsum, a) == _outcome(cumsum_reference, a)


def test_cumsum_offset_is_the_exact_sum_where_fsum_overflows_in_between():
    # fsum([M, -2^-1074, 2^970]) raises: its partials meet M + 2^970, a tie
    # that rounds past the float64 range, while the exact sum rounds to M
    M = np.finfo(np.float64).max
    a = np.zeros(3 * 4096 + 1)
    a[0], a[4096], a[8192] = M, -(2.0**-1074), 2.0**970
    with np.errstate(over="ignore"):  # the third chunk's prefixes overflow
        with pytest.raises(OverflowError):
            cumsum_reference(a)
        assert compensated_cumsum(a)[-1] == M


def test_cumsum_equals_reference_on_mangoldt_and_divisor():
    # Lambda's chunk totals often sit on a rounding tie of s + e: the fallback
    for name in ("mangoldt", "divisor"):
        w = W.catalog(name, 10**6).w
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


def _totals_rows(kind, rng):
    """Two (2, 4096) rows of one kind for _certified_totals; the tie rows
    sum exactly to the midpoint between two neighbouring doubles."""
    n = 4096
    rows = np.empty((2, n))
    for row in rows:
        if kind == "cancel":  # +-v pairs, shuffled: the sum is 0, or a tiny rest
            v = rng.standard_normal(n // 2) * 10.0 ** rng.integers(-30, 30, n // 2)
            row[:] = np.concatenate([v, -v])
            row[0] += rng.choice([0.0, 2.0**-1074, 1e-300, -3e-20, np.max(v) / 3])
        elif kind == "subnormal":
            row[:] = rng.integers(-(2**52), 2**52, n).astype(np.float64) * 2.0**-1074
            row[: n // 2] *= rng.choice([1.0, 2.0**60], n // 2)
        elif kind == "huge":  # next to the ends of [2^-900, 2^1000) and past them
            e = rng.choice([999, 1000, 1001, -899, -900, -901, -1000])
            row[:] = np.ldexp(rng.uniform(-1.0, 1.0, n), e) / 4096
        elif kind == "nonfinite":
            row[:] = rng.standard_normal(n)
            k = rng.integers(1, 4)
            row[rng.integers(0, n, k)] = rng.choice([np.inf, -np.inf, np.nan], k)
        elif kind == "negzero":
            row[:] = -0.0
        else:  # "tie": a + spacing(a) / 2 cut into parts, among cancelling pairs
            a = rng.standard_normal() * 2.0 ** rng.integers(-60, 60)
            half = np.spacing(abs(a)) / 2.0 * np.sign(a)
            v = rng.standard_normal(n // 2 - 2) * abs(a) * 2.0 ** rng.integers(-40, 3)
            row[:] = np.concatenate([[a, half / 2, half / 4, half / 4], v, -v])
        rng.shuffle(row)
    return rows


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["cancel", "subnormal", "huge", "nonfinite", "negzero", "tie"]),
       seed=st.integers(0, 2**32 - 1))
def test_certified_totals_are_fsum_bit_for_bit(kind, seed):
    rows = _totals_rows(kind, np.random.default_rng(seed))
    totals, ok = accum._certified_totals(rows, np.empty((2, accum._ROWS, 4096)))
    for row, total, certified in zip(rows, totals.tolist(), ok.tolist()):
        if kind == "tie":  # the exact sum is a tie: no certificate may round it
            assert not certified
        if certified:
            assert total.hex() == math.fsum(row.tolist()).hex()


def chunked_fsum_reference(a) -> float:
    """The whole-array compensated_sum: fsum of the np.sum of each 4096-slice."""
    return math.fsum(float(np.sum(a[i : i + 4096])) for i in range(0, a.size, 4096))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9000), max_size=6), st.integers(0, 2**32 - 1))
@example([4095, 1, 4097, 0, 8191], 0)
@example([4096, 4096], 1)
@example([], 2)
def test_compensated_sum_is_fsum_of_its_4096_slices(sizes, seed):
    # pieces of any lengths, joined: the chunks are cut from the whole array
    rng = np.random.default_rng(seed)
    pieces = [rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k) for k in sizes]
    whole = np.concatenate(pieces) if pieces else np.empty(0)
    assert compensated_sum(whole).hex() == chunked_fsum_reference(whole).hex()


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
def test_engine_matches_direct_sum_on_catalog(name):
    w = W.catalog(name, 10**5, **CATALOG_PARAMS.get(name, {}))
    sigmas = np.append(w.sigma0 + np.geomspace(0.02, 1.5, 48), 40.0)
    for N in (_HEAD - 1, _HEAD, _HEAD + 1, 10**5):
        got, rem = moment_sums(block_moments(w.w[: N + 1], 40.0), sigmas)
        direct = direct_sums(w.w[: N + 1], sigmas)
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
    values, rems = moment_sums(block_moments(a, s), [s])
    direct = direct_sums(a, [s])[0]
    assert abs(values[0] - direct) <= rems[0] + 1e-13 * direct


@pytest.mark.parametrize("N", [_HEAD + 1, 10**5])
def test_engine_constant_weight_is_zeta_minus_hurwitz(N):
    sigmas = np.append(1.0 + np.geomspace(0.02, 1.5, 48), 40.0)
    values, _ = moment_sums(block_moments(W.catalog("constant", N).w, 40.0), sigmas)
    with mpmath.workdps(40):
        exact = [float(mpmath.zeta(s) - mpmath.zeta(s, N + 1)) for s in sigmas]
    assert np.all(np.abs(values - exact) <= 1e-13 * np.array(exact))


def test_engine_keeps_input_order_and_small_n():
    a = np.array([0.0, 2.0, 3.0])
    values, rems = moment_sums(block_moments(a, 3.0), [3.0, 1.0])
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


def test_the_real_head_is_one_table_formed_in_place():
    # 48 real sigmas: the head's sigma x 4096 table is formed in place, with
    # the bits of bm.head * exp(-outer(sigma, log n)), whose temporaries
    # peak at 2.11 tables
    sigmas = np.linspace(0.6, 3.3, 48)
    a = np.random.default_rng(11).random(_HEAD + 1)  # no blocks: the values are the head's
    bm = block_moments(a, 3.3)
    n = np.arange(1, _HEAD + 1, dtype=np.float64)
    want = (bm.head * np.exp(-np.outer(sigmas, np.log(n)))).sum(axis=1)
    assert moment_sums(bm, sigmas)[0].tobytes() == want.tobytes()
    bm = block_moments(W.catalog("constant", 10**6).w, 3.3)
    moment_sums(bm, sigmas)
    tracemalloc.start()
    try:
        moment_sums(bm, sigmas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * sigmas.size * _HEAD * 8  # measured 1.09 tables


def test_complex_grid_at_t_zero_agrees_with_the_real_path():
    a = W.catalog("divisor", 10**5).w.copy()
    a[: _HEAD + 1] = 0.0  # blocks only, so every moment shows
    sigmas = [0.6, 2.0, 5.0]
    bm = block_moments(a, 5.0)
    real, real_rems = moment_sums(bm, sigmas)
    grid, grid_rems = moment_sums(bm, sigmas, [0.0])
    assert np.all(np.abs(grid[:, 0] - real) <= 2e-15 * real)  # measured <= 3.6e-16
    assert grid_rems[:, 0] == pytest.approx(real_rems, rel=1e-15)


def complex_moment_sums_reference(bm, sigmas, ts):
    """moment_sums' complex values as every call built them before the phase
    table was cached: e^(-it log n) formed afresh for the nonzero head."""
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    t = np.asarray(ts, dtype=np.float64).ravel()
    logc = np.log(bm.centre)
    real_scale = np.exp(-np.outer(sig, logc))
    s = sig[:, None] + 1j * t[None, :]
    nz = np.flatnonzero(bm.head)
    neg_logn = -np.log(nz + 1.0)
    amp = np.zeros((sig.size, nz.size), dtype=np.complex128)
    np.exp(np.outer(sig, neg_logn, out=amp.real), out=amp.real)
    amp *= bm.head[nz]
    phase = np.outer(neg_logn, t) * 1j
    head = amp @ np.exp(phase, out=phase)
    binom = np.empty(s.shape + (accum._MOMENTS + 1,), dtype=s.dtype)
    binom[..., 0] = 1.0
    for m in range(accum._MOMENTS):
        binom[..., m + 1] = binom[..., m] * (-s - m) / (m + 1)
    q = (real_scale[:, None, :] * bm.mom.T) @ np.exp(-1j * np.outer(logc, t))
    return head + np.einsum("ijm,imj->ij", binom[..., : accum._MOMENTS], q)


def _head_cases(N, rng):
    a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
    a[0] = 0.0
    past_one = a.copy()
    past_one[:2] = 0.0  # a derivative's head: n >= 2, a slice of the table
    gaps = a.copy()
    gaps[rng.integers(1, _HEAD + 1, 500)] = 0.0  # rows picked from the table
    gaps[_HEAD] = 0.0
    empty = a.copy()
    empty[: _HEAD + 1] = 0.0  # blocks only: no rows
    return {"full": a, "past_one": past_one, "gaps": gaps, "empty": empty}


def test_cached_phase_table_is_bit_identical():
    rng = np.random.default_rng(5)
    heads = _head_cases(2 * _HEAD + 7, rng)
    bms = {k: block_moments(a, abs(complex(1.0, 9.0))) for k, a in heads.items()}
    grids = [(0.5 + 2.0 ** -np.arange(1, 6), np.linspace(-1.0, 1.0, 32)),
             ([0.75, 1.0], np.linspace(2.0, 9.0, 16))]
    accum._phase_table.cache_clear()
    for _ in range(2):  # the two t grids interleaved, each used again from the cache
        for sigmas, ts in grids:
            for name, bm in bms.items():
                values, _ = moment_sums(bm, sigmas, ts)
                ref = complex_moment_sums_reference(bm, sigmas, ts)
                assert values.tobytes() == ref.tobytes(), name
                assert accum._phase_table.cache_info().currsize <= 2
    info = accum._phase_table.cache_info()
    assert info.maxsize == 2 and info.misses == 2
    table = accum._phase_table(np.asarray(grids[0][1], dtype=np.float64).tobytes())
    assert table.shape == (_HEAD, 32) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    accum._phase_table(np.zeros(3).tobytes())  # a third grid evicts one
    assert accum._phase_table.cache_info().currsize == 2


def block_moments_reference(a, s_max):
    """The whole-array per-block loop that block_moments ran before the scan."""
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    N = a.size - 1
    width = accum._block_width(float(s_max))
    edges = [_HEAD]
    while edges[-1] < N:
        edges.append(min(N, max(edges[-1] + 1, int(edges[-1] * (1.0 + width)))))
    K = len(edges) - 1
    centre, xmax, mass = np.empty(K), np.empty(K), np.empty(K)
    mom = np.empty((K, 10), dtype=a.dtype)
    with np.errstate(invalid="ignore"):
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            half = 0.5 * (hi - lo - 1)
            centre[k] = lo + 1 + half
            xmax[k] = half / centre[k]
            x = (np.arange(hi - lo) - half) / centre[k]
            p = a[lo + 1 : hi + 1].copy()
            mass[k] = np.abs(p).sum()
            for m in range(10):
                mom[k, m] = p.sum()
                if m + 1 < 10:
                    p *= x
    mom[~np.isfinite(mom[:, 0]), 1:] = 0.0
    return accum.BlockMoments(a[1 : min(N, _HEAD) + 1], centre, xmax, mass, mom)


def _segments(a, size):
    return [a[i : i + size] for i in range(0, a.size, size)]


# integer segments: bool, uint16 and int32 take scan's exact integer chunk
# totals; int64 past 2^53, which rounds when read as float64, the float path
INTEGER_KINDS = ["bool", "uint16", "int32", "int64_past_2^53"]


def _integer_data(kind, n, rng):
    m = max(n, 1)
    if kind == "bool":
        x = rng.random(m) < 0.3
    elif kind == "uint16":
        x = rng.integers(0, 2**16, m, dtype=np.uint16)
        x[rng.integers(0, m, 8)] = 2**16 - 1
    elif kind == "int32":  # signed, with +-(2^31 - 1) sprinkled in
        x = rng.integers(-(2**31 - 1), 2**31, m, dtype=np.int32)
        x[rng.integers(0, m, 16)] = rng.choice([2**31 - 1, -(2**31 - 1)], 16)
    else:  # odd int64 past 2^53: an int64 row sum would not round like the float one
        x = (rng.integers(2**52, 2**61, m) * 2 + 1) * rng.choice([-1, 1], m)
    return x[:n]


def _scan_data(kind, n, rng):
    if kind in INTEGER_KINDS:
        return _integer_data(kind, n, rng)
    if kind == "complex":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "kadec_spiked":  # e^n spikes: inf from n = 710 on
        return W.catalog("kadec_spiked", n - 1, blocks=5).w.copy()
    if kind == "nonfinite":
        x = rng.standard_normal(n)
        x[rng.integers(0, n, 3)] = rng.choice([np.inf, -np.inf, np.nan], 3)
        return x
    return 10.0 ** rng.uniform(-6.0, 6.0, n) * rng.choice([-1.0, 1.0, 1.0, 1.0], n)


# the cuts scan accepts: whole chunks per segment, edges inside moment blocks;
# at n = 3e5 and 4096 entries a segment, a moment block spans three segments
SEGMENT_SIZES = [4096, 2 * 4096, 3 * 4096, 4 * 4096, 5 * 4096]


@pytest.mark.parametrize("segment", SEGMENT_SIZES)
@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([4095, 4096, 4097, 4098, 10**5 + 1, 3 * 10**5 + 3]),
       kind=st.sampled_from(["real", "complex", "kadec_spiked", "nonfinite", *INTEGER_KINDS]),
       s_max=st.sampled_from([3.3, 12.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=3 * 10**5 + 3, kind="real", s_max=3.3, seed=0)
@example(n=10**5 + 1, kind="bool", s_max=3.3, seed=1)
@example(n=10**5 + 1, kind="uint16", s_max=12.0, seed=2)
@example(n=10**5 + 1, kind="int32", s_max=3.3, seed=3)
@example(n=10**5 + 1, kind="int64_past_2^53", s_max=3.3, seed=4)
def test_scan_equals_whole_array_bit_for_bit(segment, n, kind, s_max, seed):
    a = _scan_data(kind, n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    xs = np.concatenate([[0, n - 1, 4095 % n, 4096 % n], rng.integers(0, n, 20)])
    ref = block_moments_reference(a, s_max)
    prefix = None if kind == "complex" else _outcome(cumsum_reference, a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accum, "_SEGMENT", segment)
        with np.errstate(all="ignore"):
            whole = block_moments(a, s_max)
            try:
                got = accum.scan(_segments(a, segment), n, s_max,
                                 checkpoints=None if kind == "complex" else xs)
            except (ValueError, OverflowError) as e:  # where math.fsum raises
                assert prefix == type(e)
                got = accum.scan(_segments(a, segment), n, s_max)
                prefix = None
    for bm in (got.moments, whole):
        for field, want in zip(bm, ref):
            assert field.dtype == want.dtype
            assert field.tobytes() == np.ascontiguousarray(want).tobytes()
    if prefix is not None:
        S = np.frombuffer(prefix[1])
        assert got.sums.tobytes() == S[xs].tobytes()


@pytest.mark.parametrize("segment", SEGMENT_SIZES)
@settings(max_examples=20, deadline=None)
@given(n=CHUNK_EDGE_LENGTHS,
       kind=st.sampled_from(["wide", "near_ties", "sparse_logs", "huge", "nonfinite",
                             *INTEGER_KINDS]),
       seed=st.integers(0, 2**32 - 1))
@example(n=3 * 4096 + 1, kind="bool", seed=0)
@example(n=3 * 4096 - 1, kind="uint16", seed=1)
@example(n=5 * 4096, kind="int32", seed=2)
@example(n=4097, kind="int64_past_2^53", seed=3)
def test_cumsum_in_segments_equals_reference(segment, n, kind, seed):
    rng = np.random.default_rng(seed)
    a = _integer_data(kind, n, rng) if kind in INTEGER_KINDS else _cumsum_data(kind, n, rng)

    def scanned(a):  # the segments as they are: integers are not converted first
        out = np.empty(a.size)
        accum.scan(_segments(a, segment), a.size, out=out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accum, "_SEGMENT", segment)
        want = _outcome(cumsum_reference, a)
        assert _outcome(compensated_cumsum, a) == want
        assert _outcome(scanned, a) == want


def test_scan_refuses_short_segments_and_far_checkpoints():
    a = np.ones(10)
    with pytest.raises(RangeError):
        accum.scan([a[:4]], 10, checkpoints=[3])
    with pytest.raises(RangeError):
        accum.scan([a], 10, checkpoints=[10])
    assert accum.scan([a], 10, checkpoints=[9, 0, 2]).sums.tolist() == [10.0, 1.0, 3.0]


def test_scan_refuses_cuts_other_than_segment_edges(monkeypatch):
    a = np.arange(20_000, dtype=np.float64)
    monkeypatch.setattr(accum, "_SEGMENT", 2 * 4096)
    want = compensated_cumsum(a)
    got = accum.scan(_segments(a, 2 * 4096), a.size, 3.3, checkpoints=[0, 8191, 8192, 19_999])
    assert got.sums.tobytes() == want[[0, 8191, 8192, 19_999]].tobytes()
    cuts = [_segments(a, 4096),  # finer than segment_edges
            [a],  # coarser
            _segments(a, 2 * 4096)[:-1],  # short of the end
            _segments(a, 2 * 4096) + [a[:0]]]  # past it
    # scan and join_segments walk the segments through with_offsets: each refuses
    walks = (lambda cut: accum.scan(cut, a.size, s_max=3.3),
             lambda cut: accum.scan(cut, a.size, checkpoints=[0]),
             lambda cut: list(accum.with_offsets(cut, a.size)),
             lambda cut: accum.join_segments(cut, a.size))
    for cut in cuts:
        for walk in walks:
            with pytest.raises(RangeError):
                walk(cut)
    for segment in (4095, 5000, 3 * 4096 + 1):  # a segment edge inside a chunk
        monkeypatch.setattr(accum, "_SEGMENT", segment)
        for f in (compensated_cumsum, lambda a: block_moments(a, 3.3)):
            with pytest.raises(RangeError):
                f(a)
        with pytest.raises(RangeError):
            accum.scan(_segments(a, segment), a.size, 3.3)


@pytest.mark.parametrize("dtype", [np.float64, np.uint16, np.complex128])
def test_scan_keeps_no_segment_while_the_next_is_made(dtype, monkeypatch):
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    n = 5 * 4096 + 7
    a = np.arange(n).astype(dtype)
    refs = []

    def probe():  # hands out copies, and holds none of them once resumed
        for lo, hi in accum.segment_edges(n):
            assert all(r() is None for r in refs), lo
            seg = a[lo:hi].copy()
            refs.append(weakref.ref(seg))
            yield seg
            del seg

    xs = None if dtype == np.complex128 else [0, 4095, 4096, n - 1]
    out = None if xs is None else np.empty(n)
    got = accum.scan(probe(), n, 3.3, checkpoints=xs, out=out)
    assert len(refs) == 6
    for field, want in zip(got.moments, block_moments(a, 3.3)):
        assert field.tobytes() == want.tobytes()
    if xs is not None:
        assert out.tobytes() == compensated_cumsum(a).tobytes()
        assert got.sums.tobytes() == out[xs].tobytes()


def tree_sum(a, leaf):
    """np.sum of a float64 array as the moment pass replays it: np.sum over
    each of accum._leaves, added up by accum._fold.  The leaf sums are arrays,
    as the moment pass's rows are: numpy's array add keeps the left nan of
    two, as np.sum does, where its scalar add keeps the right one."""
    edges = [0, *itertools.accumulate(accum._leaves(a.size, leaf))]
    sums = (np.sum(a[i:j], keepdims=True) for i, j in zip(edges, edges[1:]))
    return accum._fold(a.size, sums, leaf)[0]


def _replay_data(n, kind, specials, rng):
    if kind == "zeros":  # signed zeros only: the sum's sign of zero
        a = rng.choice([0.0, -0.0], n)
    else:
        a = np.exp(rng.uniform(-30.0, 30.0, n)) * rng.choice([-1.0, 1.0], n)
    a[rng.integers(0, n, len(specials))] = specials
    return a


def test_tree_replay_equals_np_sum_at_the_split_lengths():
    # numpy's pairwise sum splits past 128 entries at n // 2 rounded down to
    # a multiple of 8, and keeps the left or the right nan of two by depth;
    # if a numpy release changes that tree, this fails
    L = accum._LEAF
    rng = np.random.default_rng(5)
    for n in [1, 7, 8, 127, 128, 129, 136, L - 8, L, L + 8, 2 * L - 8, 2 * L, 2 * L + 8]:
        for leaf in (272, L):
            for kind, specials in (("wide", []), ("wide", [np.nan, np.inf, -np.inf]), ("zeros", [])):
                a = _replay_data(n, kind, specials, rng)
                with np.errstate(invalid="ignore"):  # inf - inf
                    assert tree_sum(a, leaf).tobytes() == np.sum(a).tobytes(), (n, leaf, kind)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3 * accum._LEAF + 17),
       leaf=st.sampled_from([272, 280, 1000, 4096, accum._LEAF]),
       kind=st.sampled_from(["wide", "zeros"]),
       specials=st.lists(st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]),
                         max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_tree_replay_equals_np_sum(n, leaf, kind, specials, seed):
    a = _replay_data(n, kind, specials, np.random.default_rng(seed))
    with np.errstate(invalid="ignore"):  # inf - inf
        assert tree_sum(a, leaf).tobytes() == np.sum(a).tobytes()


@pytest.mark.parametrize("leaf", [272, accum._LEAF])
@pytest.mark.parametrize("segment", [4096, accum._SEGMENT, 4 * accum._SEGMENT])  # 4: a sieve window
@pytest.mark.parametrize("kind", ["real", "nonfinite", "uint16", "bool", "complex"])
def test_moment_pass_equals_the_whole_block_loop(kind, segment, leaf, monkeypatch):
    # the last block spans segments of 4096 entries: at n = 2^21 + 3 it has
    # ~63 000 entries, two leaves of the default size; at n = 3e5 + 3, ~9 000
    # entries, 64 leaves of at most 272, the smallest leaf
    n = 2**21 + 3 if leaf > 272 else 3 * 10**5 + 3
    a = _scan_data(kind, n, np.random.default_rng(7))
    monkeypatch.setattr(accum, "_SEGMENT", segment)
    monkeypatch.setattr(accum, "_LEAF", leaf)
    for s_max in (3.3, 40.0):  # past |s| = 5 the blocks narrow
        want = block_moments_reference(a, s_max)
        got = accum.scan(_segments(a, segment), n, s_max).moments
        for field, ref in zip(got, want):
            assert field.dtype == ref.dtype
            assert field.tobytes() == np.ascontiguousarray(ref).tobytes(), s_max


def test_join_segments_hands_back_a_lone_segment():
    # a one-segment table is its segment: joining it must not double the memory
    seg = np.arange(10, dtype=np.float64)
    assert accum.join_segments([seg], 10) is seg
    ints = np.arange(10, dtype=np.uint16)  # another dtype is converted into a new array
    joined = accum.join_segments([ints], 10)
    assert joined.dtype == np.float64 and np.array_equal(joined, ints)
    # segments short of the size, and a cut other than segment_edges
    for cut, size in (([seg[:4]], 10), ([seg], 11), ([seg[:4], seg[4:]], 10)):
        with pytest.raises(RangeError):
            accum.join_segments(cut, size)
