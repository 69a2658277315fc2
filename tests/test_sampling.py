import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichletlab import accum
from dirichletlab import sampling as S
from dirichletlab import weights as W
from dirichletlab.errors import RangeError
from dirichletlab.sampling import (
    AtomicMeasure,
    beurling_lower_density,
    carleson_check,
    continuity_at_infinity,
    kadec_atoms,
    lambda_set,
    measure_from_weights,
)


def window_mass(m, a, b):
    """Mass of the half-open window [a, b): the cumulative-sum difference
    that carleson_check, lambda_set and continuity_at_infinity read."""
    lo, hi = np.searchsorted(m.positions, [a, b], side="left")
    return float(m.cum[hi] - m.cum[lo])


@pytest.fixture(scope="module")
def unit_measure():
    return measure_from_weights(W.catalog("constant", 10**5))


def test_atoms_from_constant_weights():
    m = measure_from_weights(W.catalog("constant", 3))
    assert np.allclose(m.positions, [0.0, math.log(2), math.log(3)])
    assert np.allclose(m.masses, [1.0, 0.5, 1.0 / 3.0])
    assert m.domain_bound == math.log(3)


def test_atoms_from_prime_indicator():
    m = measure_from_weights(W.catalog("prime_indicator", 100))
    primes = [2, 3, 5, 7, 11, 13]
    assert np.allclose(m.positions[:6], np.log(primes))
    assert np.allclose(m.masses[:6], [1.0 / p for p in primes])


def test_kadec_weights_give_unit_atoms():
    m = measure_from_weights(W.catalog("kadec", 4000, blocks=8))
    assert np.all(m.masses == 1.0)
    assert m.positions.size == 8


def test_symmetric_measure_mirrors_and_merges_origin():
    m = measure_from_weights(W.catalog("constant", 50), symmetric=True)
    plain = measure_from_weights(W.catalog("constant", 50))
    assert m.domain_low == -m.domain_bound
    assert np.all(np.diff(m.positions) > 0)
    assert m.total_mass == pytest.approx(2.0 * plain.total_mass, rel=1e-14)
    # origin atom carries 2 w_1, the mirror pair collapsed into one
    i = int(np.searchsorted(m.positions, 0.0))
    assert m.positions[i] == 0.0 and m.masses[i] == 2.0
    j = int(np.searchsorted(m.positions, -math.log(3)))
    assert m.positions[j] == -math.log(3)
    assert m.masses[j] == pytest.approx(1.0 / 3.0)


def whole_array_measure(w, symmetric):
    """(positions, masses) from the whole weight array: the construction the
    passes over w's segments replaced."""
    ww = W.catalog(w.name, w.limit, **w.params).w
    idx = np.flatnonzero(ww)
    n = idx.size
    merge = int(symmetric and n > 0 and idx[0] == 1)
    size = 2 * n - merge if symmetric else n
    pos, mas = np.empty(size), np.empty(size)
    pos[size - n:] = np.log(idx.astype(np.float64))
    mas[size - n:] = ww[idx] / idx
    if symmetric:
        pos[:size - n] = -pos[size - n + merge:][::-1]
        mas[:size - n] = mas[size - n + merge:][::-1]
        mas[size - n] *= 2.0 if merge else 1.0
    return pos, mas


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("name, params, N", [
    ("constant", {}, 3 * 4096 + 5), ("divisor", {}, 10**4), ("mangoldt", {}, 10**4),
    ("prime_indicator", {}, 4 * 4096), ("kadec", {"blocks": 8}, 4000)])
def test_measure_from_segments_equals_the_whole_array_construction(name, params, N, symmetric,
                                                                   monkeypatch):
    # 4096-entry segments read in pieces of 1000, so pieces end mid-segment
    # and segments mid-piece; mangoldt, prime_indicator and kadec have w_1 = 0
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    monkeypatch.setattr(S, "_SCAN", 1000)
    w = W.catalog(name, N, **params)
    m = measure_from_weights(w, symmetric=symmetric)
    assert w._w is None
    pos, mas = whole_array_measure(w, symmetric)
    assert m.positions.tobytes() == pos.tobytes()
    assert m.masses.tobytes() == mas.tobytes()


def test_measure_validation():
    with pytest.raises(RangeError):
        AtomicMeasure(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 2.0)
    with pytest.raises(RangeError):
        AtomicMeasure(np.array([1.0]), np.array([0.0]), 2.0)
    with pytest.raises(RangeError):
        AtomicMeasure(np.array([3.0]), np.array([1.0]), 2.0)
    # nan compares false against every bound, so each must be refused outright
    with pytest.raises(RangeError):
        AtomicMeasure(np.array([0.0, math.nan, 2.0]), np.ones(3), domain_bound=10.0)
    for pos in ([math.inf], [-math.inf, 1.0]):
        with pytest.raises(RangeError):
            AtomicMeasure(np.array(pos), np.ones(len(pos)), domain_bound=10.0)
    for low, bound in ((0.0, math.nan), (math.nan, 10.0), (0.0, math.inf),
                       (-math.inf, 10.0), (5.0, 4.0)):
        with pytest.raises(RangeError):
            AtomicMeasure(np.empty(0), np.empty(0), domain_bound=bound, domain_low=low)


def test_interval_mass_empty_and_basic():
    m = measure_from_weights(W.catalog("constant", 10))
    assert window_mass(m, 1.0, 1.0) == 0.0
    assert window_mass(m, math.log(2), math.log(4)) == pytest.approx(
        5.0 / 6.0, rel=1e-15
    )


def test_interval_mass_unit_log_window(unit_measure):
    # sum of 1/n over n in [e^5, e^6) is about 1
    v = window_mass(unit_measure, 5.0, 6.0)
    assert v == pytest.approx(0.999590, abs=1e-6)  # frozen direct sum
    assert 0.9 <= v <= 1.1


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(0.0, 9.2), st.floats(0.0, 9.2), st.floats(0.0, 9.2)))
def test_interval_additivity(abc):
    # half-open windows partition the atoms exactly; the float sums agree
    # to an ulp (cumulative differencing rounds once per term)
    m = test_interval_additivity.m
    a, b, c = sorted(abc)
    lhs = window_mass(m, a, c)
    rhs = window_mass(m, a, b) + window_mass(m, b, c)
    assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-14)
    count = lambda x, y: int(
        np.searchsorted(m.positions, y) - np.searchsorted(m.positions, x)
    )
    assert count(a, c) == count(a, b) + count(b, c)


test_interval_additivity.m = measure_from_weights(W.catalog("constant", 10**4))


def test_carleson_constant_weights(unit_measure):
    rep = carleson_check(unit_measure, 0.0)
    assert rep.c_hat == 1.5  # window [0,1) holds masses 1 and 1/2
    assert rep.worst_xi == 0.0
    assert 0.9 <= rep.c_hat <= 1.6


def test_carleson_zero_measure():
    m = AtomicMeasure(np.empty(0), np.empty(0), 5.0)
    assert carleson_check(m, 0.0).c_hat == 0.0


def test_carleson_spiked_weights_blow_up():
    # masses e^{n_k}/n_k: no Carleson bound survives a longer horizon
    c = {}
    for limit, blocks in ((50, 3), (200, 5)):
        m = measure_from_weights(W.catalog("kadec_spiked", limit, blocks=blocks))
        c[limit] = carleson_check(m, 0.0).c_hat
    assert c[200] > 10.0 * c[50]  # measured 2.3e19 -> 7.8e83


def test_lambda_set_constant_contains_integers(unit_measure):
    lam = lambda_set(unit_measure, 0.0, 1.0, 0.5)
    got = set(lam.tolist())
    assert set(float(k) for k in range(1, 11)) <= got


def test_lambda_set_total_mass_threshold(unit_measure):
    lam = lambda_set(unit_measure, 0.0, 1.0, unit_measure.total_mass + 1.0)
    assert lam.size == 0
    with pytest.raises(RangeError):
        lambda_set(unit_measure, 0.0, -1.0, 0.5)
    with pytest.raises(RangeError):
        lambda_set(unit_measure, 0.0, 1.0, 0.0)


def test_lambda_set_kadec_selects_occupied_blocks():
    # an atom at k - 0.1 lands in window [k-1, k), so the qualifying k are
    # exactly the windows holding an atom -- not literally one per block
    m = kadec_atoms(20)
    lam = lambda_set(m, 0.0, 1.0, 0.5)
    ks = np.arange(0, 20)
    cnt = np.searchsorted(m.positions, ks + 1.0) - np.searchsorted(m.positions, ks)
    assert np.array_equal(lam, ks[cnt >= 1].astype(np.float64))
    assert np.array_equal(
        lam, [1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 14, 16, 17, 19]
    )  # frozen
    # centered at the integers the one-atom-per-block picture is exact
    for k in range(1, 20):
        assert window_mass(m, k - 0.5, k + 0.5) == 1.0


def test_beurling_integers():
    pts = np.arange(0, 1001, dtype=np.float64)
    rep = beurling_lower_density(pts, [50.0, 100.0], window=(0.0, 1000.0))
    assert rep.window_lengths == (50.0, 100.0)
    for r, v in zip(rep.window_lengths, rep.inf_counts):
        assert abs(v - 1.0) <= 1.0 / r + 1e-12
    assert rep.extrapolated == rep.inf_counts[-1]


def test_beurling_even_integers():
    pts = np.arange(0, 1001, 2, dtype=np.float64)
    rep = beurling_lower_density(pts, [100.0], window=(0.0, 1000.0))
    assert abs(rep.inf_counts[0] - 0.5) <= 2.0 / 100.0


def test_beurling_kadec_perturbed_integers():
    pts = kadec_atoms(1000).positions
    rep = beurling_lower_density(pts, [100.0], window=(0.0, 1000.0))
    assert rep.extrapolated >= 0.98  # measured 0.9900


def test_beurling_shift_invariance():
    rng = np.random.default_rng(11)
    pts = np.sort(rng.uniform(0.0, 500.0, 400))
    rs = [25.0, 50.0]
    base = beurling_lower_density(pts, rs, window=(0.0, 500.0))
    shifted = beurling_lower_density(pts + 31.7, rs, window=(31.7, 531.7))
    for r, a, b in zip(rs, base.inf_counts, shifted.inf_counts):
        assert abs(a - b) <= 2.0 / r


def test_beurling_scaling():
    rng = np.random.default_rng(12)
    pts = np.sort(rng.uniform(0.0, 500.0, 400))
    c = 3.0
    base = beurling_lower_density(pts, [50.0], window=(0.0, 500.0))
    scaled = beurling_lower_density(c * pts, [50.0 * c], window=(0.0, 500.0 * c))
    assert abs(scaled.inf_counts[0] - base.inf_counts[0] / c) <= 2.0 / 50.0


def test_beurling_window_checks():
    pts = np.arange(0, 101, dtype=np.float64)
    with pytest.raises(RangeError):
        beurling_lower_density(pts, [30.0], window=(0.0, 100.0))  # r > T/5
    with pytest.raises(RangeError):
        beurling_lower_density([], [1.0], window=(0.0, 100.0))


def test_continuity_constant_weights(unit_measure):
    res = continuity_at_infinity(unit_measure, 0.0, 0.1)
    assert res.passed
    assert res.block <= 1.0 / 8.0  # mass per length-h block is about h
    assert res.block == 0.0625  # frozen
    assert res.radius == pytest.approx(3.0069389791664403, rel=1e-12)  # frozen
    assert res.blocking_x is None


def test_continuity_kadec_fails_on_unit_atoms():
    res = continuity_at_infinity(kadec_atoms(50), 0.0, 0.5)
    assert not res.passed
    assert res.radius == math.inf
    assert res.blocking_x == 50.0  # the unit atom nearest the horizon
    assert res.block == 2.0**-12


def test_continuity_zero_measure():
    m = AtomicMeasure(np.empty(0), np.empty(0), 5.0)
    res = continuity_at_infinity(m, 0.0, 0.1)
    assert res == (True, 0.0, 1.0, None)


def test_continuity_eps_check(unit_measure):
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(RangeError):
            continuity_at_infinity(unit_measure, 0.0, eps)


def test_window_lengths_and_thresholds_must_be_finite_and_positive(unit_measure):
    for r, delta in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, 0.0)):
        with pytest.raises(RangeError):
            lambda_set(unit_measure, 0.0, r, delta)
    for r_list in ([math.nan], [0.0], [1.0, -2.0], [math.inf]):
        with pytest.raises(RangeError):
            beurling_lower_density(np.arange(100.0), r_list, window=(0.0, 99.0))


def test_continuity_stops_at_the_farthest_bad_anchor(unit_measure, monkeypatch):
    # every h but the last fails near the horizon and the last passes near
    # the origin: two chunks per failing h and one pass for the passing one,
    # where a full scan per h would examine 2 x 5 x the atom count
    seen = []
    bad_anchors = S._bad_anchors

    def counting(m, x, *args):
        seen.append(x.size)
        return bad_anchors(m, x, *args)

    monkeypatch.setattr(S, "_bad_anchors", counting)
    res = continuity_at_infinity(unit_measure, 0.0, 0.1)
    assert res.block == 0.0625  # five window lengths tried
    assert sum(seen) < 3 * unit_measure.positions.size


def continuity_reference(m, beta, eps):
    """The scan continuity_at_infinity replaced: per h, the sorted union of
    the atoms and the atoms - h, two binary searches over it."""
    h = 1.0
    blocking = None
    while h >= 2.0**-12:
        anchors = np.unique(np.concatenate([m.positions, m.positions - h]))
        anchors = anchors[(anchors >= m.domain_low) & (anchors + h <= m.domain_bound)]
        if anchors.size == 0:
            return (True, 0.0, h, None)
        lo = np.searchsorted(m.positions, anchors, side="left")
        hi = np.searchsorted(m.positions, anchors + h, side="left")
        q = (m.cum[hi] - m.cum[lo]) / (1.0 + anchors**2) ** beta
        bad = anchors[q > eps]
        if bad.size == 0:
            return (True, 0.0, h, None)
        need = float(np.max(np.abs(bad))) + h
        if need <= m.domain_bound - 5.0:
            return (True, need, h, None)
        blocking = float(bad[np.argmax(np.abs(bad))])
        h /= 2.0
    return (False, math.inf, 2.0 * h, blocking)


@st.composite
def small_measures(draw):
    # grid positions (k / 8: the atoms - h land on atoms) or arbitrary floats,
    # optionally mirrored the way measure_from_weights(symmetric=True) mirrors
    if draw(st.booleans()):
        pos = {k / 8.0 for k in draw(st.lists(st.integers(0, 120), max_size=30))}
    else:
        pos = set(draw(st.lists(st.floats(0.0, 15.0), max_size=30)))
    pos = np.array(sorted(pos))
    symmetric = draw(st.booleans())
    if symmetric:
        pos = np.unique(np.concatenate([-pos, pos]))
    mas = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=pos.size, max_size=pos.size)))
    top = (float(pos[-1]) if pos.size else 0.0) + draw(st.floats(0.0, 8.0))
    low = -top if symmetric else min(0.0, float(pos[0]) if pos.size else 0.0)
    return AtomicMeasure(pos, mas, domain_bound=top, domain_low=low)


@settings(max_examples=300, deadline=None)
@given(m=small_measures(), beta=st.sampled_from([0.0, 0.5, -0.5, 1.0]),
       eps=st.sampled_from([0.05, 0.3, 1.0, 2.5]))
def test_continuity_equals_the_sorted_union_scan(m, beta, eps):
    got = continuity_at_infinity(m, beta, eps)
    want = continuity_reference(m, beta, eps)
    assert tuple(got) == want
    if want[3] is not None:  # -a before +a, as the sorted order gives
        assert math.copysign(1.0, got.blocking_x) == math.copysign(1.0, want[3])


@settings(max_examples=300, deadline=None)
@given(m=small_measures(), beta=st.sampled_from([0.0, 0.5, -0.5, 1.0]),
       eps=st.sampled_from([0.05, 0.3, 1.0, 2.5]), chunk=st.sampled_from([1, 2, 3, 5]),
       cap=st.sampled_from([1, 2, 4, 2**15]))
def test_continuity_in_small_chunks_equals_the_sorted_union_scan(m, beta, eps, chunk, cap):
    # chunks far below the atom count make both ends stop, meet and merge
    # ties; they stop doubling at _SCAN, also at a cap below the first chunk
    with patch.object(S, "_CHUNK", chunk), patch.object(S, "_SCAN", cap):
        got = continuity_at_infinity(m, beta, eps)
    want = continuity_reference(m, beta, eps)
    assert tuple(got) == want
    if want[3] is not None:
        assert math.copysign(1.0, got.blocking_x) == math.copysign(1.0, want[3])


def test_top_end_scans_an_anchor_rounded_under_the_horizon():
    # (15 + ulp) + 1 rounds to 16, so the bad anchor 15 + ulp fits and lies
    # beyond 16 - 1 = 15, the bad anchor the first top chunk finds
    p = math.nextafter(15.0, math.inf)
    m = AtomicMeasure(np.array([0.0, 1.0, 2.0, p, 16.0]), np.ones(5), domain_bound=16.0)
    with patch.object(S, "_CHUNK", 1):
        assert S._farthest_bad(m, 1.0, 0.0, 0.5) == (p, p)


@pytest.mark.parametrize("pos, heavy, low, bound", [
    # +5.5 (window [5.5, 6.5) from the top atom) comes first, and -5.5
    # (window [-5.5, -4.5) from atom 1) only in the bottom's second chunk
    ([-5.2, -4.5, 0.0, 1.0, 2.0, 6.0, 6.5], [0, 5], -6.0, 6.9),
    # -5.5 (atom 0) comes first, and +5.5 (atom 3) only in the top's second chunk
    ([-5.5, 0.0, 1.0, 5.5, 6.7, 6.9], [0, 3], -6.0, 7.0),
])
def test_a_tie_at_the_far_end_keeps_the_negative_anchor(pos, heavy, low, bound):
    mas = np.full(len(pos), 0.01)
    mas[heavy] = 1.0
    m = AtomicMeasure(np.array(pos), mas, domain_bound=bound, domain_low=low)
    with patch.object(S, "_CHUNK", 1):
        assert S._farthest_bad(m, 1.0, 0.0, 0.5) == (5.5, -5.5)


def test_continuity_symmetric_blocking_is_the_negative_atom():
    pos = np.concatenate([-np.arange(10.0, 0.0, -1.0), np.arange(1.0, 11.0)])
    m = AtomicMeasure(pos, np.ones(20), domain_bound=10.2, domain_low=-10.2)
    res = continuity_at_infinity(m, 0.0, 0.5)
    assert tuple(res) == continuity_reference(m, 0.0, 0.5)
    assert res.blocking_x == -10.0


@pytest.fixture(scope="module")
def scale_measures(unit_measure):
    # one-sided and dense; mirrored, with bad anchors at both ends; sparse
    return [unit_measure,
            measure_from_weights(W.catalog("constant", 10**5), symmetric=True),
            measure_from_weights(W.catalog("prime_indicator", 10**5))]


@pytest.mark.parametrize("beta, eps", [(0.0, 0.1), (0.0, 0.05), (0.5, 0.01), (1.0, 0.001),
                                       (-0.5, 0.3)])
def test_continuity_equals_the_sorted_union_scan_at_scale(scale_measures, beta, eps):
    for m in scale_measures:
        got = continuity_at_infinity(m, beta, eps)
        want = continuity_reference(m, beta, eps)
        assert tuple(got) == want
        if want[3] is not None:
            assert math.copysign(1.0, got.blocking_x) == math.copysign(1.0, want[3])


def carleson_reference(m, beta):
    """The whole-array scan carleson_check replaced: every anchor at once."""
    atoms = m.positions[m.positions <= m.domain_bound - 1.0]
    anchors = np.concatenate([[m.domain_low], atoms])
    lo = np.concatenate([[0], np.arange(atoms.size)])
    hi = np.searchsorted(m.positions, anchors + 1.0, side="left")
    q = (m.cum[hi] - m.cum[lo]) / (1.0 + anchors**2) ** beta
    i = int(np.argmax(q))
    return float(q[i]), float(anchors[i])


def beurling_reference(points, r_list, window):
    """The whole-array sweep beurling_lower_density replaced: a sorted copy
    and every anchor at once."""
    pts = np.sort(np.asarray(points, dtype=np.float64))
    lo, hi = float(window[0]), float(window[1])
    rs = sorted(float(r) for r in r_list)
    infs = []
    for r in rs:
        anchors = np.concatenate([[lo], pts[(pts >= lo) & (pts <= hi - r)], [hi - r]])
        cnt = np.searchsorted(pts, anchors + r, side="left") - np.searchsorted(
            pts, anchors, side="right"
        )
        infs.append(float(cnt.min()) / r)
    return tuple(rs), tuple(infs), infs[-1]


@st.composite
def tied_measures(draw):
    # small_measures, or its atoms with masses from two values: with beta = 0
    # many unit windows then carry the same mass, and the first must win
    m = draw(small_measures())
    if draw(st.booleans()):
        mas = draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=m.positions.size,
                            max_size=m.positions.size))
        m = AtomicMeasure(m.positions, np.array(mas), domain_bound=m.domain_bound,
                          domain_low=m.domain_low)
    return m


@settings(max_examples=300, deadline=None)
@given(m=tied_measures(), beta=st.sampled_from([0.0, 0.5, -0.5, 1.0, math.nan]),
       chunk=st.sampled_from([1, 2, 3, 5]))
def test_carleson_in_small_chunks_equals_the_whole_array_scan(m, beta, chunk):
    # beta = nan makes q nan at every anchor but x = 0 (1^nan = 1): the
    # first nan wins, as np.argmax over the whole scan has it
    with patch.object(S, "_SCAN", chunk), np.errstate(invalid="ignore"):
        got = carleson_check(m, beta)
        want = carleson_reference(m, beta)
    assert repr(tuple(got)) == repr(want)


def test_carleson_ties_and_nan_across_chunks():
    # unit atoms on the integers: every window from an atom holds one atom,
    # so the tie goes to the first anchor, domain_low; with beta = nan the
    # anchor 0 keeps q = 1 and the first nan is the next chunk's atom 1
    m = AtomicMeasure(np.arange(8.0), np.ones(8), domain_bound=8.0)
    with patch.object(S, "_SCAN", 2):
        assert tuple(carleson_check(m, 0.0)) == (1.0, 0.0) == carleson_reference(m, 0.0)
        with np.errstate(invalid="ignore"):
            got = carleson_check(m, math.nan)
    assert math.isnan(got.c_hat) and got.worst_xi == 1.0


@st.composite
def density_cases(draw):
    # points on a quarter grid (so anchors + r land on points) or arbitrary,
    # unsorted, with repeats; a window that may miss every point
    if draw(st.booleans()):
        pts = [k / 4.0 for k in draw(st.lists(st.integers(-40, 80), min_size=1, max_size=40))]
    else:
        pts = draw(st.lists(st.floats(-10.0, 20.0), min_size=1, max_size=40))
    if draw(st.booleans()):
        pts = sorted(pts)
    lo = draw(st.sampled_from([-12.0, -1.0, 0.0, 2.5])) if draw(st.booleans()) \
        else draw(st.floats(-30.0, 25.0))
    hi = lo + draw(st.sampled_from([5.0, 10.0, 20.0, 40.0]))
    top = (hi - lo) / 5.0
    rs = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]), max_size=3))
    rs = [r for r in rs if r <= top] or [top]
    rs += [top * f for f in draw(st.lists(st.floats(0.01, 1.0), max_size=2))]
    return pts, rs, (lo, hi)


@settings(max_examples=300, deadline=None)
@given(case=density_cases(), chunk=st.sampled_from([1, 2, 3, 5]))
def test_density_in_small_chunks_equals_the_whole_array_sweep(case, chunk):
    pts, rs, window = case
    with patch.object(S, "_SCAN", chunk):
        got = beurling_lower_density(pts, rs, window)
    assert tuple(got) == beurling_reference(pts, rs, window)


def test_density_with_no_point_in_range_reads_the_window_ends():
    # every point lies past hi - r: the anchors are lo and hi - r alone
    pts = [9.5, 30.0, 12.0, 9.75]
    with patch.object(S, "_SCAN", 1):
        got = beurling_lower_density(pts, [1.0, 2.0], (0.0, 10.0))
    assert tuple(got) == beurling_reference(pts, [1.0, 2.0], (0.0, 10.0))
    assert got.inf_counts == (0.0, 0.0)


def _traced_peak(f, n):
    """The peak of the memory traced while f() runs, in n-entry float64 arrays."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()


N_TRACED = 2**19


@pytest.fixture(scope="module")
def traced_weights():
    w = W.catalog("constant", N_TRACED)
    w.w  # built outside the traced steps
    return w


def test_measure_from_weights_holds_its_output_and_bounded_work(traced_weights):
    # positions, masses and prefix sums are 3.0 arrays; the nonzero indices
    # are gone before the prefix pass (3.72); a copy per step read 5.0
    assert _traced_peak(lambda: measure_from_weights(traced_weights), N_TRACED) < 4.25


def test_measure_from_segments_never_builds_w():
    # positions, masses and one segment while the atoms are written, then the
    # prefix pass at 3.72 arrays; building w first read 4.72, and so would
    # a segment (here all of w) kept alive through a view
    w = W.catalog("constant", N_TRACED)
    assert _traced_peak(lambda: measure_from_weights(w), N_TRACED) < 4.0
    assert w._w is None


# the whole-array scans peaked at 2.58 (carleson), 1.25 (density) and 3.63
# (continuity) arrays; in chunks of _SCAN at 0.31, 0.13 and 0.45
@pytest.mark.parametrize("step", ["carleson", "density", "continuity"])
def test_a_scan_holds_no_copy_of_the_measure(traced_weights, step):
    m = measure_from_weights(traced_weights)
    run = {
        "carleson": lambda: carleson_check(m, 0.0),
        "density": lambda: beurling_lower_density(
            m.positions, [(m.domain_bound - m.domain_low) / 5.0], (m.domain_low, m.domain_bound)),
        "continuity": lambda: continuity_at_infinity(m, 0.0, 0.1),
    }[step]
    assert _traced_peak(run, N_TRACED) < 0.75


def test_kadec_atom_positions_near_integers():
    m = kadec_atoms(50)
    ks = np.rint(m.positions)
    assert np.array_equal(ks, np.arange(1, 51, dtype=np.float64))
    assert np.max(np.abs(m.positions - ks)) <= 0.2
    # past 2^53 the nearest-integer log collapses onto k itself
    assert m.positions[39] == 40.0
    assert m.domain_bound == 50.2
    with pytest.raises(RangeError):
        kadec_atoms(0)


LOWER_CHEBYSHEV_CASES = [
    ("constant", {}),
    ("divisor", {}),
    ("inv_divisor_pow", {"alpha": 1.0}),
    ("dgamma", {"gamma": 3}),
    ("log_power", {"alpha": 2.0}),
    ("mangoldt", {}),
    ("mangoldt_over_log", {}),
    ("prime_indicator", {}),
]


@pytest.mark.parametrize("name,params", LOWER_CHEBYSHEV_CASES)
def test_lower_growth_keeps_blocks_charged(name, params):
    # weights with partial sums ~ x (log x)^-alpha keep every unit log-window
    # charged after the (1+xi^2)^(alpha/2) rescaling
    w = W.catalog(name, 10**5, **params)
    alpha = w.expected_alpha
    assert alpha is not None
    m = measure_from_weights(w)
    L = 1.0
    crit = m.positions + L + 1e-9
    xs = np.concatenate([[5.0, m.domain_bound - L], crit])
    xs = xs[(xs >= 5.0) & (xs <= m.domain_bound - L)]
    lo = np.searchsorted(m.positions, xs - L, side="left")
    hi = np.searchsorted(m.positions, xs, side="left")
    q = (m.cum[hi] - m.cum[lo]) * (1.0 + xs**2) ** (alpha / 2.0)
    assert float(q.min()) > 0.0  # measured inf in [0.92, 1.06] across the catalog
