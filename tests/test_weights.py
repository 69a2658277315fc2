import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import accum, arithmetic, weights as W
from dirichletlab.accum import block_moments, compensated_cumsum
from dirichletlab.arithmetic import (EXPONENT_FACTORIAL, OMEGA, divisor_count_segments,
                                     factor_segments, generalized_divisor_segments,
                                     prime_segments, von_mangoldt_segments)
from dirichletlab.errors import BudgetError, DomainError, FitError, RangeError
from dirichletlab.weights import DEFAULT_BUDGET
from test_arithmetic import single_push_table

# a parameter for each family that needs one; kadec's blocks fit limits >= 3641
FAMILY_PARAMS = {"log_power": {"alpha": 1.0}, "dgamma": {"gamma": 1.5},
                 "inv_divisor_pow": {"alpha": 1.0}, "besov": {"gamma": 0.5},
                 "kadec": {"blocks": 8}, "kadec_spiked": {"blocks": 6}}


def divisor_count_table(limit):
    return np.concatenate(list(divisor_count_segments(limit)), dtype=np.int32)


def whole_array_reference(name, limit, params):
    """w_0..w_limit as one array: the whole-array formulas the segment
    builders of the closed-form families replaced, the divisor-lattice pass
    for the ordered-factorization families, and each sieve family's formula
    over its whole arithmetic tables (those are checked against the spf
    sieve in test_arithmetic)."""
    if name == "constant":
        w = np.ones(limit + 1)
        w[0] = 0.0
    elif name == "log_power":
        n = np.arange(limit + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (1.0 + np.log(n)) ** float(params["alpha"])  # n = 0 gives nan
        w[0] = 0.0
    elif name in ("mccarthy", "inv_ordered_factorization"):
        # H(n) does not depend on the limit: the oracle table of the stream's
        # tests serves every limit below
        w = single_push_table(2**20 + 5)[: limit + 1].astype(np.float64)
        if name == "inv_ordered_factorization":
            with np.errstate(divide="ignore"):
                w = 1.0 / w
            w[0] = 0.0
    elif name in ("kadec", "kadec_spiked"):
        if name == "kadec_spiked":
            with np.errstate(over="ignore"):
                w = np.exp(np.arange(limit + 1, dtype=np.float64))
            w[0] = 0.0
        else:
            w = np.zeros(limit + 1)
        for n in W.kadec_indices(int(params["blocks"])):
            w[n] = float(n)
    elif name == "dgamma":
        w = np.concatenate(list(generalized_divisor_segments(params["gamma"], limit)))
    elif name in ("divisor", "inv_divisor_pow"):
        w = divisor_count_table(limit).astype(np.float64)
        if name == "inv_divisor_pow":
            with np.errstate(divide="ignore"):
                w = w ** -float(params["alpha"])
            w[0] = 0.0
    elif name in ("mangoldt", "mangoldt_over_log"):
        w = np.concatenate(list(von_mangoldt_segments(limit)))
        if name == "mangoldt_over_log":
            idx = np.flatnonzero(w)
            w[idx] /= np.log(idx.astype(np.float64))
    elif name == "prime_indicator":
        w = np.concatenate(list(prime_segments(limit))).astype(np.float64)
    else:  # besov
        om, fac = (np.concatenate(t) for t in zip(*factor_segments(limit, OMEGA,
                                                                    EXPONENT_FACTORIAL)))
        g = float(params["gamma"])
        rising = np.ones(limit.bit_length())
        for k in range(1, rising.size):
            rising[k] = math.factorial(k - 1) if g == 0.0 else rising[k - 1] * (g + k - 1)
        rising[0] = 0.0 if g == 0.0 else 1.0
        w = np.divide(rising[om], fac, out=np.zeros(fac.size), where=fac > 0)
    return w


def test_catalog_rejects_unknowns_and_tiny_limits():
    with pytest.raises(DomainError):
        W.catalog("no_such_family", 100)
    with pytest.raises(RangeError):
        W.catalog("constant", 1)
    # a keyword that is no family parameter is refused, not carried into w.params
    with pytest.raises(DomainError):
        W.catalog("dgamma", 100, gamma=1.5, table=None)


def test_constant_weights_and_partial_sums():
    w = W.catalog("constant", 5000)
    assert np.all(w.w[1:] == 1.0) and w.w[0] == 0.0
    S = W.partial_sums(w)
    assert np.array_equal(S[1:], np.arange(1, 5001, dtype=np.float64))
    assert w.expected_alpha == 0.0 and w.sigma0 == 1.0


def test_dgamma_two_equals_divisor_function():
    w = W.catalog("dgamma", 20_000, gamma=2.0)
    d = divisor_count_table(20_000)
    assert np.array_equal(w.w[1:], d[1:].astype(np.float64))
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            W.catalog("dgamma", 100, gamma=bad)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            W.catalog("besov", 100, gamma=bad)


def test_mangoldt_weights_match_arithmetic_table():
    w = W.catalog("mangoldt", 10**5)
    lam = np.concatenate(list(von_mangoldt_segments(10**5)))
    assert np.array_equal(w.w, lam)
    assert w.expected_alpha == 0.0


def test_mangoldt_over_log_is_prime_power_indicatorish():
    w = W.catalog("mangoldt_over_log", 5000)
    # Lambda(n)/log n equals 1/k at p^k, zero elsewhere
    assert w.w[1] == 0.0
    assert w.w[7] == pytest.approx(1.0)
    assert w.w[8] == pytest.approx(1.0 / 3.0)
    assert w.w[12] == 0.0
    assert w.expected_alpha == 1.0


def test_prime_indicator():
    w = W.catalog("prime_indicator", 5000)
    primes = [n for n in range(2, 5001) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    assert np.array_equal(np.flatnonzero(w.w), np.array(primes))
    assert np.all(w.w[np.flatnonzero(w.w)] == 1.0)


def test_log_power_shape():
    w = W.catalog("log_power", 100, alpha=0.5)
    for n in (2, 10, 77):
        assert w.w[n] == pytest.approx((1.0 + math.log(n)) ** 0.5, rel=1e-15)
    assert w.expected_alpha == -0.5


def test_inv_divisor_pow():
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


# sieved: the family is read off a sieve by the primes <= sqrt(limit); the
# column labels the cases and keeps their ids
@pytest.mark.parametrize("name,params,sieved,limit", [
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
def test_catalog_prefix_sums_nondecreasing(name, params, sieved, limit):
    w = W.catalog(name, limit, **params)
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


@pytest.mark.parametrize("limit", [500, 709, 710, 711, 4095, 4096, 4097, 10**4, 10**5])
def test_partial_sums_of_infinite_weights_are_plain_cumsum(limit):
    # spiked weights e^n overflow to inf past n = 709; each prefix from there on is inf
    w = W.catalog("kadec_spiked", limit, blocks=5)
    assert W.partial_sums(w).tobytes() == np.cumsum(w.w).tobytes()


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


# S(x) ~ x^sigma0 / (sigma0 |F'(sigma0)|) for a simple pole of 1/F at sigma0:
# F = 2 - zeta (mccarthy) and 1 - prime zeta (besov gamma = 1), by mpmath
# (zeta(s, derivative=1) and diff of primezeta at 20 digits), frozen
@pytest.mark.parametrize("name, params, C", [("mccarthy", {}, 0.31817365220905687),
                                             ("besov", {"gamma": 1.0}, 0.41277323709367049)])
def test_fit_alpha_past_abscissa_one(name, params, C):
    w = W.catalog(name, 10**6, **params)
    grid = np.geomspace(1e3, 1e6, 25)  # the fit command's default grid
    fit = W.fit_alpha(w, grid)
    assert abs(fit.alpha_hat) <= 0.05  # measured -0.0064 (mccarthy), 0.0025 (besov)
    assert fit.C_hat == pytest.approx(C, rel=0.03)  # measured 1.6 % low, 0.6 % high
    assert W.chebyshev_ratios(w, grid, 0.0) == pytest.approx(C, rel=0.03)


def test_fit_alpha_refuses_degenerate_grids():
    w = W.catalog("constant", 10**4)
    with pytest.raises(FitError):
        W.fit_alpha(w, np.array([100.0, 200.0]))
    with pytest.raises(FitError):
        W.fit_alpha(w, np.geomspace(1000.0, 9000.0, 8))  # < 2 decades


def test_chebyshev_ratios_constant_flat():
    w = W.catalog("constant", 10**4)
    xs = np.geomspace(100.0, 10**4, 12)
    r = W.chebyshev_ratios(w, xs, w.expected_alpha)  # 0 for the constant weight
    assert np.all((r >= 0.99) & (r <= 1.01))
    with pytest.raises(RangeError):
        W.chebyshev_ratios(w, np.array([1.5]), 0.0)
    with pytest.raises(RangeError):
        W.chebyshev_ratios(w, np.array([2e4]), 0.0)


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


@given(st.integers(min_value=2, max_value=2000), st.integers(min_value=2, max_value=2000))
@settings(max_examples=40)
def test_sum_upto_additive_on_disjoint_ranges(a, b):
    w = W.catalog("divisor", 2000)
    lo, hi = sorted((a, b))
    S = W.partial_sums(w)
    assert S[hi] - S[lo] == pytest.approx(
        math.fsum(w.w[lo + 1 : hi + 1]), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("name, param", sorted(W.REQUIRED_PARAM.items()))
def test_catalog_names_a_missing_family_parameter(name, param):
    with pytest.raises(DomainError, match=repr(param)):
        W.catalog(name, 1000)
    with pytest.raises(DomainError, match=repr(param)):
        W.catalog(name, 1000, **{param: None})


@pytest.mark.parametrize("name", sorted(W.BUILDERS))
def test_streamed_family_reads_without_its_array(name):
    params = FAMILY_PARAMS.get(name, {})
    w = W.catalog(name, 10**5, **params)
    xs = np.array([[2, 4095, 4096], [4097, 77_777, 10**5]])
    moments, sums = W.read(w, xs, 3.3)
    S = W.partial_sums(w)  # from the builder's segments too
    assert w._w is None  # nothing N-length was kept
    assert sums.shape == xs.shape and sums.tobytes() == S[xs].tobytes()
    whole = W.catalog(name, 10**5, **params).w  # the concatenation of the segments
    assert whole.tobytes() == w.w.tobytes()
    assert S.tobytes() == compensated_cumsum(whole).tobytes()
    for got, want in zip(moments, block_moments(whole, 3.3)):
        assert got.tobytes() == want.tobytes()


def test_built_sequence_reads_each_new_point_set_in_one_scan(monkeypatch):
    w = W.catalog("log_power", 10**5, alpha=1.0)
    w.w  # built: reads are scans of views of the array
    S = W.partial_sums(w)
    scans, scan = [], accum.scan
    monkeypatch.setattr(accum, "scan", lambda *a, **k: scans.append(1) or scan(*a, **k))
    xs = np.arange(0, 10**5 + 1, 997)
    assert W.sums_at(w, xs).tobytes() == S[xs].tobytes()
    assert len(scans) == 1
    moments, sums = W.read(w, xs[::-1], 3.3)  # known points, new moments
    assert sums.tobytes() == S[xs[::-1]].tobytes() and len(scans) == 2
    assert W.read(w, xs[:5], 3.3)[0] is moments and len(scans) == 2  # all in the memo
    assert W.read(w, xs[:5], 2.0)[0] is moments and len(scans) == 2  # the same block width
    assert W.sum_upto(w, 77_777.5) == S[77_777] and len(scans) == 3
    assert W.sums_at(w, [77_777, 0]).tobytes() == S[[77_777, 0]].tobytes()
    assert len(scans) == 3
    with pytest.raises(RangeError):
        W.sums_at(w, [10**5 + 1])


@pytest.mark.parametrize("segment", [4096, accum._SEGMENT])
@pytest.mark.parametrize("limit", [4095, 3 * 4096, 10**5 + 3])
def test_every_sequence_is_cut_at_segment_edges(segment, limit, monkeypatch):
    monkeypatch.setattr(accum, "_SEGMENT", segment)
    want = [hi - lo for lo, hi in accum.segment_edges(limit + 1)]
    for name, build in W.BUILDERS.items():
        params = FAMILY_PARAMS.get(name, {})
        assert [seg.size for seg in build(limit, params)] == want, name
        w = W.catalog(name, limit, **params)
        assert [seg.size for seg in W.segments(w)] == want, name  # from the builder
        w.w
        assert [seg.size for seg in W.segments(w)] == want, name  # views of the array


def _segment_generators(limit):
    """Every catalog builder and every arithmetic segment generator at limit."""
    for name, build in W.BUILDERS.items():
        yield name, build(limit, FAMILY_PARAMS.get(name, {}))
    yield "divisor_count_segments", arithmetic.divisor_count_segments(limit)
    yield "prime_segments", arithmetic.prime_segments(limit)
    yield "von_mangoldt_segments", arithmetic.von_mangoldt_segments(limit)
    yield "factor_segments", arithmetic.factor_segments(limit, OMEGA, EXPONENT_FACTORIAL)
    yield "generalized_divisor_segments", arithmetic.generalized_divisor_segments(1.5, limit)
    yield "ordered_factorization_segments", arithmetic.ordered_factorization_segments(limit)


@pytest.mark.parametrize("limit", [2, 3, 3 * 4096 + 5])
def test_segment_builders_release_each_segment(limit, monkeypatch):
    # a builder that still holds segment k while it makes segment k + 1 keeps
    # two segments alive in every scan; at limits 2 and 3 a builder's loops
    # over the small primes never run, and its releases must not fail there
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    refs = []  # to every segment handed out so far, which the loop below drops

    def released():
        return all(r() is None for r in refs)

    def probed_edges(size, edges=accum.segment_edges):  # iterated by a builder as it resumes
        for i, edge in enumerate(edges(size)):
            assert i == 0 or released(), name  # name: the generator under test
            yield edge

    monkeypatch.setattr(arithmetic, "segment_edges", probed_edges)
    monkeypatch.setattr(accum, "segment_edges", probed_edges)
    for name, gen in _segment_generators(limit):
        refs.clear()
        count = 0
        while (seg := next(gen, None)) is not None:
            assert released(), name  # segment k is gone once k + 1 is yielded
            refs.extend(weakref.ref(a) for a in (seg if isinstance(seg, list) else [seg]))
            count += 1
            del seg
        assert count == -(-(limit + 1) // 4096), name


def _traced_peak(f):
    """The peak of the memory traced while f() runs, in float64 segments."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1] / (8 * accum._SEGMENT)
    finally:
        tracemalloc.stop()


# bounds between the peaks of a scan that holds two segments and a whole
# moment block (mangoldt 2.48, constant 2.16, dgamma 3.91) and of one that
# holds one segment and one leaf (1.41, 1.40); the factor families hold their
# tables besides, dgamma 2.17 with a whole int64 arange in pass 1 and 1.40
# with 2^16-entry pieces, besov 3.29 with a third segment for its quotient
# and 2.29 dividing in place, mccarthy 3.13 with its int64 keys and two
# lookups H[key] alive at once and 2.40 with one
@pytest.mark.parametrize("name, bound", [("mangoldt", 1.9), ("constant", 1.75), ("dgamma", 1.75),
                                         ("besov", 2.6), ("mccarthy", 2.6)])
def test_a_scan_holds_one_segment_at_a_time(name, bound):
    N = 6 * 2**20
    w = W.catalog(name, N, **FAMILY_PARAMS.get(name, {}))
    assert _traced_peak(lambda: W.read(w, [10, N // 2, N], 3.3)) < bound


def test_the_moment_pass_holds_no_whole_block(monkeypatch):
    # 2^15-entry segments: the last moment block, ~190 000 entries, spans six;
    # held whole with its x array it peaks at 12.8 segments, by leaves at 3.4
    monkeypatch.setattr(accum, "_SEGMENT", 2**15)
    w = W.catalog("constant", 6 * 2**20)
    assert _traced_peak(lambda: W.read(w, (), 3.3)) < 6.0


def test_a_joined_table_holds_one_segment_besides_itself():
    # the 4-segment array and the one segment being copied in make 5.00
    # segments; join_segments holding its last copied segment while the
    # builder makes the next one made 6.00
    w = W.catalog("constant", 4 * 2**20)
    assert _traced_peak(lambda: w.w) < 5.5


def test_streamed_table_past_the_budget_is_refused():
    for name in W.CATALOG_NAMES:
        w = W.catalog(name, DEFAULT_BUDGET + 1, **FAMILY_PARAMS.get(name, {}))  # nothing built
        with pytest.raises(BudgetError):
            w.w


@pytest.mark.parametrize("limit", [4095, 2**20 - 1, 2**20 + 1])
def test_every_family_equals_its_whole_array_reference(limit, monkeypatch):
    xs, default = np.array([0, 1, 4095, limit // 3, limit]), accum._SEGMENT
    for name in W.CATALOG_NAMES:
        params = FAMILY_PARAMS.get(name, {})
        want = whole_array_reference(name, limit, params)
        want_sums, want_moments = compensated_cumsum(want), block_moments(want, 3.3)
        for segment in (4096, default):
            monkeypatch.setattr(accum, "_SEGMENT", segment)
            w = W.catalog(name, limit, **params)
            S = np.empty(limit + 1)  # one scan of the builder's segments reads all three
            moments, sums = accum.scan(W.segments(w), limit + 1, 3.3, xs, out=S)
            assert w.w.dtype == np.float64 and w.w.tobytes() == want.tobytes(), (name, segment)
            assert S.tobytes() == want_sums.tobytes(), (name, segment)
            assert sums.tobytes() == want_sums[xs].tobytes(), (name, segment)
            for got, ref in zip(moments, want_moments):
                assert got.tobytes() == ref.tobytes(), (name, segment)
