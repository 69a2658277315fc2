import functools
import math

import numpy as np
import pytest

from dirichletlab import accum
from dirichletlab.arithmetic import (
    EXPONENT_FACTORIAL,
    OMEGA,
    divisor_count_segments,
    factor_segments,
    generalized_divisor,
    generalized_divisor_segments,
    ordered_factorization_segments,
    prime_segments,
    von_mangoldt_segments,
)
from dirichletlab.errors import RangeError
from dirichletlab.zeta import _mobius_small


def divisor_count_table(limit):
    return np.concatenate(list(divisor_count_segments(limit)), dtype=np.int32)


def generalized_divisor_table(gamma, limit):
    return accum.join_segments(generalized_divisor_segments(gamma, limit), limit + 1)


def factor_tables(limit, *rules):
    """The factor pass's table of each rule over 0..limit, the concatenation
    of its segments."""
    return tuple(np.concatenate(parts) for parts in zip(*factor_segments(limit, *rules)))


def ordered_factorization_table(limit):
    return np.concatenate(list(ordered_factorization_segments(limit)))


def trial_factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factorization(n):
    """n's ascending (prime, exponent) pairs, by trial division; 1 -> ()."""
    return tuple(sorted(trial_factor(n).items()))


def divisors(f):
    """All divisors of the factored integer, ascending: the oracle of the
    divisor-sum identities below."""
    out = [1]
    for p, e in f:
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def test_spf_against_trial_division():
    # the smallest prime factors the reference loops below read
    spf = sieve_reference(3000)[0]
    for n in range(2, 3001):
        assert spf[n] == min(trial_factor(n))


def test_prime_list_against_sieve_of_eratosthenes():
    limit = 10_000
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    expected = np.flatnonzero(mask)
    got = np.flatnonzero(np.concatenate(list(prime_segments(limit))))
    assert np.array_equal(got, expected)


def test_divisor_count_table_brute_force():
    d = divisor_count_table(500)
    for n in range(1, 501):
        assert d[n] == sum(1 for k in range(1, n + 1) if n % k == 0)


def test_divisors_listing():
    ds = sorted(divisors(factorization(360)))
    assert ds == sorted(k for k in range(1, 361) if 360 % k == 0)
    assert divisor_count_table(360)[360] == len(ds)


def test_von_mangoldt_supported_on_prime_powers():
    lam = np.concatenate(list(von_mangoldt_segments(10**5)))
    for n in range(1, 2000):
        f = trial_factor(n)
        if len(f) == 1:
            (p, _e), = f.items()
            assert lam[n] == pytest.approx(math.log(p), rel=1e-15)
        else:
            assert lam[n] == 0.0
    assert lam[81] == pytest.approx(math.log(3))


def test_mobius_values_and_dirichlet_identity():
    # the trial-division mu of the prime zeta series: sum over divisors of mu
    # is the indicator of n = 1
    for n in range(1, 1500):
        total = sum(_mobius_small(d) for d in divisors(factorization(n)))
        assert total == (1 if n == 1 else 0)
    assert _mobius_small(30) == -1
    assert _mobius_small(12) == 0


def test_omega_table_counts_with_multiplicity():
    om = factor_tables(10**5, OMEGA, EXPONENT_FACTORIAL)[0]
    for n in range(2, 2000):
        assert om[n] == sum(trial_factor(n).values())
    assert om[1] == 0
    assert om[4] == 2 and om[30] == 3


def test_exponent_factorial_table():
    ef = factor_tables(10**5, OMEGA, EXPONENT_FACTORIAL)[1]
    for n in range(1, 1000):
        expect = 1
        for e in trial_factor(n).values():
            expect *= math.factorial(e)
        assert ef[n] == expect


def test_omega_and_exponent_factorial_tables_from_one_pass():
    om, ef = factor_tables(10**5, OMEGA, EXPONENT_FACTORIAL)
    assert om.dtype == np.int8 and ef.dtype == np.float64
    # the two rules of one pass give the tables of two single-rule passes
    assert np.array_equal(om, factor_tables(10**5, OMEGA)[0])
    assert np.array_equal(ef, factor_tables(10**5, EXPONENT_FACTORIAL)[0])


def spf_tables(limit):
    return (*factor_tables(limit, OMEGA, EXPONENT_FACTORIAL), generalized_divisor_table(1.5, limit))


@pytest.mark.parametrize("limit, cap", [
    (2**18 - 1, None), (2**18, None), (2**18 + 1, None), (2**19 + 1, None),
    (2**19 + 2**18 + 3, None), (2**20 + 5, None),
    (999, 8), (1000, 8), (1024, 8), (1025, 7), (4099, 64),
])
def test_spf_pass_capped_ranges_equal_the_dyadic_ranges(limit, cap, monkeypatch):
    # the factor pass's tables do not depend on how 0..limit is cut: segments
    # of `cap` entries (cap None: the 2^20-entry segments) give the bits of
    # one segment over the whole range
    if cap is not None:
        monkeypatch.setattr(accum, "_SEGMENT", cap)
    capped = spf_tables(limit)
    monkeypatch.setattr(accum, "_SEGMENT", 2**62)
    for got, want in zip(capped, spf_tables(limit)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_generalized_divisor_gamma2_is_divisor_count():
    g2 = generalized_divisor_table(2.0, 10**5)
    d = divisor_count_table(10**5)
    assert np.array_equal(g2[1:], d[1:].astype(np.float64))
    assert generalized_divisor(2.0, factorization(72)) == d[72] == 12


def test_generalized_divisor_gamma3_by_convolution():
    # d_3 = d_2 * 1 pointwise via divisor sums
    g3 = generalized_divisor_table(3.0, 10**5)
    d = divisor_count_table(500)
    for n in range(1, 501):
        expect = sum(d[k] for k in range(1, n + 1) if n % k == 0)
        assert g3[n] == pytest.approx(expect, rel=1e-12)


def test_generalized_divisor_gamma1_is_one():
    g1 = generalized_divisor_table(1.0, 10**5)
    assert np.all(g1[1:2000] == 1.0)


def test_generalized_divisor_table_equals_per_n_value():
    gammas = (1 / 3, 0.7, 1.5, 2.5, 3.0)
    tables = [generalized_divisor_table(g, 10**5) for g in gammas]
    spf = sieve_reference(10**5)[0]
    for n in range(1, 10**5 + 1):
        f = spf_factorization(spf, n)
        for g, t in zip(gammas, tables):
            assert t[n] == generalized_divisor(g, f), (g, n)


@pytest.mark.parametrize("limit", [2, 3, 4, 7, 8, 9, 15, 16, 17, 2**10 - 1, 2**10 + 1])
def test_spf_tables_at_dyadic_edges(limit):
    om, ef = factor_tables(limit, OMEGA, EXPONENT_FACTORIAL)
    gd = generalized_divisor_table(1 / 3, limit)
    assert (om[0], om[1], ef[0], ef[1], gd[0], gd[1]) == (0, 0, 0.0, 1.0, 0.0, 1.0)
    for n in range(2, limit + 1):
        f = factorization(n)
        assert om[n] == sum(e for _, e in f)
        assert ef[n] == math.prod(math.factorial(e) for _, e in f)
        assert gd[n] == generalized_divisor(1 / 3, f)


def ordered_factorizations_oracle(n, memo={1: 1}):
    # F(n) = sum over divisors d > 1 of F(n/d)
    if n in memo:
        return memo[n]
    total = sum(
        ordered_factorizations_oracle(n // d)
        for d in range(2, n + 1)
        if n % d == 0
    )
    memo[n] = total
    return total


def test_ordered_factorizations_against_recurrence():
    F = ordered_factorization_table(400)
    assert F.dtype == np.int64
    for n in range(1, 401):
        assert F[n] == ordered_factorizations_oracle(n)
    assert F[0] == 0 and F[10] == 3  # 10, 2*5, 5*2


def test_ordered_factorizations_exact_for_large_counts():
    # for a prime power p^k the orderings biject with compositions of k,
    # so the count is exactly 2^(k-1); int64 entries keep it exact
    F = ordered_factorization_table(2**16)
    assert F[2**16] == 2**15
    assert F[3**10] == 2**9


@functools.cache
def single_push_table(limit):
    """H(0..limit) by the divisor-lattice pass that pushes each F[m], final
    once every m' < m is pushed, onto the multiples of m, one m at a time."""
    F = np.zeros(limit + 1, dtype=np.int64)
    F[1:] = 1
    for m in range(2, limit // 2 + 1):
        F[2 * m :: m] += F[m]
    return F


def test_ordered_factorization_stream_matches_the_single_pushes():
    for limit in [*range(1, 130), 4095, 2**20 + 5]:
        assert ordered_factorization_table(limit).tobytes() == single_push_table(limit).tobytes(), limit


@pytest.mark.parametrize("limit", [4095, 4096, 2**20 - 1, 2**20 + 1])
def test_ordered_factorization_stream_across_segment_edges(limit, monkeypatch):
    # 4096-entry segments, whose larger keys extend the lookup segment by segment
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    segments = list(ordered_factorization_segments(limit))
    assert [seg.size for seg in segments] == [hi - lo for lo, hi in accum.segment_edges(limit + 1)]
    assert {seg.dtype for seg in segments} == {np.dtype(np.int64)}
    # H(n) does not depend on the limit: one oracle table serves every limit
    want = single_push_table(2**20 + 5)[: limit + 1]
    assert np.concatenate(segments).tobytes() == want.tobytes(), limit


def sieve_reference(limit):
    """The per-prime masked sieve: (spf, primes), the smallest prime factor
    of every n <= limit and the primes."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rem = np.flatnonzero(spf == 0)
    rem = rem[rem >= 2]
    spf[rem] = rem.astype(np.int32)
    primes = np.flatnonzero(spf == np.arange(limit + 1, dtype=np.int64))
    return spf, primes[primes >= 2]


def spf_factorization(spf, n):
    """n's ascending (prime, exponent) pairs, by repeated division by the
    smallest prime factor spf[n]; 1 -> ()."""
    out = []
    while n > 1:
        p, e = int(spf[n]), 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def divisor_count_reference(limit):
    """The int64 hyperbola loop divisor_count_table replaced."""
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i :: i] += 2
        d[i * i] -= 1
    return d


def _square_edges():
    primes = sieve_reference(200)[1].tolist()
    return sorted({p * p + k for p in primes for k in (-1, 0, 1)})


def test_divisor_count_table_equals_reference():
    d = divisor_count_table(10**5)
    assert d.dtype == np.int32
    assert np.array_equal(d, divisor_count_reference(10**5))


@pytest.mark.parametrize("limit", [0, -1, -5])
def test_divisor_count_table_rejects_limits_below_one(limit):
    with pytest.raises(RangeError):
        next(divisor_count_segments(limit))


def test_divisor_count_segments_refuse_limits_past_16_bits():
    # d(n) <= 26 880 < 2^16 holds up to 10^15; past it uint16 could wrap
    with pytest.raises(RangeError):
        next(divisor_count_segments(10**15 + 1))


def von_mangoldt_reference(limit):
    """The loop over the spf sieve's prime list that von_mangoldt_segments
    replaced: log p written at p, p^2, p^3, ... up to the limit."""
    primes = sieve_reference(limit)[1]
    lam = np.zeros(limit + 1)
    logp = np.log(primes.astype(np.float64))
    power = primes.copy()
    k = power.size
    while k:
        lam[power[:k]] = logp[:k]
        power[:k] *= primes[:k]
        k = int(np.searchsorted(power[:k], limit, side="right"))
    return lam


def factor_pass_reference(limit, *rules):
    """The pass over the spf sieve that factor_segments replaced: one table
    per rule (g, op, dtype) of f(n) = op(g(e), f(n / p^e)), p = spf(n) to the
    exponent e, over the dyadic ranges [lo, 2 lo), where n / p^e < lo."""
    spf = sieve_reference(limit)[0]
    values = [np.array([g(e) for e in range(limit.bit_length())], dtype=dtype)
              for g, _, dtype in rules]
    tables = [np.full(limit + 1, op.identity, dtype=dtype) for _, op, dtype in rules]
    for f in tables:
        f[0] = 0
    exp = np.zeros(limit + 1, dtype=np.int64)
    cof = np.ones(limit + 1, dtype=np.int64)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi) // p
        same = spf[m] == p
        exp[lo:hi] = np.where(same, exp[m] + 1, 1)
        cof[lo:hi] = np.where(same, cof[m], m)
        for f, v, (_, op, _) in zip(tables, values, rules):
            f[lo:hi] = op(v[exp[lo:hi]], f[cof[lo:hi]])
        lo = hi
    return tables


D_THIRD = (lambda e: generalized_divisor(1 / 3, ((2, e),)), np.multiply, np.float64)


def _check_factor_pass(limit):
    got = (*factor_tables(limit, OMEGA, EXPONENT_FACTORIAL), generalized_divisor_table(1 / 3, limit))
    for g, want in zip(got, factor_pass_reference(limit, OMEGA, EXPONENT_FACTORIAL, D_THIRD)):
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), limit


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_factor_pass_at_the_smallest_limits(limit):
    # 1 has one bit, yet n = 1 reads the exponent table at e = 1
    _check_factor_pass(limit)
    assert generalized_divisor_table(1.5, limit).tolist() == [0.0, 1.0, 1.5, 1.5][: limit + 1]
    assert ordered_factorization_table(limit).tolist() == [0, 1, 1, 1][: limit + 1]


def _check_builders(limit):
    primes = sieve_reference(limit)[1]
    d = divisor_count_table(limit)
    assert d.dtype == np.int32 and np.array_equal(d, divisor_count_reference(limit)), limit
    assert {seg.dtype for seg in divisor_count_segments(limit)} == {np.dtype(np.uint16)}, limit
    lam = np.concatenate(list(von_mangoldt_segments(limit)))
    assert lam.tobytes() == von_mangoldt_reference(limit).tobytes(), limit
    mask = np.concatenate(list(prime_segments(limit)))
    assert mask.dtype == bool and np.array_equal(np.flatnonzero(mask), primes), limit


def _tile_and_segment_edges():
    # the small-divisor tile's period lcm(1..12) and the 2^20-entry segment
    edges = [k * 27_720 for k in (1, 2, 3)] + [accum._SEGMENT - 1, 2 * accum._SEGMENT - 1]
    return [edge + d for edge in edges for d in (-1, 0, 1)]


@pytest.mark.parametrize("limits", [range(2, 3001), _square_edges(), [10**6],
                                    _tile_and_segment_edges()],
                         ids=["2..3000", "p^2-1,p^2,p^2+1", "1e6", "k*27720+-1,2^20 k-1+-1"])
def test_segment_builders_equal_reference_loops(limits):
    for limit in limits:
        _check_builders(limit)


@pytest.mark.parametrize("segment", [1, 4095, 4097, 5000, 3 * 4096])
def test_segment_builders_across_segment_edges(segment, monkeypatch):
    # segment edges inside the hyperbola's and the sieve's strides
    monkeypatch.setattr(accum, "_SEGMENT", segment)
    limit = 3000 if segment == 1 else 10**5 + 3
    want = [hi - lo for lo, hi in accum.segment_edges(limit + 1)]
    assert [seg.size for seg in von_mangoldt_segments(limit)] == want
    assert [seg.size for seg in generalized_divisor_segments(1.5, limit)] == want
    _check_builders(limit)
    _check_factor_pass(limit)
