import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab.arithmetic import (
    SieveTable,
    build_sieve,
    divisor_count,
    divisor_count_table,
    divisors,
    exponent_factorial_table,
    factorize,
    generalized_divisor,
    generalized_divisor_table,
    mobius,
    omega_and_exponent_factorial_tables,
    omega_table,
    ordered_factorization_table,
    ordered_factorizations,
    reconstruct,
    von_mangoldt,
    von_mangoldt_table,
)
from dirichletlab.errors import BudgetError, RangeError


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


def test_spf_against_trial_division(table_small):
    for n in range(2, 3000):
        assert table_small.spf[n] == min(trial_factor(n))


def test_prime_list_against_sieve_of_eratosthenes(table_small):
    limit = 10_000
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    expected = np.flatnonzero(mask)
    got = table_small.primes[table_small.primes <= limit]
    assert np.array_equal(got, expected)


@given(st.integers(min_value=2, max_value=99_999))
@settings(max_examples=200)
def test_factorize_reconstruct_roundtrip(table_small, n):
    f = factorize(table_small, n)
    assert reconstruct(f) == n
    assert dict(f) == trial_factor(n)


def test_divisor_count_table_brute_force(table_small):
    d = divisor_count_table(500)
    for n in range(1, 501):
        assert d[n] == sum(1 for k in range(1, n + 1) if n % k == 0)


def test_divisors_listing(table_small):
    f = factorize(table_small, 360)
    ds = sorted(divisors(f))
    assert ds == sorted(k for k in range(1, 361) if 360 % k == 0)
    assert divisor_count(f) == len(ds)


def test_von_mangoldt_supported_on_prime_powers(table_small):
    lam = von_mangoldt_table(table_small)
    for n in range(1, 2000):
        f = trial_factor(n)
        if len(f) == 1:
            (p, _e), = f.items()
            assert lam[n] == pytest.approx(math.log(p), rel=1e-15)
        else:
            assert lam[n] == 0.0
    assert von_mangoldt(factorize(table_small, 81)) == pytest.approx(math.log(3))


def test_mobius_values_and_dirichlet_identity(table_small):
    # sum over divisors of mu is the indicator of n = 1
    for n in range(1, 1500):
        total = sum(mobius(factorize(table_small, d)) if d > 1 else 1
                    for d in divisors(factorize(table_small, n))) if n > 1 else 1
        assert total == (1 if n == 1 else 0)
    assert mobius(factorize(table_small, 30)) == -1
    assert mobius(factorize(table_small, 12)) == 0


def test_omega_table_counts_with_multiplicity(table_small):
    om = omega_table(table_small)
    for n in range(2, 2000):
        assert om[n] == sum(trial_factor(n).values())
    assert om[1] == 0
    assert om[4] == 2 and om[30] == 3


def test_exponent_factorial_table(table_small):
    ef = exponent_factorial_table(table_small)
    for n in range(1, 1000):
        expect = 1
        for e in trial_factor(n).values():
            expect *= math.factorial(e)
        assert ef[n] == expect


def test_omega_and_exponent_factorial_tables_from_one_pass(table_small):
    om, ef = omega_and_exponent_factorial_tables(table_small)
    assert om.dtype == np.int8 and ef.dtype == np.float64
    assert np.array_equal(om, omega_table(table_small))
    assert np.array_equal(ef, exponent_factorial_table(table_small))


def test_generalized_divisor_gamma2_is_divisor_count(table_small):
    g2 = generalized_divisor_table(2.0, table_small)
    d = divisor_count_table(10**5)
    assert np.array_equal(g2[1:], d[1:].astype(np.float64))
    assert generalized_divisor(2.0, factorize(table_small, 72)) == divisor_count(
        factorize(table_small, 72)
    )


def test_generalized_divisor_gamma3_by_convolution(table_small):
    # d_3 = d_2 * 1 pointwise via divisor sums
    g3 = generalized_divisor_table(3.0, table_small)
    d = divisor_count_table(500)
    for n in range(1, 501):
        expect = sum(d[k] for k in range(1, n + 1) if n % k == 0)
        assert g3[n] == pytest.approx(expect, rel=1e-12)


def test_generalized_divisor_gamma1_is_one(table_small):
    g1 = generalized_divisor_table(1.0, table_small)
    assert np.all(g1[1:2000] == 1.0)


def test_generalized_divisor_table_equals_per_n_value(table_small):
    gammas = (1 / 3, 0.7, 1.5, 2.5, 3.0)
    tables = [generalized_divisor_table(g, table_small) for g in gammas]
    for n in range(1, table_small.limit + 1):
        f = factorize(table_small, n)
        for g, t in zip(gammas, tables):
            assert t[n] == generalized_divisor(g, f), (g, n)


@pytest.mark.parametrize("limit", [2, 3, 4, 7, 8, 9, 15, 16, 17, 2**10 - 1, 2**10 + 1])
def test_spf_tables_at_dyadic_edges(limit):
    table = build_sieve(limit)
    om, ef = omega_table(table), exponent_factorial_table(table)
    gd = generalized_divisor_table(1 / 3, table)
    assert (om[0], om[1], ef[0], ef[1], gd[0], gd[1]) == (0, 0, 0.0, 1.0, 0.0, 1.0)
    for n in range(2, limit + 1):
        f = factorize(table, n)
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


def test_ordered_factorizations_against_recurrence(table_small):
    F = ordered_factorization_table(400)
    for n in range(1, 401):
        assert F[n] == ordered_factorizations_oracle(n)
    assert F[10] == 3  # 10, 2*5, 5*2
    assert ordered_factorizations(10, table_small) == 3


def test_ordered_factorizations_exact_for_large_counts(table_small):
    # for a prime power p^k the orderings biject with compositions of k,
    # so the count is exactly 2^(k-1); python ints keep it exact
    assert ordered_factorizations(2**16, table_small) == 2**15
    assert ordered_factorizations(3**10, table_small) == 2**9


def test_build_sieve_budget():
    with pytest.raises(BudgetError):
        build_sieve(10**7, budget=10**4)


def test_build_sieve_rejects_tiny_limit():
    with pytest.raises(RangeError):
        build_sieve(1)


def test_sieve_table_fields(table_small):
    assert isinstance(table_small, SieveTable)
    assert table_small.limit == 10**5
    assert table_small.spf[2] == 2 and table_small.spf[4] == 2


def sieve_reference(limit):
    """The per-prime masked sieve build_sieve replaced: (spf, primes)."""
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


@pytest.mark.parametrize("limits", [range(2, 3001), _square_edges(), [10**6]],
                         ids=["2..3000", "p^2-1,p^2,p^2+1", "1e6"])
def test_build_sieve_equals_reference_bit_for_bit(limits):
    for limit in limits:
        table = build_sieve(limit)
        spf, primes = sieve_reference(limit)
        assert table.spf.dtype == spf.dtype == np.int32
        assert table.primes.dtype == primes.dtype == np.int64
        assert np.array_equal(table.spf, spf), limit
        assert np.array_equal(table.primes, primes), limit
        assert not table.spf.flags.writeable and not table.primes.flags.writeable


def test_divisor_count_table_equals_reference():
    d = divisor_count_table(10**5)
    assert d.dtype == np.int32
    assert np.array_equal(d, divisor_count_reference(10**5))


@pytest.mark.parametrize("limit", [0, -1, -5])
def test_divisor_count_table_rejects_limits_below_one(limit):
    with pytest.raises(RangeError):
        divisor_count_table(limit)
