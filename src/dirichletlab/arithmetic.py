"""Integer tables: smallest-prime-factor sieve, factorizations, and the
multiplicative/additive functions built from them.

Everything downstream (weight catalogs, coefficient identities) reads from a
SieveTable, so factorization cost is amortized to O(1) per query after the
O(N log log N) build.  The multiplicative and additive tables (d_gamma,
Omega, prod nu_p!) come from one vectorized pass over the spf array; the
divisor-count, von Mangoldt and ordered-factorization tables use slice
arithmetic.  The per-n operations work on an explicit factorization and use
exact integer arithmetic, rounding once per prime power where the value is
not an integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, RangeError

DEFAULT_BUDGET = 10**8

# A factorization is an ascending tuple of (prime, exponent) pairs; 1 -> ().
Factorization = tuple


@dataclass(frozen=True)
class SieveTable:
    """Smallest-prime-factor table for 2..limit, plus the prime list."""

    limit: int
    spf: np.ndarray
    primes: np.ndarray


def build_sieve(limit: int, budget: int = DEFAULT_BUDGET) -> SieveTable:
    """Sieve smallest prime factors up to limit.

    Refuses limits beyond the budget ceiling rather than thrashing memory.
    """
    if limit < 2:
        raise RangeError(f"sieve limit must be >= 2, got {limit}")
    if limit > budget:
        raise BudgetError(f"sieve limit {limit} exceeds budget {budget}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rem = np.flatnonzero(spf == 0)
    rem = rem[rem >= 2]
    spf[rem] = rem.astype(np.int32)
    primes = np.flatnonzero(spf == np.arange(limit + 1, dtype=np.int64))
    primes = primes[primes >= 2]
    spf.setflags(write=False)
    primes.setflags(write=False)
    return SieveTable(limit=limit, spf=spf, primes=primes)


def factorize(table: SieveTable, n: int) -> Factorization:
    """Factor n by repeated smallest-prime-factor division; pairs ascend."""
    n = int(n)
    if not 1 <= n <= table.limit:
        raise RangeError(f"n={n} outside tabulated range [1, {table.limit}]")
    spf = table.spf
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return tuple(out)


def reconstruct(f: Factorization) -> int:
    n = 1
    for p, e in f:
        n *= p**e
    return n


def divisors(f: Factorization) -> list:
    """All divisors of the factored integer, ascending."""
    out = [1]
    for p, e in f:
        out = [d * p**j for d in out for j in range(e + 1)]
    return sorted(out)


def divisor_count(f: Factorization) -> int:
    out = 1
    for _, e in f:
        out *= e + 1
    return out


def mobius(f: Factorization) -> int:
    for _, e in f:
        if e >= 2:
            return 0
    return -1 if len(f) % 2 else 1


def von_mangoldt(f: Factorization) -> float:
    """log p on prime powers p^k, zero elsewhere (including 1)."""
    if len(f) == 1:
        return math.log(f[0][0])
    return 0.0


def generalized_divisor(gamma, f: Factorization) -> float:
    """Coefficient multiplicative in f with value rising(gamma,e)/e! at p^e.

    With gamma = a/b exactly (a float is a dyadic rational), each
    prime-power value prod_j (a + (j-1) b) / (j b) is an exact integer
    ratio, rounded once by int true division; the rounded values are
    multiplied from the largest prime down, the order
    generalized_divisor_table uses, so the two agree bit for bit.  Integer
    gamma gives integer values, exact as floats (gamma=2 is divisor_count).
    """
    a, b = float(gamma).as_integer_ratio()
    total = 1.0
    for _, e in reversed(f):
        num = den = 1
        for j in range(1, e + 1):
            num *= a + (j - 1) * b
            den *= j * b
        total *= num / den
    return total


def ordered_factorizations(n: int, table: SieveTable) -> int:
    """Count ordered factorizations of n into parts > 1 (1 has exactly one,
    the empty product).  Exact integer arithmetic; memoized over the divisor
    lattice of n."""
    f = factorize(table, n)
    divs = divisors(f)
    counts = {1: 1}
    for m in divs[1:]:
        acc = 1  # the one-part factorization (m) itself
        for d in divs:
            if d >= m:
                break
            if d > 1 and m % d == 0:
                acc += counts[d]
        counts[m] = acc
    return counts[divs[-1]]


def ordered_factorization_table(limit: int) -> np.ndarray:
    """Ordered-factorization counts for 1..limit in one divisor-lattice pass.

    F[n] = 1 + sum of F[m] over proper divisors m > 1; processing m ascending
    makes each F[m] final before it is pushed onto its multiples.
    """
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
    F = np.zeros(limit + 1, dtype=np.int64)
    F[1:] = 1
    for m in range(2, limit // 2 + 1):
        F[2 * m :: m] += F[m]
    return F


def divisor_count_table(limit: int) -> np.ndarray:
    """d(n) for 1..limit via the hyperbola split (pairs i, n/i with i<=sqrt(n))."""
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i :: i] += 2
        d[i * i] -= 1
    return d


def von_mangoldt_table(table: SieveTable) -> np.ndarray:
    lam = np.zeros(table.limit + 1)
    primes = table.primes.astype(np.int64)
    logp = np.log(primes.astype(np.float64))
    power = primes.copy()
    k = power.size
    while k:
        lam[power[:k]] = logp[:k]
        power[:k] *= primes[:k]
        k = int(np.searchsorted(power[:k], table.limit, side="right"))
    return lam


def _spf_pass(table: SieveTable, *rules) -> list:
    """Tables over 0..limit of f(p^e m) = op(g(e), f(m)), p the smallest prime
    factor and p not dividing m, one per rule (g, op, dtype).

    op=np.multiply builds a multiplicative table, op=np.add an additive one;
    slot 1 holds op's identity and slot 0 is 0.  n runs through the dyadic
    ranges [2^k, 2^(k+1)): n // spf(n) <= n/2 lies in an earlier range, so
    every entry read is final.  Beside the tables the pass keeps the exponent
    e of spf(n) in n and the cofactor m = n / spf(n)^e, shared by all rules.
    """
    spf, limit = table.spf, table.limit
    values = [np.array([g(e) for e in range(limit.bit_length())], dtype=dtype)
              for g, _, dtype in rules]
    tables = [np.full(limit + 1, op.identity, dtype=dtype) for _, op, dtype in rules]
    for f in tables:
        f[0] = 0
    exp = np.zeros(limit + 1, dtype=np.int8)
    cof = np.ones(limit + 1, dtype=np.int32)
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, limit + 1)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int32) // p
        same = spf[m] == p
        exp[lo:hi] = np.where(same, exp[m] + 1, 1)
        cof[lo:hi] = np.where(same, cof[m], m)
        e, c = exp[lo:hi], cof[lo:hi]
        for f, v, (_, op, _) in zip(tables, values, rules):
            f[lo:hi] = op(v[e], f[c])
        lo = hi
    return tables


_OMEGA = (lambda e: e, np.add, np.int8)
_EXPONENT_FACTORIAL = (math.factorial, np.multiply, np.float64)


def generalized_divisor_table(gamma, table: SieveTable) -> np.ndarray:
    """generalized_divisor for every n in 0..limit (0 at n=0), bit for bit."""
    rule = (lambda e: generalized_divisor(gamma, ((2, e),)), np.multiply, np.float64)
    return _spf_pass(table, rule)[0]


def omega_table(table: SieveTable) -> np.ndarray:
    """Number of prime factors counted with multiplicity, for 0..limit."""
    return _spf_pass(table, _OMEGA)[0]


def exponent_factorial_table(table: SieveTable) -> np.ndarray:
    """Product of exponent factorials prod(nu_p!) for each n (1 at n=1)."""
    return _spf_pass(table, _EXPONENT_FACTORIAL)[0]


def omega_and_exponent_factorial_tables(table: SieveTable) -> tuple:
    """omega_table and exponent_factorial_table from one pass over the spf array."""
    return tuple(_spf_pass(table, _OMEGA, _EXPONENT_FACTORIAL))
