"""Integer tables: smallest-prime-factor sieve, factorizations, and the
multiplicative/additive functions built from them.

Everything downstream that needs factorizations (dgamma, besov, the per-n
operations) reads from a SieveTable, so factorization cost is amortized to
O(1) per query after the O(N log log N) build.  The build finds the primes
up to sqrt(N) with a small byte sieve, then writes p into every multiple of
p from p^2 on, for those primes in descending order, so the smallest prime
factor is written last; the slots left at zero past 1 are the primes.  The
multiplicative and additive tables (d_gamma, Omega, prod nu_p!) come from one
vectorized pass over the spf array; the ordered-factorization table uses
slice arithmetic.

The divisor count, the von Mangoldt function and the prime indicator need no
spf array: each has one segment builder that yields its values over the
consecutive ranges accum.segment_edges cuts, so a scan holds one segment at
a time, and its whole table is the concatenation of those segments.  The
divisor count runs the hyperbola passes restricted to each segment, in
uint16: the passes i <= 12 are one tile of period lcm(1..12) = 27 720
copied into the segment, the rest strided adds; the prime indicator is a
bool segment; both go to the scan as the integers they are.  Primes and
Lambda come from a byte sieve of each segment by the primes <= sqrt(N)
(a segmented sieve, Bays-Hudson, BIT 17, 1977), with the prime powers p^k,
k >= 2, added from one short sorted list.  The per-n operations work on an
explicit factorization and use exact integer arithmetic, rounding once per
prime power where the value is not an integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import join_segments, segment_edges
from .errors import BudgetError, RangeError

DEFAULT_BUDGET = 10**8

# A factorization is an ascending tuple of (prime, exponent) pairs; 1 -> ().
Factorization = tuple


def _small_primes(n: int) -> np.ndarray:
    """The primes <= n (int64), by a byte sieve of 0..n."""
    small = np.ones(n + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if small[p]:
            small[p * p :: p] = False
    return np.flatnonzero(small)


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
    # a composite n has its smallest prime p <= sqrt(n), so it lies in p*p::p
    for p in _small_primes(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
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


_TILED = 12  # the hyperbola passes i <= _TILED come from one periodic tile
_TILE = math.lcm(*range(1, _TILED + 1))  # 27 720 entries, 54 KB of uint16
_DIVISOR_LIMIT = 10**15  # d(n) <= 26 880 < 2^16 up to here


def divisor_count_segments(limit: int):
    """d(n) for n = 0..limit (uint16, d(0) = 0), one accum segment at a time.

    The hyperbola split counts the divisor pairs (i, n/i) with i <= sqrt(n):
    the passes d[i*i::i] += 2 and d[i*i] -= 1, restricted to the segment, for
    every i with i*i in or below it.  Past n = _TILED^2 the passes i <= _TILED
    add 2 for each such i dividing n, a pattern of period lcm(1.._TILED), so
    each segment starts as that tile, read from its offset, with n <= _TILED^2
    overwritten by the passes themselves; the passes i > _TILED run as
    strided adds.  uint16 entries: d(n) <= 26 880 for n <= 10^15, and larger
    limits raise RangeError.
    """
    if limit > _DIVISOR_LIMIT:
        raise RangeError(f"d(n) past n = {_DIVISOR_LIMIT:.0e} may not fit in 16 bits, "
                         f"got limit {limit}")
    tile = np.zeros(_TILE, dtype=np.uint16)
    head = np.zeros(_TILED**2 + 1, dtype=np.uint16)  # the passes i <= _TILED on 0.._TILED^2
    for i in range(1, _TILED + 1):
        tile[::i] += 2
        head[i * i :: i] += 2
        head[i * i] -= 1
    for lo, hi in segment_edges(limit + 1):
        d = np.resize(np.roll(tile, -(lo % _TILE)), hi - lo)  # the tile from n = lo on
        if lo < head.size:
            d[: head.size - lo] = head[lo : lo + d.size]
        for i in range(_TILED + 1, math.isqrt(hi - 1) + 1):
            square = i * i
            d[max(square, -(-lo // i) * i) - lo :: i] += 2
            if square >= lo:
                d[square - lo] -= 1
        yield d


def divisor_count_table(limit: int) -> np.ndarray:
    """d(n) for 0..limit: the concatenation of divisor_count_segments."""
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
    return join_segments(divisor_count_segments(limit), limit + 1, np.int32)


def _prime_masks(limit: int, small: np.ndarray):
    """(lo, mask) per accum segment [lo, hi) of 0..limit, mask[i] true iff
    lo + i is prime: the primes <= sqrt(limit), `small`, cross out their
    multiples from max(p*p, lo) on."""
    small = small.tolist()
    for lo, hi in segment_edges(limit + 1):
        mask = np.ones(hi - lo, dtype=bool)
        mask[: max(0, 2 - lo)] = False  # 0 and 1
        for p in small:
            if p * p >= hi:
                break
            mask[max(p * p, -(-lo // p) * p) - lo :: p] = False
        yield lo, mask


def prime_segments(limit: int):
    """The prime indicator of 0..limit (bool), one accum segment at a time."""
    return (mask for _, mask in _prime_masks(limit, _small_primes(math.isqrt(limit))))


def von_mangoldt_segments(limit: int):
    """Lambda(n) for n = 0..limit, one accum segment at a time.

    log p at each prime p of the segment and at each prime power p^k, k >= 2,
    that falls in it; every log is np.log of the float64 prime, the values
    the spf-based table gave.
    """
    small = _small_primes(math.isqrt(limit))
    logp = np.log(small.astype(np.float64))
    powers, logs = [small[:0]], [logp[:0]]
    power, k = small, small.size
    while k:  # p^2, p^3, ... <= limit; p^j ascends with p, so searchsorted cuts
        power = power[:k] * small[:k]
        k = int(np.searchsorted(power, limit, side="right"))
        powers.append(power[:k])
        logs.append(logp[:k])
    powers, logs = np.concatenate(powers), np.concatenate(logs)
    order = np.argsort(powers)
    powers, logs = powers[order], logs[order]
    for lo, mask in _prime_masks(limit, small):
        lam = np.zeros(mask.size)
        idx = np.flatnonzero(mask)
        lam[idx] = np.log((idx + lo).astype(np.float64))
        a, b = np.searchsorted(powers, [lo, lo + mask.size])
        lam[powers[a:b] - lo] = logs[a:b]
        yield lam


_SPF_RANGE = 1 << 18  # the most n one step of _spf_pass handles


def _spf_pass(table: SieveTable, *rules) -> list:
    """Tables over 0..limit of f(p^e m) = op(g(e), f(m)), p the smallest prime
    factor and p not dividing m, one per rule (g, op, dtype).

    op=np.multiply builds a multiplicative table, op=np.add an additive one;
    slot 1 holds op's identity and slot 0 is 0.  n runs through the ranges
    [lo, min(2 lo, lo + _SPF_RANGE)): n // spf(n) <= n/2 < lo lies in an
    earlier range, so every entry read is final, and no range's temporaries
    exceed _SPF_RANGE entries.  Beside the tables the pass keeps the exponent
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
        hi = min(2 * lo, lo + _SPF_RANGE, limit + 1)
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


def omega_and_exponent_factorial_tables(table: SieveTable) -> tuple:
    """From one pass over the spf array: Omega(n), the number of prime factors
    counted with multiplicity (int8), and prod(nu_p!), the product of the
    exponent factorials (float64, 1 at n=1), for n in 0..limit."""
    return tuple(_spf_pass(table, _OMEGA, _EXPONENT_FACTORIAL))
