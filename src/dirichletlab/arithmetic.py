"""Integer tables: the arithmetic functions behind the weight catalog, one
accum segment at a time, plus a smallest-prime-factor sieve and per-n
operations on explicit factorizations, kept as oracles.

Each segment builder here yields its values over the consecutive ranges
accum.segment_edges cuts, so a scan holds one segment at a time, and a
whole table is the concatenation of those segments.  The divisor count runs
the hyperbola passes restricted to each segment, in uint16: the passes
i <= 12 are one tile of period lcm(1..12) = 27 720 copied into the segment,
the rest strided adds; the prime indicator is a bool segment; both go to the
scan as the integers they are.  Primes and Lambda come from a byte sieve of
each segment by the primes <= sqrt(N) (a segmented sieve, Bays-Hudson,
BIT 17, 1977), with the prime powers p^k, k >= 2, added from one short
sorted list.  The multiplicative and additive tables (d_gamma, Omega,
prod nu_p!) come from one segmented factor pass by the same small primes.
Only the ordered-factorization table, a divisor-lattice pass, is built
whole.

build_sieve writes the smallest prime factor into every n <= N (the primes
up to sqrt(N) from a small byte sieve, then each prime into its multiples
from p^2 on, in descending order, so the smallest lands last); factorize
reads it.  The per-n operations work on an explicit factorization and use
exact integer arithmetic, rounding once per prime power where the value is
not an integer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accum import segment_edges
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
    generalized_divisor_segments uses, so the two agree bit for bit.  Integer
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
    """Ordered-factorization counts for 1..limit in one divisor-lattice pass,
    built whole: limits past DEFAULT_BUDGET raise BudgetError, as in build_sieve.

    F[n] = 1 + sum of F[m] over proper divisors m > 1; processing m ascending
    makes each F[m] final before it is pushed onto its multiples.  Past
    limit // J the m with limit // m = j form a run whose divisors all lie
    below it and whose multiples k m (k = 2..j) all lie above it, so each k
    pushes the whole run as one strided add (exact: the entries are int64).
    """
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
    if limit > DEFAULT_BUDGET:
        raise BudgetError(f"ordered-factorization limit {limit} exceeds budget {DEFAULT_BUDGET}")
    F = np.zeros(limit + 1, dtype=np.int64)
    F[1:] = 1
    J = max(2, round(limit ** (1 / 3)))  # ~limit / J single pushes, ~J^2 / 2 run pushes
    for m in range(2, limit // J + 1):
        F[2 * m :: m] += F[m]
    for j in range(J - 1, 1, -1):
        lo, hi = limit // (j + 1) + 1, limit // j + 1
        for k in range(2, j + 1):
            F[k * lo : k * hi : k] += F[lo:hi]
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
    limits raise RangeError, as do limits below 1.
    """
    if limit < 1:
        raise RangeError(f"limit must be >= 1, got {limit}")
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


OMEGA = (lambda e: e, np.add, np.int8)  # Omega(n), prime factors with multiplicity
EXPONENT_FACTORIAL = (math.factorial, np.multiply, np.float64)  # prod nu_p!


def factor_segments(limit: int, *rules):
    """Per accum segment of 0..limit, one table per rule (g, op, dtype) of
    f(p^e m) = op(g(e), f(m)), p prime and not dividing m.

    op=np.multiply builds a multiplicative table, op=np.add an additive one;
    slot 1 holds op's identity and slot 0 is 0.  Pass 1 multiplies
    prod[p^k multiples] *= p for the primes p <= sqrt(limit), so n has a
    prime factor above sqrt(limit), to the first power, exactly where
    prod != n; each table starts there at g(1), at op's identity elsewhere.
    Pass 2 walks the small primes in descending order and sets
    f[multiples of p] = op(g(e), f), the exponents e from strided += 1 over
    the p^k multiples: the largest prime is innermost, so a float table's
    bits are those of the recursion from the smallest prime factor down,
    whatever the segment cut.
    """
    small = _small_primes(math.isqrt(limit)).tolist()
    values = [np.array([g(e) for e in range(limit.bit_length())], dtype=dtype)
              for g, _, dtype in rules]
    for lo, hi in segment_edges(limit + 1):
        prod = np.ones(hi - lo, dtype=np.int64)
        for p in small:
            pk = p
            while (t := max(pk, -(-lo // pk) * pk)) < hi:  # the first multiple of p^k
                prod[t - lo :: pk] *= p
                pk *= p
        large = prod != np.arange(lo, hi)
        del prod
        tables = []
        for v, (_, op, dtype) in zip(values, rules):
            f = np.full(hi - lo, op.identity, dtype=dtype)
            f[large] = v[1]
            f[: max(0, 1 - lo)] = 0  # n = 0
            tables.append(f)
        for p in reversed(small):
            s = max(p, -(-lo // p) * p) - lo  # the first multiple of p, as an offset
            pk = p * p
            e = 1  # p's exponent in each multiple: 1 while no multiple of p^2 lies here
            if max(pk, -(-lo // pk) * pk) < hi:
                e = np.ones(len(range(s, hi - lo, p)), dtype=np.intp)
                while (t := max(pk, -(-lo // pk) * pk)) < hi:
                    e[(t - lo - s) // p :: pk // p] += 1
                    pk *= p
            for f, v, (_, op, _) in zip(tables, values, rules):
                fp = f[s::p]
                op(v[e], fp, out=fp)
        yield tables


def generalized_divisor_segments(gamma, limit: int):
    """generalized_divisor at n = 0..limit (0 at n = 0), bit for bit, one
    accum segment at a time."""
    rule = (lambda e: generalized_divisor(gamma, ((2, e),)), np.multiply, np.float64)
    return (f for f, in factor_segments(limit, rule))
