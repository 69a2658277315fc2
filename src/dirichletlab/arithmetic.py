"""Integer tables: the arithmetic functions behind the weight catalog, one
accum segment at a time, plus the per-n generalized divisor value on an
explicit factorization.

Each segment builder here yields its values over the consecutive ranges
accum.segment_edges cuts and keeps none it has yielded once it resumes, so
a scan holds one segment at a time, and a whole table is the concatenation
of those segments.  The divisor count runs the hyperbola passes restricted
to each segment, in uint16: the passes i <= 12 are one tile of period
lcm(1..12) = 27 720 copied into the segment, the rest strided adds; the
prime indicator is a bool segment; both go to the scan as the integers
they are.  Primes and Lambda come from a byte sieve of
each segment by the primes <= sqrt(N) (a segmented sieve, Bays-Hudson,
BIT 17, 1977), with the prime powers p^k, k >= 2, added from one short
sorted list.  The multiplicative and additive tables (d_gamma, Omega,
prod nu_p!) come from one segmented factor pass by the same small primes,
and so does the prime signature that the ordered-factorization counts are
read from.

generalized_divisor works on an explicit factorization in exact integer
arithmetic, rounding once per prime power where the value is not an integer.
"""
from __future__ import annotations

import math

import numpy as np

from .accum import segment_edges
from .errors import RangeError

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


def generalized_divisor(gamma, f: Factorization) -> float:
    """Coefficient multiplicative in f with value rising(gamma,e)/e! at p^e.

    With gamma = a/b exactly (a float is a dyadic rational), each
    prime-power value prod_j (a + (j-1) b) / (j b) is an exact integer
    ratio, rounded once by int true division; the rounded values are
    multiplied from the largest prime down, the order
    generalized_divisor_segments uses, so the two agree bit for bit.  Integer
    gamma gives integer values, exact as floats (gamma=2 is the divisor count).
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
        del d  # the consumer's to keep: a builder holds one segment at a time


def _prime_masks(limit: int, small: np.ndarray):
    """(lo, mask) per accum segment [lo, hi) of 0..limit, mask[i] true iff
    lo + i is prime: the primes <= sqrt(limit), `small`, cross out their
    multiples from max(p*p, lo) on."""
    small = small.tolist()
    for lo, hi in segment_edges(limit + 1):
        yield lo, _prime_mask(lo, hi, small)  # unnamed: not kept while suspended


def _prime_mask(lo: int, hi: int, small: list) -> np.ndarray:
    mask = np.ones(hi - lo, dtype=bool)
    mask[: max(0, 2 - lo)] = False  # 0 and 1
    for p in small:
        if p * p >= hi:
            break
        mask[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return mask


def prime_segments(limit: int):
    """The prime indicator of 0..limit (bool), one accum segment at a time."""
    for _, mask in _prime_masks(limit, _small_primes(math.isqrt(limit))):
        yield mask
        del mask


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
        del mask  # its primes are in idx
        lam[idx] = np.log((idx + lo).astype(np.float64))
        del idx
        a, b = np.searchsorted(powers, [lo, lo + lam.size])
        lam[powers[a:b] - lo] = logs[a:b]
        yield lam
        del lam


_PIECE = 1 << 16  # entries per piece of the factor pass's temporaries: 512 KB of int64

OMEGA = (lambda e: e, np.add, np.int8)  # Omega(n), prime factors with multiplicity
EXPONENT_FACTORIAL = (math.factorial, np.multiply, np.float64)  # prod nu_p!


def factor_segments(limit: int, *rules):
    """Per accum segment of 0..limit, one table per rule (g, op, dtype) of
    f(p^e m) = op(g(e), f(m)), p prime and not dividing m.

    op=np.multiply builds a multiplicative table, op=np.add an additive one;
    slot 1 holds op's identity and slot 0 is 0.  Pass 1 multiplies
    prod[p^k multiples] *= p for the primes p <= sqrt(limit), so n has a
    prime factor above sqrt(limit), to the first power, exactly where
    prod != n (compared _PIECE entries at a time); each table starts there
    at g(1), at op's identity elsewhere.  Pass 2 walks the small primes in
    descending order and sets f[multiples of p] = op(g(e), f), _PIECE
    multiples at a time, the uint8 exponents e from strided += 1 over the
    p^k multiples: the largest prime is innermost, so a float table's bits
    are those of the recursion from the smallest prime factor down, whatever
    the segment cut.
    """
    small = _small_primes(math.isqrt(limit)).tolist()
    # g(0) and g(1) at least: limit 1 has bit_length 1 but reads g(1) below
    values = [np.array([g(e) for e in range(max(2, limit.bit_length()))], dtype=dtype)
              for g, _, dtype in rules]
    for lo, hi in segment_edges(limit + 1):
        yield _factor_tables(lo, hi, small, values, rules)  # unnamed: not kept while suspended


def _factor_tables(lo: int, hi: int, small: list, values: list, rules) -> list:
    """factor_segments' tables on the segment [lo, hi).

    Besides the tables it returns, it holds one int64 array of the segment's
    length in pass 1 (prod, beside the bool mask it leaves), and in pass 2
    one uint8 exponent per multiple of p and _PIECE values g(e) per table.
    """
    prod = np.ones(hi - lo, dtype=np.int64)
    for p in small:
        pk = p
        while (t := max(pk, -(-lo // pk) * pk)) < hi:  # the first multiple of p^k
            prod[t - lo :: pk] *= p
            pk *= p
    large = np.empty(hi - lo, dtype=bool)
    for a in range(0, hi - lo, _PIECE):
        b = min(a + _PIECE, hi - lo)
        np.not_equal(prod[a:b], np.arange(lo + a, lo + b), out=large[a:b])
    del prod
    tables = []
    for v, (_, op, dtype) in zip(values, rules):
        f = np.full(hi - lo, op.identity, dtype=dtype)
        f[large] = v[1]
        f[: max(0, 1 - lo)] = 0  # n = 0
        tables.append(f)
    bufs = [np.empty(_PIECE, dtype=v.dtype) for v in values]  # one piece of g(e) per table
    for p in reversed(small):
        s = max(p, -(-lo // p) * p) - lo  # the first multiple of p, as an offset
        pk = p * p
        e = None  # p's exponent in each multiple: 1 while no multiple of p^2 lies here
        if max(pk, -(-lo // pk) * pk) < hi:
            e = np.ones(len(range(s, hi - lo, p)), dtype=np.uint8)
            while (t := max(pk, -(-lo // pk) * pk)) < hi:
                e[(t - lo - s) // p :: pk // p] += 1
                pk *= p
        for f, v, buf, (_, op, _) in zip(tables, values, bufs, rules):
            fp = f[s::p]
            for a in range(0, fp.size, _PIECE):
                piece = fp[a : a + _PIECE]
                g = v[1]
                if e is not None:  # every e indexes v: "clip" skips the copy "raise" buffers,
                    # and take into a buffer reads uint8 indices faster than v[e] does
                    g = np.take(v, e[a : a + _PIECE], out=buf[: piece.size], mode="clip")
                op(g, piece, out=piece)
    return tables


def generalized_divisor_segments(gamma, limit: int):
    """generalized_divisor at n = 0..limit (0 at n = 0), bit for bit, one
    accum segment at a time."""
    rule = (lambda e: generalized_divisor(gamma, ((2, e),)), np.multiply, np.float64)
    for f, in factor_segments(limit, rule):
        yield f
        del f


def _ordered_factorization_count(key: int, q: list) -> int:
    """H(n) for the n whose prime signature has this key prod_p q(nu_p).

    The key's factors over q give the exponents nu_p; H(n) counts the ordered
    factorizations into exactly k factors > 1, by inclusion-exclusion over the
    d_i(n) = prod_p C(nu_p + i - 1, nu_p) factorizations into i factors >= 1,
    summed over k = 0..Omega(n) (the k = 0 term is H(1) = 1, and 0 past n = 1).
    """
    exponents = []
    for e, p in enumerate(q[1:], 1):
        while key % p == 0:
            key //= p
            exponents.append(e)
        if key == 1:
            break
    omega = sum(exponents)
    d = [math.prod(math.comb(e + i - 1, e) for e in exponents) for i in range(omega + 1)]
    return sum((-1) ** (k - i) * math.comb(k, i) * d[i]
               for k in range(omega + 1) for i in range(k + 1))


def ordered_factorization_segments(limit: int):
    """H(n), the ordered-factorization counts (int64, H(0) = 0), for
    n = 0..limit, one accum segment at a time.

    H(n) depends only on the multiset of n's prime exponents nu_p, and its
    key prod_p q(nu_p), q(e) the e-th prime, is one positive integer per
    multiset and <= n: the factor pass builds the key as a multiplicative
    int64 table, and a dense lookup H[key] gives the counts.  The lookup is
    filled in Python integers at the keys that occur, and extended whenever
    a segment's largest key passes its end.
    """
    q = [1, *_small_primes(limit.bit_length() ** 2 + 2).tolist()]  # q(e) < e^2 for e >= 2
    H = np.zeros(1, dtype=np.int64)  # the key of n = 0 is 0
    for key, in factor_segments(limit, (q.__getitem__, np.multiply, np.int64)):
        if (top := int(key.max())) >= H.size:
            H = np.concatenate([H, np.zeros(top + 1 - H.size, dtype=np.int64)])
        counts = H[key]
        new = np.flatnonzero(np.bincount(key[counts == 0]))
        new = new[new > 0]  # key 0 is n = 0's; H >= 1 at every other key
        if new.size:
            H[new] = [_ordered_factorization_count(m, q) for m in new.tolist()]
            counts = H[key]
        del key
        yield counts
        del counts
