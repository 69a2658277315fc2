"""Compensated summation helpers and the Dirichlet-sum engine.

Exactly rounded scalar sums go through exact_sum, which has math.fsum's bits
without a Python float per value: each significand is cut into two parts,
summed exactly per exponent by np.bincount, and the sum is rounded once from
one Python integer.  Prefix sums use a chunked cumulative sum whose chunk
offsets are themselves exactly rounded, so the worst-case relative error of
any prefix is ~chunk_len*eps of the local chunk plus one rounding of the
offset; with the chunk of 4096 that stays below 1e-12 even for 1e7-term
sums.  The exactly rounded chunk totals of
float data come from one error-free extraction per chunk (Rump-Ogita-Oishi,
SIAM J. Sci. Comput. 31, 2008): an exact sum of the chunk's high parts plus
an np.sum of its low parts, accepted only under a proven error bound, with
an exact_sum fallback per chunk; bool and integer data of at most
32 bits is summed as it is, each chunk total an exact int64 row sum, with no
float64 copy of the segment.  The offsets are one exact integer sum of the
totals, rounded once per offset, so a prefix-sum pass costs O(N) array work
plus O(N / 4096) Python steps.

The Dirichlet-sum engine evaluates sum a_n n^(-s) at many s from per-block
Taylor moments (the Taylor-block idea of Odlyzko-Schonhage, Trans. AMS 309,
1988) in two steps: block_moments reads the coefficients once, and
moment_sums evaluates the moments at real s or on a sigma x t tensor grid of
complex s = sigma + it, each further s costing O(blocks), not O(N).  On a
complex grid the head's phases e^(-it log n), n <= 4096, come from a cached
read-only table per t grid (_phase_table); the last two grids are kept,
which for a local norm over a unit window (32 and 16 t nodes) is 4096 x 48
complex entries, 3 MB, so every member of a family shares its two tables.  Every
value carries a proven Taylor remainder.  The block width follows from the
largest |s| the moments must serve (see _block_width), so the remainder stays
near 1e-15 of sum |a_n| n^(-sigma) as the t-window widens.

Every pass over a segment stream (scan, join_segments, the sampling measure,
the weights' streams) walks it through with_offsets, which pairs each segment
with its offset and refuses any cut but segment_edges' (_SEGMENT = 2^18
entries, 2 MB of float64, whole 4096-chunks), so no chunk straddles a
segment edge.  A moment block is summed as the leaves of numpy's pairwise
tree, at most _LEAF entries each, and only the leaf that a segment edge cuts
is carried into the next segment, so a sequence never held whole gives the
same bits as an array (its moments, prefix sums and S(x) at given
checkpoints) while the scan holds one segment, one leaf and one scratch of
_ROWS chunks for the chunk totals.  The sieves of arithmetic fill windows of
four segments and hand them out one segment at a time.  compensated_cumsum
and block_moments are that scan over the views of one array.  A stream of
arrays of any lengths is summed by exact_sum, which drops each array before
it asks for the next.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import RangeError

_CHUNK = 4096
_ROWS = 8  # chunks per batch of _certified_totals: 256 KB per scratch buffer
_SEGMENT = 1 << 18  # entries per segment of a scan: 2 MB of float64
_LEAF = 8 * _CHUNK  # entries per leaf of a moment block's sum tree (>= 272): 256 KB of float64

# Dirichlet-sum engine: terms n <= _HEAD are summed directly; the rest is cut
# into blocks of relative width ~_WIDTH, each expanded to _MOMENTS Taylor
# terms.  With |x| <= 1/64 the truncation stays near 1e-16 of a block's own
# sum up to s = 3.3, the top of the CLI's profile grid (sigma0 + 1.5 with
# sigma0 <= 1.73), and below 1e-15 up to |s| = 5; past that the blocks narrow.
_HEAD = 4096
_WIDTH = 1.0 / 32.0
_MOMENTS = 10


# exact_sum reads _PIECE entries at a time, and cuts each significand into a
# low part of _LOW bits and a high part of the other 27: per exponent, a
# piece's parts then sum to less than 2^14 * 2^27 = 2^41, exact in float64.
_PIECE = 1 << 14
_LOW = 26
_SCALE = 1 << 1074  # _ExactSum.exact counts units of 2^-1074, the least subnormal


class _ExactSum:
    """The exact sum of float64 values, added a piece at a time (add) or one
    Python float at a time (add_float).

    A finite value x is m * 2^(e - 1075), with e = max(1, its exponent field)
    and m a signed integer below 2^53 in magnitude, which splits as
    m = hi * 2^26 + lo with |hi| <= 2^27 and 0 <= lo < 2^26.  np.bincount(e,
    weights=part) sums each part of a piece per exponent, exactly, and the
    per-exponent sums fold into one Python integer in units of 2^-1074,
    which int / int rounds once, correctly (the superaccumulator of Neal,
    arXiv:1505.05571).

    The nan and inf values are kept aside in order.  math.fsum drops its
    finite partials at each of them, so the finite values are summed in runs
    between them, and a run whose exact sum lies past the float64 range
    raises OverflowError there, as fsum's partials do.
    """

    def __init__(self):
        self.exact = 0  # the open run's sum, times 2^1074
        self.special: list = []  # the nan and inf values

    def add(self, x: np.ndarray):
        for lo in range(0, x.size, _PIECE):
            self._piece(x[lo : lo + _PIECE])

    def _piece(self, x: np.ndarray):
        if not x.size:
            return
        bits = x.view(np.int64)
        e = bits >> 52
        e &= 0x7FF
        if e.max() == 0x7FF:  # a nan or inf: close the run before each
            cut = 0
            for i in np.flatnonzero(e == 0x7FF).tolist():
                self._piece(x[cut:i])
                self.add_float(float(x[i]))
                cut = i + 1
            self._piece(x[cut:])
            return
        # three int64 temporaries of the piece's size: e, m and one buffer
        buf = np.minimum(e, 1)  # 1 for normal values: their implicit bit
        np.maximum(e, 1, out=e)  # a subnormal scales as exponent field 1
        m = bits & ((1 << 52) - 1)
        m |= np.left_shift(buf, 52, out=buf)
        sign = np.right_shift(bits, 63, out=buf)  # -1 for a negative value, else 0
        m ^= sign
        m -= sign  # two's complement: -m where the value is negative
        hi = np.right_shift(m, _LOW, out=buf)  # floor division: lo = m - hi * 2^26 >= 0
        m &= (1 << _LOW) - 1
        hi = np.bincount(e, weights=hi)  # per exponent: integers below 2^41
        lo = np.bincount(e, weights=m)
        used = np.flatnonzero((hi != 0.0) | (lo != 0.0))
        for k, h, l in zip(used.tolist(), hi[used].tolist(), lo[used].tolist()):
            self.exact += ((int(h) << _LOW) + int(l)) << (k - 1)

    def add_float(self, x: float):
        """Add one Python float: exactly if finite, else close the run there."""
        if math.isfinite(x):
            n, d = x.as_integer_ratio()  # d = 2^k, k <= 1074
            self.exact += n << (1075 - d.bit_length())
        else:
            self.rounded()  # OverflowError if the closed run is past the float64 range
            self.exact = 0
            self.special.append(x)

    def rounded(self) -> float:
        """The open run's sum, rounded once: OverflowError past the float64 range."""
        return self.exact / _SCALE

    def value(self) -> float:
        total = self.rounded()  # +0.0 for an exact zero, as fsum gives
        if self.special:
            return math.fsum(self.special)  # nan, +-inf, or ValueError for inf - inf
        return total


def exact_sum(chunks) -> float:
    """math.fsum of the values of an iterable of float64 arrays, bit for bit.

    The sum is exact, kept per exponent by np.bincount (see _ExactSum), and
    rounded once, so it costs a few array passes per value, not a Python
    float each; the arrays are read _PIECE entries at a time, so the
    temporaries stay bounded, and each array is let go before the next is
    asked for, so a generator's arrays are held one at a time.  Non-finite
    values go to math.fsum itself, so nan, +-inf and the ValueError of
    -inf + inf are fsum's, and a finite sum past the float64 range raises
    OverflowError.  One edge differs: where
    fsum's partials overflow on the way, but the exact sum rounds to
    +-DBL_MAX, fsum raises OverflowError and this returns +-DBL_MAX
    (compensated_cumsum has the same edge).
    """
    acc = _ExactSum()
    for x in chunks:
        acc.add(np.asarray(x, dtype=np.float64).reshape(-1))
        del x  # freed before the stream makes the next one
    return acc.value()


def compensated_sum(a) -> float:
    """Sum of a float array: math.fsum of the np.sum totals of its 4096-value chunks.

    Matches fsum to ~1e-14 relative on positive 1e7-term arrays while staying
    vectorized (fsum alone walks the array in Python); exact_sum has fsum's
    own bits at a few array passes per value.
    """
    a = np.asarray(a, dtype=np.float64)
    return math.fsum(float(np.sum(a[i : i + _CHUNK])) for i in range(0, a.size, _CHUNK))


def _two_sum(a, b):
    """(s, t) with s = fl(a + b) and s + t = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _certified_totals(rows: np.ndarray, scratch: np.ndarray) -> tuple:
    """Exactly rounded sums of the rows of a (K, 4096) array, where provable.

    Returns (totals, ok); totals[k] equals math.fsum(rows[k]) wherever ok[k].
    One error-free extraction per row (Rump-Ogita-Oishi, SIAM J. Sci.
    Comput. 31, 2008): with M = max|x_i|, 2^(e-1) <= M < 2^e and
    sigma = 2^(e+13), q_i = fl(fl(sigma + x_i) - sigma) is a multiple of
    2^-53 sigma, and |sum q_i| < sigma, so tau = sum q_i is exact in any
    order; r_i = x_i - q_i is exact and |r_i| <= 2^-53 sigma.  np.sum(r)
    then misses sum r_i by at most gamma_4095 * 4096 * 2^-53 sigma < 2^-81
    sigma = delta, and TwoSum(tau, np.sum(r)) = (T, t) leaves the exact sum
    within delta of T + t.  T is the exactly rounded sum when t +- delta
    lies strictly inside T's rounding cell, whose halves differ at powers
    of two.  Rows that are not finite, have M outside [2^-900, 2^1000), or
    sit too close to a rounding tie are left to the caller; a row of zeros
    totals 0.  Scratch: `scratch`, a (2, _ROWS, 4096) float64 array that
    the caller keeps for all its segments.
    """
    K = rows.shape[0]
    tau, rho, M = np.empty(K), np.empty(K), np.empty(K)
    q, r = scratch
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, K, _ROWS):
            x = rows[lo : lo + _ROWS]
            n = x.shape[0]
            qk, rk = q[:n], r[:n]
            M[lo : lo + n] = m = np.abs(x, out=qk).max(axis=1)
            sigma = np.ldexp(1.0, np.frexp(m)[1] + 13)[:, None]
            np.add(x, sigma, out=qk)
            qk -= sigma
            np.subtract(x, qk, out=rk)
            tau[lo : lo + n] = qk.sum(axis=1)
            rho[lo : lo + n] = rk.sum(axis=1)
        total, t = _two_sum(tau, rho)
        delta = np.ldexp(1.0, np.frexp(M)[1] - 68)  # 2^-81 sigma
        up = np.nextafter(total, np.inf) - total
        down = total - np.nextafter(total, -np.inf)
        ok = (M >= 2.0**-900) & (M < 2.0**1000)
        ok &= (t + delta < 0.5 * up) & (t - delta > -0.5 * down)
    zero = M == 0.0  # fsum of zeros is +0.0, whatever their signs
    total[zero] = 0.0
    return total, ok | zero


class _PrefixPass:
    """compensated_cumsum's chunk pass over a sequence fed segment by segment.

    Chunk k holds the entries 4096k..4096k+4095 of the whole sequence, and
    every segment starts on a chunk edge (scan checks the cut), so a segment
    is whole chunks and, the last one only, a short tail.  The finite
    totals are added up exactly in an _ExactSum, and each chunk's offset is
    that sum rounded once by int / int, which is correctly rounded:
    math.fsum of the earlier totals.  So every prefix written to out and
    S(x) at the checkpoints are the bits that compensated_cumsum gives on
    the whole array, read as float64.  A bool or
    integer segment is read as it is: its chunk totals are exact int64 row
    sums, not _certified_totals' extraction, and its cumsums are exact in
    any dtype.  One _certified_totals scratch serves every float segment.
    """

    def __init__(self, size: int, checkpoints, out):
        self.totals = _ExactSum()  # the chunk totals so far
        self.scratch = None  # _certified_totals' buffers, made by the first float segment
        xs = np.asarray(checkpoints, dtype=np.int64).ravel()
        if xs.size and not (0 <= xs.min() and xs.max() < size):
            raise RangeError(f"checkpoints must lie in [0, {size - 1}]")
        self.order = np.argsort(xs, kind="stable")
        self.xs = xs[self.order]
        self.sums = np.empty(xs.size)
        self.read = 0  # checkpoints read so far, in ascending order
        self.out = out

    def feed(self, seg: np.ndarray, lo: int):
        # bool or integers of at most 32 bits: every chunk total (|total| < 2^44)
        # and every prefix inside a chunk is an exact float64
        exact = seg.dtype.kind in "biu" and seg.dtype.itemsize <= 4
        if not exact:
            seg = np.asarray(seg, dtype=np.float64)
        K = seg.size // _CHUNK
        rows, tail = seg[: K * _CHUNK].reshape(K, _CHUNK), seg[K * _CHUNK :]
        if exact:  # an int64 row sum is exact, and so is its float64 value
            totals = rows.sum(axis=1, dtype=np.int64).astype(np.float64).tolist()
        else:
            if self.scratch is None:
                self.scratch = np.empty((2, _ROWS, _CHUNK))
            totals, ok = _certified_totals(rows, self.scratch)
            totals = [t if c else None for t, c in zip(totals.tolist(), ok.tolist())]
        offsets = [self._close(rows[r], totals[r]) for r in range(K)]
        if tail.size:
            offsets.append(self._close(tail, None))
        offsets = np.array(offsets)
        if self.out is not None:
            out_rows = self.out[lo : lo + K * _CHUNK].reshape(K, _CHUNK)
            np.cumsum(rows, axis=1, out=out_rows)
            out_rows += offsets[:K, None]
            out_tail = self.out[lo + K * _CHUNK : lo + seg.size]
            np.cumsum(tail, out=out_tail)
            out_tail += offsets[K:]
        self._read(seg, lo, offsets)

    def _close(self, chunk, total) -> float:
        # compensated_cumsum's loop body: the chunk's offset, then its total.
        # The offset is fsum's value of the earlier totals (see _ExactSum):
        # OverflowError past the float64 range, also on the finite totals
        # after a nan or inf one, and the sum of the nan and inf totals
        # once there is one (ValueError for inf - inf)
        offset = self.totals.value()
        self.totals.add_float(exact_sum((chunk,)) if total is None else total)
        return offset

    def _read(self, seg, lo: int, offsets):
        """S(x) at the checkpoints inside seg: per chunk, one cumsum up to its
        last point plus the chunk's offset, the bits compensated_cumsum writes."""
        stop = int(np.searchsorted(self.xs, lo + seg.size))
        xs = self.xs[self.read : stop] - lo
        sums = np.empty(xs.size)
        chunk = xs // _CHUNK
        starts = np.flatnonzero(np.diff(chunk, prepend=-1)).tolist()
        for i, j in zip(starts, starts[1:] + [xs.size]):
            c0 = int(chunk[i]) * _CHUNK
            js = xs[i:j] - c0
            sums[i:j] = np.cumsum(seg[c0 : c0 + int(js[-1]) + 1])[js] + offsets[chunk[i]]
        self.sums[self.order[self.read : stop]] = sums
        self.read = stop


class BlockMoments(NamedTuple):
    """Per-block Taylor moments of sum a_n n^(-s), built once by block_moments."""

    head: np.ndarray  # a_1..a_H, H = min(N, 4096), summed directly
    centre: np.ndarray  # block centres c_k
    xmax: np.ndarray  # largest |n/c_k - 1| over block k
    mass: np.ndarray  # sum of |a_n| over block k
    mom: np.ndarray  # mom[k, m] = sum over block k of a_n (n/c_k - 1)^m


def _block_width(s_max: float) -> float:
    # |binom(-s, M)| <= prod_(j<M) (|s| + j) / M!; past |s| = 5 the width
    # shrinks so that this factor times (width/2)^M keeps its |s| = 5 value
    if not 5.0 < s_max < math.inf:  # no finite width serves s_max = inf or nan
        return _WIDTH
    ratio = math.prod((5.0 + j) / (s_max + j) for j in range(_MOMENTS))
    return _WIDTH * ratio ** (1.0 / _MOMENTS)


def _half(n: int) -> int:
    # numpy's float64 pairwise sum of n > 128 entries adds the sums of its
    # first n2 and its last n - n2 entries, n2 = n // 2 rounded down to a
    # multiple of 8 (numpy 2.4; tests/test_accum.py checks it against np.sum)
    return n // 2 - n // 2 % 8


def _leaves(n: int, leaf: float, odd: bool = False) -> list:
    """The lengths, in order, of the nodes at even depths of at most `leaf`
    entries that np.sum's pairwise tree over n float64 entries splits into.

    leaf >= 272, so that every node at an odd depth has more than 128
    entries and splits again.
    """
    if not odd and n <= leaf:
        return [n]
    return _leaves(_half(n), leaf, not odd) + _leaves(n - _half(n), leaf, not odd)


def _fold(n: int, sums, leaf: float, odd: bool = False):
    """np.sum of n float64 entries, bit for bit, from an iterator over the
    np.sum of each of its _leaves(n, leaf) as a 1-D array (numpy's array add
    keeps the left nan of two), added up in the tree's order.  Where two nans
    meet, numpy's compiled tree keeps the left one at even depths and the
    right one at odd depths (IEEE 754 leaves the choice open); the fold does
    the same, and a leaf starts at an even depth, as np.sum of it does."""
    if not odd and n <= leaf:
        return next(sums)
    left = _fold(_half(n), sums, leaf, not odd)
    right = _fold(n - _half(n), sums, leaf, not odd)
    return right + left if odd else left + right


class _MomentPass:
    """block_moments' per-block loop over a sequence fed segment by segment.

    Each sum over a float64 block is np.sum's pairwise tree replayed: the
    block is cut into the tree's nodes of at most _LEAF entries (_leaves),
    each leaf is copied into one buffer, where |a_n| and the ten moment
    passes sum it while it sits in cache, and the leaf sums are added up in
    the tree's order (_fold), so every sum has np.sum's bits over the whole
    block.  A leaf that a segment edge cuts is copied together in the buffer
    across segments; that buffer and the finished leaf sums of the open
    block are all the state the pass carries.  A complex block, whose np.sum
    splits differently, is one leaf: its buffer holds the largest block.
    A segment of another dtype (the integer weights) is converted only
    leaf by leaf.
    """

    def __init__(self, size: int, s_max: float):
        N = size - 1
        width = _block_width(float(s_max))
        edges = [_HEAD]  # block k holds the integers (edges[k], edges[k + 1]]
        while edges[-1] < N:
            edges.append(min(N, max(edges[-1] + 1, int(edges[-1] * (1.0 + width)))))
        self.edges = edges
        self.H = max(0, min(N, _HEAD))
        K = len(edges) - 1
        self.centre = np.empty(K)
        self.xmax = np.empty(K)
        self.mass = np.empty(K)
        self.k = 0  # blocks done
        self.bounds = None  # the open block's leaf edges, as offsets into it
        self.sums = []  # the open block's finished leaves: (mass, M_0..M_9) each
        self.head = self.mom = self.buf = None  # typed by the first segment

    def _allocate(self, dtype):
        self.head = np.empty(self.H, dtype=dtype)
        self.mom = np.empty((self.centre.size, _MOMENTS), dtype=dtype)
        self.leaf = math.inf if dtype == np.complex128 else _LEAF
        largest = max((b - a for a, b in zip(self.edges, self.edges[1:])), default=0)
        self.buf = np.empty(min(self.leaf, largest), dtype=dtype)

    def feed(self, seg: np.ndarray, lo: int):
        if self.mom is None:
            self._allocate(np.complex128 if np.iscomplexobj(seg) else np.float64)
        hi = lo + seg.size
        a, b = max(lo, 1), min(hi, self.H + 1)  # the head is a_1..a_H
        if a < b:
            self.head[a - 1 : b - 1] = seg[a - lo : b - lo]
        # inf weights (the spiked demo family) meet x <= 0 in the moments; the
        # resulting nans are replaced in result()
        with np.errstate(invalid="ignore"):
            while self.k < self.centre.size:
                if self.bounds is None:
                    n = self.edges[self.k + 1] - self.edges[self.k]
                    self.bounds = [0, *itertools.accumulate(_leaves(n, self.leaf))]
                j = len(self.sums)
                b0 = self.edges[self.k] + 1  # the block's first entry
                l0, l1 = b0 + self.bounds[j], b0 + self.bounds[j + 1]  # the leaf's [l0, l1)
                if l0 >= hi:
                    return
                a, b = max(l0, lo), min(l1, hi)
                self.buf[a - l0 : b - l0] = seg[a - lo : b - lo]
                if l1 > hi:
                    return
                self._leaf(self.buf[: l1 - l0], l0 - b0)

    def _leaf(self, p: np.ndarray, start: int):
        """Sums the open block's leaf p, the block's entries from `start` on;
        its last leaf closes the block."""
        lo, hi = self.edges[self.k], self.edges[self.k + 1]
        half = 0.5 * (hi - lo - 1)
        centre = lo + 1 + half
        row = np.empty(_MOMENTS + 1, dtype=p.dtype)
        row[0] = np.abs(p).sum()
        x = np.arange(start, start + p.size, dtype=np.float64)
        x -= half
        x /= centre
        for m in range(_MOMENTS):
            row[m + 1] = p.sum()
            if m + 1 < _MOMENTS:
                p *= x
        self.sums.append(row)
        if len(self.sums) + 1 < len(self.bounds):
            return
        k = self.k
        row = _fold(hi - lo, iter(self.sums), self.leaf)
        self.centre[k] = centre
        self.xmax[k] = half / centre
        self.mass[k] = row[0].real  # |a_n| summed in the moments' dtype, imaginary part 0
        self.mom[k] = row[1:]
        self.k, self.bounds, self.sums = k + 1, None, []

    def result(self) -> BlockMoments:
        if self.mom is None:
            self._allocate(np.float64)
        # a block holding an infinite weight sums to it, as the direct sum does
        self.mom[~np.isfinite(self.mom[:, 0]), 1:] = 0.0
        return BlockMoments(self.head, self.centre, self.xmax, self.mass, self.mom)


class Scan(NamedTuple):
    """What one pass of scan() read from a sequence a_0..a_(size-1)."""

    moments: Optional[BlockMoments]  # block_moments(a, s_max), if s_max was given
    sums: np.ndarray  # S(x) = a_0 + ... + a_x at each checkpoint, in their order


def segment_edges(size: int) -> list:
    """Consecutive ranges (lo, hi) of at most _SEGMENT entries covering 0..size-1."""
    return [(lo, min(lo + _SEGMENT, size)) for lo in range(0, size, _SEGMENT)]


def with_offsets(segments, size: int):
    """(lo, segment) for the segments that segment_edges(size) cuts, the one
    walk over a segment stream: any other cut (a segment of another length,
    a missing one, one past size) raises RangeError.  Each segment is dropped
    before the next is asked for, and the next is asked for before the cut
    advances."""
    edges = iter(segment_edges(size))
    for seg in segments:
        lo, hi = next(edges, (size, size))
        if lo == size:
            raise RangeError(f"segments run past {size} entries")
        seg = np.asarray(seg)
        if seg.size != hi - lo:
            raise RangeError(f"the segment at {lo} has {seg.size} entries, not {hi - lo}")
        yield lo, seg
        del seg  # freed before the builder makes the next one
    lo, hi = next(edges, (size, size))
    if lo < size:
        raise RangeError(f"the segment at {lo} has 0 entries, not {hi - lo}")


def views(a: np.ndarray):
    """The views of a that segment_edges(a.size) cuts."""
    return (a[lo:hi] for lo, hi in segment_edges(a.size))


def join_segments(segments, size: int) -> np.ndarray:
    """The float64 concatenation of the segments that segment_edges(size) cuts
    (see with_offsets); a lone float64 segment is the array, not copied."""
    out = np.empty(0)
    for lo, seg in with_offsets(segments, size):
        if lo == 0:
            out = seg if seg.size == size and seg.dtype == np.float64 else np.empty(size)
        if seg is not out:
            out[lo : lo + seg.size] = seg
        del seg  # freed before the builder makes the next one
    return out


def scan(segments, size: int, s_max=None, checkpoints=None, out=None) -> Scan:
    """One pass over a_0..a_(size-1), handed in as the segments that
    segment_edges(size) cuts and walked by with_offsets.

    With s_max it builds block_moments(a, s_max).  With checkpoints (integer
    points in [0, size)) or out it runs compensated_cumsum's chunk pass: S at
    each checkpoint, and every prefix sum written to out if given;
    checkpoints=None and out=None skip that pass.  Any other cut (see
    with_offsets), and a _SEGMENT that would split a 4096-chunk, raise
    RangeError: each segment is then whole chunks, and only the moment leaf
    that a segment edge cuts is carried into the next one.  Every result is
    bit for bit the whole-array one.  With a builder that keeps no segment
    it has handed out, one segment and one leaf of at most _LEAF entries are
    alive at a time (a complex leaf is a whole moment block).
    """
    if _SEGMENT % _CHUNK:
        raise RangeError(f"a {_SEGMENT}-entry segment would split a {_CHUNK}-entry chunk")
    moments = None if s_max is None else _MomentPass(size, s_max)
    prefix = None
    if checkpoints is not None or out is not None:
        prefix = _PrefixPass(size, () if checkpoints is None else checkpoints, out)
    for lo, seg in with_offsets(segments, size):
        if moments is not None:
            moments.feed(seg, lo)
        if prefix is not None:
            prefix.feed(seg, lo)
        del seg  # freed before the builder makes the next one
    return Scan(None if moments is None else moments.result(),
                np.empty(0) if prefix is None else prefix.sums)


def compensated_cumsum(a: np.ndarray, out=None) -> np.ndarray:
    """Cumulative sum of a 1-D float array with <=1e-12 relative error.

    Each 4096-term chunk is cumsummed in float64, and the offset added to it
    is the exactly rounded sum of the exactly rounded totals of all previous
    chunks.  The totals come from _certified_totals' error-free extraction,
    and from exact_sum wherever its certificate fails (ties, cancellation
    to ~0, non-finite values); the offsets from one exact integer sum
    of them, rounded once per offset, O(number of chunks) in all.  This is
    scan()'s chunk pass over a, writing every prefix.  Results are bit for
    bit those of cumsumming chunk by chunk and calling math.fsum on each
    chunk and on the list of earlier totals, non-finite input included, but
    for one edge: where fsum's partials overflow though the exact sum of a
    chunk or of the earlier totals rounds to +-DBL_MAX, the total or the
    offset is that value, not fsum's OverflowError.  The sums go to out (a
    float64 array of a's length) if given, to a new array otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    if out is None:
        out = np.empty_like(a)
    scan(views(a), a.size, out=out)
    return out


def block_moments(a, s_max: float) -> BlockMoments:
    """Moments of a[1..N] (a[0] unused) for evaluation at any |s| <= s_max.

    Terms n <= 4096 are kept for direct summation.  Above that the integers
    are cut into blocks (lo, hi] of relative width 1/32, narrowed past
    |s| = 5 by _block_width; block k with centre c and x = n/c - 1 stores
    M_m = sum a_n x^m for m < 10.  a may be real or complex.  A block holds
    at least one integer, so as |s| grows past ~1000 the blocks shrink toward
    single terms and the engine loses its edge over a direct sum.  This is
    scan()'s moment pass over a: each block's sums are np.sum's over the
    block, bit for bit, built from leaves of at most _LEAF entries.
    """
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    return scan(views(a), a.size, s_max=s_max).moments


@functools.lru_cache(maxsize=2)
def _phase_table(t_bytes: bytes) -> np.ndarray:
    """e^(-it log n) for n = 1.._HEAD (rows) and the t grid whose float64
    bytes are t_bytes (columns); read-only.

    moment_sums' complex branch takes its head rows from here, so a job that
    evaluates many polynomials on one t grid builds the table once.  Two
    grids are kept, the main grid and the half-node check grid of a local
    norm: 4096 x (T + T/2) complex entries, 1.5 times the one table a call
    would build (3 MB at 32 t nodes).
    """
    t = np.frombuffer(t_bytes, dtype=np.float64)
    n = np.arange(1, _HEAD + 1, dtype=np.float64)
    table = np.outer(-np.log(n), t) * 1j
    np.exp(table, out=table)
    table.flags.writeable = False
    return table


def moment_sums(bm: BlockMoments, sigmas, ts=None) -> tuple:
    """sum a_n n^(-s) from block moments, with the Lagrange bound of each value.

    ts=None: s runs over the real sigmas; returns two float arrays aligned
    with them.  Each value is the head's sum plus an exactly rounded fsum
    over the block terms c_k^(-s) sum_m binom(-s, m) M_m.
    ts given: s = sigma + it on the sigma x t tensor grid; returns complex
    values and float remainders of shape (len(sigmas), len(ts)).  The head
    is (a_n n^(-sigma)) @ e^(-it log n) over the nonzero a_n, the phases the
    rows of _phase_table's cached table for this t grid, the block terms
    come from sum_m binom(-s, m) sum_k c_k^(-sigma) e^(-it log c_k) M_km,
    and the reductions run in a fixed order, so values are bit-reproducible.
    The remainder bounds the dropped Taylor terms for real and complex s alike,
    |binom(-s, 10)| sum_k c_k^(-sigma) x_k^10 max_(|xi| <= x_k) (1 + xi)^(-sigma-10)
    sum_(block k) |a_n|, with x_k the block's largest |x|; floating-point
    rounding adds a few ulps of sum |a_n| n^(-sigma) on top.  Non-finite
    weights propagate to the values.
    """
    sig = np.asarray(sigmas, dtype=np.float64).ravel()
    logc = np.log(bm.centre)
    real_scale = np.exp(-np.outer(sig, logc))  # c_k^(-sigma)
    if ts is None:
        s = sig
        # one sigma x H table, formed in place: negation is exact and the
        # product commutes, so its bits are bm.head * exp(-outer(sig, log n))
        head = np.outer(sig, np.log(np.arange(1, bm.head.size + 1, dtype=np.float64)))
        np.negative(head, out=head)
        np.exp(head, out=head)
        head *= bm.head
        head = head.sum(axis=1)
    else:
        t = np.asarray(ts, dtype=np.float64).ravel()
        s = sig[:, None] + 1j * t[None, :]
        nz = np.flatnonzero(bm.head)
        if nz.size:
            table = _phase_table(t.tobytes())  # built, if at all, before amp
            # Negation is exact, so outer(sig, -log n) holds the bits of
            # -outer(sig, log n), and the exp runs in place on its exponents.
            # amp's imaginary part stays 0, so amp *= a_n is the complex
            # product that a_n * n^(-sigma) forms.
            amp = np.zeros((sig.size, nz.size), dtype=np.complex128)
            np.exp(np.outer(sig, -np.log(nz + 1.0), out=amp.real), out=amp.real)
            amp *= bm.head[nz]
            contiguous = nz[-1] - nz[0] == nz.size - 1
            head = amp @ (table[nz[0] : nz[-1] + 1] if contiguous else table[nz])
            del amp
        else:  # a block past the head: no direct terms
            head = np.zeros(s.shape, dtype=np.complex128)
    binom = np.empty(s.shape + (_MOMENTS + 1,), dtype=s.dtype)  # binom(-s, m)
    binom[..., 0] = 1.0
    for m in range(_MOMENTS):
        binom[..., m + 1] = binom[..., m] * (-s - m) / (m + 1)
    with np.errstate(invalid="ignore"):  # inf weights: see block_moments
        e = -(sig[:, None] + _MOMENTS)
        lagrange = np.maximum(np.exp(e * np.log1p(-bm.xmax)), np.exp(e * np.log1p(bm.xmax)))
        per_block = real_scale * lagrange * (bm.mass * bm.xmax**_MOMENTS)
        if ts is None:
            blocks = real_scale * (binom[:, :_MOMENTS] @ bm.mom.T)
            values = np.array([math.fsum([h, *row]) for h, row in zip(head, blocks)])
            remainders = np.abs(binom[:, _MOMENTS]) * per_block.sum(axis=1)
        else:
            # q[i, m, j] = sum_k c_k^(-sigma_i) e^(-i t_j log c_k) M_km
            q = (real_scale[:, None, :] * bm.mom.T) @ np.exp(-1j * np.outer(logc, t))
            values = head + np.einsum("ijm,imj->ij", binom[..., :_MOMENTS], q)
            remainders = np.abs(binom[..., _MOMENTS]) * per_block.sum(axis=1)[:, None]
    return values, remainders
