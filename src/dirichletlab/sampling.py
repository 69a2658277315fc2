"""Atomic measures on the log-integer line and density/sampling diagnostics.

The measure of interest puts mass w_n/n at log n (optionally mirrored to
-log n).  Everything downstream is exact finite combinatorics: window
masses come from compensated cumulative sums, the Beurling-type lower
density is an exact sweep over the critical window positions, and the
Carleson / continuity-at-infinity checks scan window anchors.

Window convention: every window [x, x + h) whose mass carleson_check,
lambda_set and continuity_at_infinity read is half-open, its mass the
difference of the cumulative sums at the atoms' left insertion points, so
abutting windows [x, y) and [y, z) split the atoms exactly (each atom lands
in exactly one side) and their masses add to that of [x, z) up to rounding.

All quantities are truncation-honest: positions above the horizon
(domain_bound) are unknown rather than absent, so no scan reads a window
past it.  Carleson anchors stop one unit short of the horizon, lambda_set's
windows stop at it, and continuity_at_infinity keeps 5 units of headroom
below it.

Memory: an AtomicMeasure holds its positions, masses and prefix sums, three
arrays of the atom count.  measure_from_weights builds them from the
segments of w, never from the whole array w: one pass counts the atoms, a
second writes positions and masses into their final arrays _SCAN entries at
a time, and no segment outlives its turn, so one segment is alive beside
the two arrays and none by the time the prefix sums are built.  Every scan
(carleson_check, beurling_lower_density and each window length of
continuity_at_infinity) walks its anchors in chunks of at most _SCAN, so
its working space is a fixed size, never a copy the size of the measure;
beurling_lower_density copies its points only to sort them when they are
not sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .accum import compensated_cumsum, with_offsets
from .errors import RangeError
from . import weights as _weights

_SCAN = 1 << 15  # anchors per chunk of every scan: each temporary stays at 256 KB


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Atoms (positions strictly increasing, masses > 0) on [domain_low, domain_bound]."""

    positions: np.ndarray
    masses: np.ndarray
    domain_bound: float
    domain_low: float = 0.0
    cum: np.ndarray = field(init=False)  # cum[k] = mass of the first k atoms

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        mas = np.asarray(self.masses, dtype=np.float64)
        lo, hi = self.domain_low, self.domain_bound
        if pos.shape != mas.shape or pos.ndim != 1:
            raise RangeError("positions and masses must be 1-d arrays of equal length")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise RangeError(f"domain needs finite domain_low <= domain_bound, got [{lo}, {hi}]")
        if not (np.all(np.isfinite(pos)) and np.all(pos[1:] > pos[:-1])):
            raise RangeError("positions must be finite and strictly increasing")
        if np.any(mas <= 0.0) or not np.all(np.isfinite(mas)):
            raise RangeError("masses must be finite and positive")
        if pos.size and (pos[0] < lo or pos[-1] > hi):
            raise RangeError("atoms escape the declared domain")
        cum = np.empty(mas.size + 1)
        cum[0] = 0.0
        compensated_cumsum(mas, out=cum[1:])
        for a in (pos, mas, cum):
            a.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)
        object.__setattr__(self, "cum", cum)

    @property
    def total_mass(self) -> float:
        return float(self.cum[-1])


class CarlesonReport(NamedTuple):
    c_hat: float
    worst_xi: float


class DensityReport(NamedTuple):
    window_lengths: tuple
    inf_counts: tuple  # per-r infimum of count/r
    extrapolated: float


class ContinuityResult(NamedTuple):
    passed: bool
    radius: float
    block: float  # the window length h that worked (or the last one tried)
    blocking_x: float | None


def measure_from_weights(w, symmetric: bool = False) -> AtomicMeasure:
    """Atoms at log n (and optionally -log n) with mass w_n / n; zero weights dropped.

    In the symmetric variant the two atoms at +-log 1 = 0 coincide and merge,
    so n = 1 contributes a single atom of mass 2 w_1.  The atoms come from
    two passes over w's segments, so w is never built: the first counts the
    nonzero weights and reads w_1, the second writes positions and masses
    into their final arrays _SCAN entries at a time.
    """
    _weights.check_budget(w)
    n, w1 = 0, 0.0
    for lo, seg in with_offsets(_weights.segments(w), w.limit + 1):
        n += int(np.count_nonzero(seg))
        if lo == 0:
            w1 = seg[1]
        del seg
    merge = int(symmetric and w1 != 0)  # one origin atom for +-log 1
    size = 2 * n - merge if symmetric else n
    pos, mas = np.empty(size), np.empty(size)
    right, right_mas = pos[size - n:], mas[size - n:]  # the atoms at +log n
    k = 0
    for lo, seg in with_offsets(_weights.segments(w), w.limit + 1):
        for a in range(0, seg.size, _SCAN):
            piece = seg[a:a + _SCAN]
            idx = np.flatnonzero(piece)
            at, k = slice(k, k + idx.size), k + idx.size
            right_mas[at] = piece[idx]
            del piece
            idx += lo + a
            right[at] = idx
            np.log(right[at], out=right[at])
            right_mas[at] /= idx
            del idx
        del seg  # freed before the builder makes the next one
    bound = math.log(w.limit)
    if not symmetric:
        return AtomicMeasure(positions=pos, masses=mas, domain_bound=bound)
    left = size - n  # the mirrored atoms at -log n, n descending
    np.negative(right[merge:][::-1], out=pos[:left])
    mas[:left] = right_mas[merge:][::-1]
    if merge:
        right_mas[0] *= 2.0
    return AtomicMeasure(
        positions=pos, masses=mas, domain_bound=bound, domain_low=-bound
    )


def _window_masses(m: AtomicMeasure, anchors: np.ndarray, h: float) -> np.ndarray:
    lo = np.searchsorted(m.positions, anchors, side="left")
    hi = np.searchsorted(m.positions, anchors + h, side="left")
    return m.cum[hi] - m.cum[lo]


def _scaled(op, v, x: np.ndarray, beta: float) -> np.ndarray:
    """op(v, (1 + x^2)^beta) with no numpy warning: where the power leaves
    float64 it is inf or 0, and the result follows IEEE (inf, 0 or nan)."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        return op(v, (1.0 + x**2) ** beta)


def _unit_window_max(m: AtomicMeasure, x: np.ndarray, first: int, beta: float):
    """(q, x) at the first maximum of q = nu[x, x+1)/(1+x^2)^beta over the
    anchors x, whose windows start at the atoms first, first + 1, ...; a nan
    q counts as the maximum, as np.argmax counts it."""
    hi = np.searchsorted(m.positions, x + 1.0, side="left")
    q = _scaled(np.divide, m.cum[hi] - m.cum[first:first + x.size], x, beta)
    i = int(np.argmax(q))
    return q[i], x[i]


def carleson_check(m: AtomicMeasure, beta: float) -> CarlesonReport:
    """C_hat = max over the scan of nu[xi, xi+1) / (1+xi^2)^beta.

    The scan anchors unit windows at the atoms themselves (every attained
    local maximum of the numerator starts at an atom) plus the domain's low
    end.  It walks the atoms _SCAN at a time and keeps each chunk's first
    maximum; the first of those is the whole scan's (nan, if any, wins).  At
    a finite beta, a C_hat that is not finite (where (1+xi^2)^beta underflows
    to 0 at a large negative beta) raises RangeError.
    """
    # the atoms are strictly increasing, so the window at atom k starts
    # at index k, and the one at domain_low at index 0
    pos = m.positions
    k = int(np.searchsorted(pos, m.domain_bound - 1.0, side="right"))
    best = [_unit_window_max(m, np.array([m.domain_low], dtype=np.float64), 0, beta)]
    best += [_unit_window_max(m, pos[a:min(a + _SCAN, k)], a, beta) for a in range(0, k, _SCAN)]
    q, x = np.array(best).T
    i = int(np.argmax(q))
    if math.isfinite(beta) and not math.isfinite(q[i]):
        raise RangeError(f"the Carleson constant at beta = {beta} is {q[i]}: "
                         f"(1 + xi^2)^beta leaves the float64 range")
    return CarlesonReport(c_hat=float(q[i]), worst_xi=float(x[i]))


def lambda_set(m: AtomicMeasure, beta: float, r: float, delta: float) -> np.ndarray:
    """Points r*k whose window [rk, r(k+1)) carries mass >= delta (1+(rk)^2)^beta.

    Returns the point set (not the indices k): its density is what gets
    compared against interval length / 2 pi downstream.
    """
    if not all(math.isfinite(v) and v > 0.0 for v in (r, delta)):
        raise RangeError(f"r and delta must be finite and positive, got {r}, {delta}")
    k_lo = math.ceil(m.domain_low / r - 1e-12)
    k_hi = math.floor(m.domain_bound / r + 1e-12) - 1
    if k_hi < k_lo:
        return np.empty(0, dtype=np.float64)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    mass = _window_masses(m, r * ks, r)
    keep = mass >= _scaled(np.multiply, delta, r * ks, beta)
    return r * ks[keep]


def _least_count(pts: np.ndarray, anchors: np.ndarray, r: float) -> int:
    """The least count of the sorted pts in an open (x, x + r) over the anchors x."""
    cnt = np.searchsorted(pts, anchors + r, side="left") - np.searchsorted(
        pts, anchors, side="right"
    )
    return int(cnt.min())


def beurling_lower_density(
    points: Sequence[float], r_list: Sequence[float], window: tuple
) -> DensityReport:
    """Exact inf over subwindows of count/r, per window length r.

    Counts are over open intervals (xi, xi+r) with xi swept across
    [lo, hi-r] for window = (lo, hi); the count is piecewise constant and
    every attained minimum starts either at lo, at a point of the set, or at
    hi-r, so sweeping those anchors is exact.  The extrapolated figure is
    the value at the largest r; finite windows carry an intrinsic 2/r
    resolution, so no limit is claimed.  The points are copied only to be
    sorted when they are not, and the anchors are walked _SCAN at a time.
    """
    pts = np.asarray(points, dtype=np.float64)
    if not np.all(pts[1:] >= pts[:-1]):
        pts = np.sort(pts)
    if pts.size == 0:
        raise RangeError("empty point set")
    lo, hi = float(window[0]), float(window[1])
    T = hi - lo
    if T <= 0:
        raise RangeError("window must have positive length")
    rs = sorted(float(r) for r in r_list)
    if not rs:
        raise RangeError("need at least one window length")
    if not all(math.isfinite(r) and r > 0.0 for r in rs):
        raise RangeError(f"window lengths must be finite and positive, got {rs}")
    if rs[-1] > T / 5.0:
        raise RangeError(f"window length {rs[-1]} too coarse for the range {T} (need r <= T/5)")
    infs = []
    for r in rs:
        # the anchors lo and hi - r, and the points in [lo, hi - r]: a run of
        # the sorted set, walked _SCAN points at a time
        a = int(np.searchsorted(pts, lo, side="left"))
        b = int(np.searchsorted(pts, hi - r, side="right"))
        least = _least_count(pts, np.array([lo, hi - r]), r)
        for c in range(a, b, _SCAN):
            least = min(least, _least_count(pts, pts[c:min(c + _SCAN, b)], r))
        infs.append(float(least) / r)
    return DensityReport(
        window_lengths=tuple(rs), inf_counts=tuple(infs), extrapolated=infs[-1]
    )


def _insertion_near(pos: np.ndarray, t: np.ndarray, first: int) -> np.ndarray:
    """searchsorted(pos, t, "left") where t[k] lies next to pos[first + k]: a
    local comparison, with a binary search only where the neighbours disagree."""
    j = np.arange(first, first + t.size)
    hi = j + (pos[first:first + t.size] < t)
    n = pos.size
    right_ok = (hi == n) | (pos[np.minimum(hi, n - 1)] >= t)
    left_ok = (hi == 0) | (pos[np.maximum(hi - 1, 0)] < t)
    far = np.flatnonzero(~(right_ok & left_ok))
    if far.size:
        hi[far] = np.searchsorted(pos, t[far], side="left")
    return hi


def _bad_anchors(m: AtomicMeasure, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 h: float, beta: float, eps: float) -> np.ndarray:
    """The anchors x in the scan range whose window [x, x + h), atoms lo..hi-1,
    breaks nu/(1+x^2)^beta <= eps."""
    q = _scaled(np.divide, m.cum[hi] - m.cum[lo], x, beta)
    return x[(x >= m.domain_low) & (x + h <= m.domain_bound) & (q > eps)]


_CHUNK = 4096  # the first chunk at either end of the outside-in scan


def _chunk_bad(m: AtomicMeasure, i: int, j: int, h: float, beta: float,
               eps: float) -> np.ndarray:
    """The bad anchors of both families for the atoms i..j-1."""
    pos = m.positions
    x = pos[i:j]
    starts = x - h
    return np.concatenate([
        _bad_anchors(m, x, np.arange(i, j), np.searchsorted(pos, x + h, side="left"),
                     h, beta, eps),
        _bad_anchors(m, starts, np.searchsorted(pos, starts, side="left"),
                     _insertion_near(pos, starts + h, i), h, beta, eps),
    ])


def _farthest_bad(m: AtomicMeasure, h: float, beta: float, eps: float):
    """(far, blocking) for window length h: far = max |x| over the bad
    anchors, blocking = the least bad anchor with |x| = far; None if no
    anchor is bad.

    The atoms a..b-1 carry the unscanned anchors pos[k] and pos[k] - h.  The
    scan takes chunks from both ends of the atoms inward, each end's chunk
    doubling from _CHUNK up to _SCAN, and an end stops once none of its
    unscanned anchors can lie outside (-far, far] (a -far found later would
    become the blocking anchor): none lies below max(pos[a] - h, domain_low)
    or above pos[b-1], and none above far has a window [x, x + h) that fits
    under domain_bound once the next double after far has none.
    """
    pos = m.positions
    a, b = 0, pos.size
    grow_low = grow_high = _CHUNK
    far = blocking = None
    while a < b:
        chunks = []
        if far is None or (pos[b - 1] > far and math.nextafter(far, math.inf) + h
                           <= m.domain_bound):
            chunks.append((max(b - grow_high, a), b))
            b, grow_high = chunks[-1][0], min(2 * grow_high, _SCAN)
        if a < b and (far is None or max(pos[a] - h, m.domain_low) <= -far):
            chunks.append((a, min(a + grow_low, b)))
            a, grow_low = chunks[-1][1], min(2 * grow_low, _SCAN)
        if not chunks:
            break
        for i, j in chunks:
            bad = _chunk_bad(m, i, j, h, beta, eps)
            if bad.size:
                mags = np.abs(bad)
                f = float(np.max(mags))
                least = float(np.min(bad[mags == f]))
                if far is None or f > far:
                    far, blocking = f, least
                elif f == far:
                    blocking = min(blocking, least)
    return None if far is None else (far, blocking)


def continuity_at_infinity(m: AtomicMeasure, beta: float, eps: float) -> ContinuityResult:
    """Search (R, h) with nu[x, x+h)/(1+x^2)^beta <= eps for all |x| >= R.

    h walks down 1, 1/2, 1/4, ..., 2^-12; for each h the anchors that can
    break the bound are the atoms and the atoms - h, the attainable extrema.
    Only the farthest bad anchor matters, so each h scans the atoms from
    both ends inward in chunks doubling up to _SCAN and stops once no
    unscanned anchor can lie farther out (_farthest_bad): an h that fails
    near the horizon costs two chunks, and the worst case is one pass.  A
    window anchored at an atom starts at its own index, and one anchored h
    before atom j ends next to j, so each family needs one binary search per
    anchor.  A witness only counts if the clean zone [R, horizon] keeps 5
    units of headroom, since beyond the horizon the measure is unknown, not
    zero.
    Failure reports the blocking anchor nearest the horizon for the
    smallest h tried (of -a and +a, the first: -a).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise RangeError(f"eps must be a finite number > 0, got {eps}")
    h = 1.0
    blocking = None
    while h >= 2.0**-12:
        hit = _farthest_bad(m, h, beta, eps)
        if hit is None:
            return ContinuityResult(passed=True, radius=0.0, block=h, blocking_x=None)
        far, blocking = hit
        need = far + h
        if need <= m.domain_bound - 5.0:
            return ContinuityResult(passed=True, radius=need, block=h, blocking_x=None)
        h /= 2.0
    return ContinuityResult(passed=False, radius=math.inf, block=2.0 * h, blocking_x=blocking)


def kadec_atoms(blocks: int) -> AtomicMeasure:
    """Unit atoms at log n_k for k = 1..blocks.

    Up to k = 36 the positions are the honest log n_k of the constructed
    integers; past that e^k exceeds 2^53 and the nearest-integer log is k to
    strictly better than double precision, so the position is written as k
    exactly.  Either way |position - k| <= 1/5.
    """
    idx = _weights.kadec_indices(min(blocks, 36))  # RangeError below one block
    pos = [math.log(n) for n in idx]
    pos.extend(float(k) for k in range(37, blocks + 1))
    return AtomicMeasure(
        positions=np.asarray(pos),
        masses=np.ones(blocks),
        domain_bound=blocks + 0.2,
    )
