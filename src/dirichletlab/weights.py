"""Weight-sequence catalog and partial-sum asymptotics.

A weight sequence is the nonnegative array (w_n) defining a coefficient
space of Dirichlet series; what the rest of the package cares about is the
growth of the partial sums S(x) = sum_{n<=x} w_n, summarized by the exponent
alpha in S(x) ~ C x^sigma0 / (log x)^alpha, with sigma0 the abscissa of
sum w_n n^(-s).  A sequence carries sigma0 and, when one is known, the
predicted exponent.

Every family is handed out segment by segment from its builder in BUILDERS,
and every reader (a scan, the join that builds w, sampling's measure) walks
the segments through accum.with_offsets, which checks each against the cut
of accum.segment_edges (2^18 entries, 2 MB of float64).  A scan holds one
segment, one chunk and one moment leaf of at most accum._LEAF entries, never
the N-length table, and a builder keeps no segment it has yielded once it
resumes, so the one the scan dropped is freed before the next is built.  The
closed forms (constant, log_power, kadec, kadec_spiked) compute each segment
from its n; the sieve families, mccarthy and inv_ordered_factorization among
them, read theirs from the arithmetic builders, which also hold the sieve
window of four segments that their segments are cut from.  The array w is built only when something reads it,
and past DEFAULT_BUDGET entries that read raises BudgetError (check_budget,
which the measure checks too); once built, w is read as accum.views of it.
S at a real x >= 0 is read at floor(x), an integer x as it is (exact past
2^53), from the scan's checkpoint reads, bit for bit partial_sums[floor(x)],
and every sequence keeps one memo of the sums and the moments it has read.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import accum, arithmetic
from .errors import BudgetError, DomainError, FitError, RangeError
from .zeta import prime_zeta_unit_abscissa, zeta_equals_two_abscissa

DEFAULT_BUDGET = 10**8  # the largest array w that is built

# the one parameter a family cannot be built without
REQUIRED_PARAM = {"log_power": "alpha", "inv_divisor_pow": "alpha", "dgamma": "gamma",
                  "besov": "gamma", "kadec": "blocks", "kadec_spiked": "blocks"}

# the predicted exponent alpha of S(x) ~ C x^sigma0 / (log x)^alpha, where one is known
_EXPECTED_ALPHA = {
    "constant": lambda p: 0.0,
    "log_power": lambda p: -float(p["alpha"]),
    "dgamma": lambda p: 1.0 - float(p["gamma"]),
    "divisor": lambda p: -1.0,
    "inv_divisor_pow": lambda p: 1.0 - 2.0 ** -float(p["alpha"]),
    "mangoldt": lambda p: 0.0,
    "mangoldt_over_log": lambda p: 1.0,
    "prime_indicator": lambda p: 1.0,
    "kadec": lambda p: 0.0,
}

# the abscissa sigma0 of sum w_n n^(-s), where it is not 1
_SIGMA0 = {"besov": prime_zeta_unit_abscissa, "mccarthy": zeta_equals_two_abscissa}


def _constant_segments(limit: int, params: dict):
    for lo, hi in accum.segment_edges(limit + 1):
        w = np.ones(hi - lo)
        w[: max(0, 1 - lo)] = 0.0  # n = 0
        yield w
        del w  # the consumer's to keep: a builder holds one segment at a time


def _log_power_segments(limit: int, params: dict):
    a = float(params["alpha"])
    for lo, hi in accum.segment_edges(limit + 1):
        w = np.arange(lo, hi, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(w, out=w)
            w += 1.0
            w **= a
        w[: max(0, 1 - lo)] = 0.0  # n = 0, where the formula gives nan
        yield w
        del w


def _kadec_segments(limit: int, params: dict, spiked: bool):
    """w_n = n at the kadec_indices atoms; elsewhere 0 or, spiked, e^n (w_0 = 0)."""
    atoms = np.array(kadec_indices(int(params["blocks"])))
    for lo, hi in accum.segment_edges(limit + 1):
        w = np.zeros(hi - lo)
        if spiked:
            with np.errstate(over="ignore"):
                np.exp(np.arange(lo, hi, dtype=np.float64), out=w)
            w[: max(0, 1 - lo)] = 0.0  # n = 0
        inside = atoms[(lo <= atoms) & (atoms < hi)]
        w[inside - lo] = inside
        yield w
        del w


def _ordered_factorizations(limit: int, invert: bool):
    """H(n) or, inverted, 1 / H(n) (w_0 = 0), from the signature stream."""
    for H in arithmetic.ordered_factorization_segments(limit):
        w = H.astype(np.float64)
        if invert:
            np.divide(1.0, w, out=w, where=w > 0)  # w_0 = H(0) = 0 stays
        yield w
        del H, w


def _mangoldt_over_log_segments(limit: int, params: dict):
    for lo, lam in accum.with_offsets(arithmetic.von_mangoldt_segments(limit), limit + 1):
        idx = np.flatnonzero(lam)  # n >= 2: Lambda(0) = Lambda(1) = 0
        lam[idx] /= np.log((idx + lo).astype(np.float64))
        yield lam
        del lam, idx


def _inv_divisor_pow_segments(limit: int, params: dict):
    a = float(params["alpha"])
    for d in arithmetic.divisor_count_segments(limit):
        with np.errstate(divide="ignore"):
            w = d.astype(np.float64) ** -a
        w[d == 0] = 0.0  # n = 0
        yield w
        del d, w


def _besov_segments(limit: int, params: dict):
    """rising[Omega(n)] / prod nu_p! with rising[k] = g (g + 1) ... (g + k - 1);
    at g = 0, (k - 1)!, the coefficients of -log(1 - prime zeta)."""
    g = float(params["gamma"])
    rising = np.ones(limit.bit_length())  # Omega(n) <= log2(n)
    if g == 0.0:
        rising[0] = 0.0  # no constant term in -log(1 - prime zeta)
        for k in range(1, rising.size):
            rising[k] = math.factorial(k - 1)
    else:
        for k in range(1, rising.size):
            rising[k] = rising[k - 1] * (g + k - 1)
    for om, fac in arithmetic.factor_segments(limit, arithmetic.OMEGA,
                                              arithmetic.EXPONENT_FACTORIAL):
        # fac is 0 at n = 0 only, where w_0 = 0
        w = rising[om]
        w[fac == 0.0] = 0.0
        np.divide(w, fac, out=w, where=fac > 0.0)  # in place: no third segment
        del om, fac  # not kept while the scan reads w
        yield w
        del w


# the segment builder of every family, in catalog order: (limit, family
# parameters) -> segments of w_0..w_limit, float64 or, for divisor (uint16)
# and prime_indicator (bool), the builder's integers as they are: accum.scan
# sums those exactly and converts only the moment leaves it copies, and w is
# their float64 concatenation
BUILDERS = {
    "constant": _constant_segments,
    "log_power": _log_power_segments,
    "dgamma": lambda limit, p: arithmetic.generalized_divisor_segments(float(p["gamma"]), limit),
    "divisor": lambda limit, p: arithmetic.divisor_count_segments(limit),
    "inv_divisor_pow": _inv_divisor_pow_segments,
    "mangoldt": lambda limit, p: arithmetic.von_mangoldt_segments(limit),
    "mangoldt_over_log": _mangoldt_over_log_segments,
    "prime_indicator": lambda limit, p: arithmetic.prime_segments(limit),
    "besov": _besov_segments,
    "mccarthy": lambda limit, p: _ordered_factorizations(limit, invert=False),
    "inv_ordered_factorization": lambda limit, p: _ordered_factorizations(limit, invert=True),
    "kadec": lambda limit, p: _kadec_segments(limit, p, spiked=False),
    "kadec_spiked": lambda limit, p: _kadec_segments(limit, p, spiked=True),
}
CATALOG_NAMES = tuple(BUILDERS)


class WeightSequence:
    """Weights w_1..w_limit stored at matching indices (w[0] stays 0).

    The family's predicted exponent (None where none is known) and its
    abscissa sigma0 follow from name and params.  segments() reads the
    weights from the family's builder, and w is built on first access.
    """

    def __init__(self, name: str, params: dict, limit: int):
        self.name = name
        self.params = params
        self.limit = limit
        expected = _EXPECTED_ALPHA.get(name)
        self.expected_alpha = None if expected is None else expected(params)
        self.sigma0 = _SIGMA0[name]() if name in _SIGMA0 else 1.0
        self._w = None
        self._sums: dict = {}  # x -> S(x) read by scans
        self._moments: dict = {}  # block width -> accum.BlockMoments

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            check_budget(self)
            self._w = accum.join_segments(BUILDERS[self.name](self.limit, self.params),
                                           self.limit + 1)
        return self._w


def check_budget(w: WeightSequence) -> None:
    """Raise BudgetError if w's N-length arrays (w itself, or a measure of
    its atoms) would pass DEFAULT_BUDGET entries."""
    if w.limit > DEFAULT_BUDGET:
        raise BudgetError(f"a {w.limit}-entry {w.name} table exceeds the budget {DEFAULT_BUDGET}")


class AsymptoticFit(NamedTuple):
    alpha_hat: float
    C_hat: float
    residual_rms: float
    grid: tuple


def kadec_indices(blocks: int) -> list:
    """Integers n_k whose logarithm is nearest to k, for k = 1..blocks.

    The nearest integer always lands within (k - 1/5, k + 1/5); exact for
    every k representable in double precision (n_k <= 2^53 needs k <= 36).
    """
    if blocks < 1:
        raise RangeError("need at least one block")
    if blocks > 36:
        raise RangeError("n_k exceeds exact double-precision integers past k=36")
    out = []
    for k in range(1, blocks + 1):
        center = math.exp(k)
        cands = [m for m in range(int(center) - 2, int(center) + 3) if m >= 2]
        n_k = min(cands, key=lambda m: abs(math.log(m) - k))
        if abs(math.log(n_k) - k) > 0.2:
            raise RangeError(f"no integer with log within 1/5 of k={k}")
        out.append(n_k)
    return out


def catalog(name: str, limit: int, **params) -> WeightSequence:
    """Construct a catalog weight sequence up to the given limit.

    params are the family parameters gamma, alpha and blocks; any other
    keyword, a family named in REQUIRED_PARAM without its parameter, and a
    parameter outside its family's domain raise DomainError (RangeError for a
    kadec block count).  Nothing is built here: see WeightSequence.
    """
    if name not in CATALOG_NAMES:
        raise DomainError(f"unknown weight family {name!r}")
    if limit < 2:
        raise RangeError(f"limit must be >= 2, got {limit}")
    unknown = sorted(params.keys() - {"gamma", "alpha", "blocks"})
    if unknown:
        raise DomainError(f"unknown family parameters {unknown}: catalog takes gamma, alpha, blocks")
    need = REQUIRED_PARAM.get(name)
    if need is not None and params.get(need) is None:
        raise DomainError(f"{name} needs the parameter {need!r}")
    if name == "dgamma" and not 0 < float(params["gamma"]) < math.inf:
        raise DomainError("dgamma needs a finite gamma > 0")
    if name == "besov" and not 0 <= float(params["gamma"]) < math.inf:
        raise DomainError("besov needs a finite gamma >= 0")
    if name == "inv_divisor_pow" and float(params["alpha"]) <= 0:
        raise DomainError("inv_divisor_pow needs alpha > 0")
    if name in ("kadec", "kadec_spiked"):
        kadec_indices(blocks := int(params["blocks"]))  # 1 <= blocks <= 36
        if math.exp(blocks + 0.2) > limit:
            raise RangeError(f"block count {blocks} needs limit >= e^(K+1/5) ~ {math.exp(blocks + 0.2):.3g}")
    return WeightSequence(name, dict(params), limit)


def segments(w: WeightSequence):
    """w_0..w_limit as consecutive segments: from the family's builder while
    w is not built, else views of w."""
    if w._w is None:
        return BUILDERS[w.name](w.limit, w.params)
    return accum.views(w._w)


def read(w: WeightSequence, xs=(), s_max: Optional[float] = None) -> tuple:
    """(block moments of w for |s| <= s_max, or None; S(floor(x)) at the points xs).

    The one door from a point to an index: an x that is not a number in [0,
    limit] (nan, +-inf, a negative) raises RangeError, and an integer x is used
    as it is, exact past 2^53.  The sums have the shape of xs and equal
    partial_sums(w)[floor(xs)] bit for bit.  w keeps a memo of the sums (by
    index) and the moments (by block width, which is all they take from s_max:
    every s_max <= 5 shares one) it has read; whatever is not in it comes from
    one accum.scan of w's segments, and a read the memo serves whole scans nothing.
    """
    xs = np.asarray(xs)
    if not np.all((xs >= 0) & (xs <= w.limit)):
        raise RangeError(f"partial-sum points must lie in [0, {w.limit}]")
    xs = xs.astype(np.int64)  # floor: every x is >= 0
    width = None if s_max is None else accum._block_width(float(s_max))
    new_moments = width is not None and width not in w._moments
    points = sorted(set(xs.ravel().tolist()) - w._sums.keys())
    if new_moments or points:
        got = accum.scan(segments(w), w.limit + 1, s_max if new_moments else None,
                         points or None)
        if new_moments:
            w._moments[width] = got.moments
        w._sums.update(zip(points, got.sums.tolist()))
    sums = np.array([w._sums[x] for x in xs.ravel().tolist()], dtype=np.float64)
    return (None if width is None else w._moments[width]), sums.reshape(xs.shape)


def sums_at(w: WeightSequence, xs) -> np.ndarray:
    """S(x) = S(floor(x)) at the real or integer points xs: read(w, xs)'s sums."""
    return read(w, xs)[1]


def partial_sums(w: WeightSequence) -> np.ndarray:
    """Prefix sums S[k] = sum_{n<=k} w_n (S[0]=0), the one N-length prefix array.

    Past DEFAULT_BUDGET entries it raises BudgetError before it allocates.
    Infinite weights (kadec_spiked) give the bits of a plain np.cumsum.
    """
    check_budget(w)
    out = np.empty(w.limit + 1)
    accum.scan(segments(w), w.limit + 1, out=out)
    return out


def chebyshev_ratios(w: WeightSequence, xs, alpha: float) -> np.ndarray:
    """Normalized partial sums S(x) (log x)^alpha / x^sigma0 on the given points."""
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all((xs >= 2) & (xs <= w.limit)):
        raise RangeError("ratio points must lie in [2, limit]")
    vals = sums_at(w, xs)
    return vals * np.log(xs) ** alpha / xs**w.sigma0


def default_fit_grid(limit: int) -> np.ndarray:
    """Quarter-decade grid 10^(3 + j/4) capped at the limit."""
    count = int(math.floor((math.log10(limit) - 3.0) * 4)) + 1
    return 10.0 ** (3.0 + 0.25 * np.arange(max(count, 0)))


def fit_alpha(w: WeightSequence, x_grid=None) -> AsymptoticFit:
    """Least-squares exponent fit: log(x^sigma0 / S(x)) regressed on log log x.

    The slope estimates alpha in S(x) ~ C x^sigma0 / (log x)^alpha, sigma0 =
    w.sigma0, and the intercept gives C.  Grids narrower than two decades or
    with fewer than three points are refused as degenerate.
    """
    if x_grid is None:
        x_grid = default_fit_grid(w.limit)
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.size < 3:
        raise FitError(f"degenerate grid: {xs.size} points (need >= 3)")
    if not np.all((xs >= 2) & (xs <= w.limit)):
        raise RangeError("fit grid must lie within [2, limit]")
    if np.max(xs) / np.min(xs) < 100.0:
        raise FitError("degenerate grid: needs at least two decades of span")
    vals = sums_at(w, xs)
    if np.any(vals <= 0):
        raise FitError("partial sums vanish on part of the grid")
    over = np.flatnonzero(~np.isfinite(vals))
    if over.size:
        raise FitError(f"partial sums are not finite on the grid from x = {xs[over[0]]:g} on")
    y = np.log(xs**w.sigma0 / vals)
    t = np.log(np.log(xs))
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    return AsymptoticFit(
        alpha_hat=float(slope),
        C_hat=float(math.exp(-intercept)),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        grid=tuple(float(x) for x in xs),
    )


def block_sums(w: WeightSequence, eta: float, xs) -> np.ndarray:
    """Sums over the blocks (eta x, x], i.e. S(x) - S(eta x)."""
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0,1), got {eta}")
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all((xs >= 1) & (xs <= w.limit)):
        raise RangeError("block endpoints must lie in [1, limit]")
    S = sums_at(w, np.stack([xs, eta * xs]))
    clash = np.flatnonzero(np.isinf(S[0]) & (S[0] == S[1]))
    if clash.size:
        raise DomainError(f"block sum over ({eta:g} x, x] at x = {xs[clash[0]]:g} is inf - inf: "
                          "S(x) and S(eta x) overflow float64")
    return S[0] - S[1]
