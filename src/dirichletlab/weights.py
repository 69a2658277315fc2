"""Weight-sequence catalog and partial-sum asymptotics.

A weight sequence is the nonnegative array (w_n) defining a coefficient
space of Dirichlet series; what the rest of the package cares about is the
growth of the partial sums S(x) = sum_{n<=x} w_n, summarized by the exponent
alpha in S(x) ~ C x / (log x)^alpha.  Catalog entries carry the predicted
exponent when one is known, and the abscissa sigma0 of sum w_n n^(-s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import arithmetic
from .accum import compensated_cumsum
from .errors import DomainError, FitError, RangeError
from .zeta import prime_zeta_unit_abscissa, zeta_equals_two_abscissa

CATALOG_NAMES = (
    "constant",
    "log_power",
    "dgamma",
    "divisor",
    "inv_divisor_pow",
    "mangoldt",
    "mangoldt_over_log",
    "prime_indicator",
    "besov",
    "mccarthy",
    "inv_ordered_factorization",
    "kadec",
    "kadec_spiked",
)

# families whose construction needs a SieveTable covering the limit
NEEDS_TABLE = {"dgamma", "mangoldt", "mangoldt_over_log", "prime_indicator", "besov"}

# the one parameter a family cannot be built without
REQUIRED_PARAM = {"log_power": "alpha", "inv_divisor_pow": "alpha", "dgamma": "gamma",
                  "besov": "gamma", "kadec": "blocks", "kadec_spiked": "blocks"}


@dataclass
class WeightSequence:
    """Weights w_1..w_limit stored at matching indices (w[0] stays 0)."""

    name: str
    params: dict
    limit: int
    w: np.ndarray
    expected_alpha: Optional[float] = None
    sigma0: float = 1.0
    _psums: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)


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


def _kadec_weight(limit: int, blocks: int, spiked: bool) -> np.ndarray:
    if math.exp(blocks + 0.2) > limit:
        raise RangeError(f"block count {blocks} needs limit >= e^(K+1/5) ~ {math.exp(blocks + 0.2):.3g}")
    if spiked:
        with np.errstate(over="ignore"):
            w = np.exp(np.arange(limit + 1, dtype=np.float64))
        w[0] = 0.0
    else:
        w = np.zeros(limit + 1)
    for n in kadec_indices(blocks):
        w[n] = float(n)
    return w


def catalog(name: str, limit: int, table=None, **params) -> WeightSequence:
    """Construct a catalog weight sequence up to the given limit.

    Families needing prime structure (dgamma, mangoldt, mangoldt_over_log,
    prime_indicator, besov) require a SieveTable covering the limit; a
    family named in REQUIRED_PARAM raises DomainError without that parameter.
    """
    if name not in CATALOG_NAMES:
        raise DomainError(f"unknown weight family {name!r}")
    if limit < 2:
        raise RangeError(f"limit must be >= 2, got {limit}")
    need = REQUIRED_PARAM.get(name)
    if need is not None and params.get(need) is None:
        raise DomainError(f"{name} needs the parameter {need!r}")
    if name in NEEDS_TABLE:
        if table is None or table.limit < limit:
            raise RangeError(f"{name} needs a sieve table covering limit {limit}")
    expected: Optional[float] = None
    sigma0 = 1.0

    if name == "constant":
        w = np.ones(limit + 1)
        w[0] = 0.0
        expected = 0.0
    elif name == "log_power":
        a = float(params["alpha"])
        n = np.arange(limit + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (1.0 + np.log(n)) ** a  # n = 0 slot produces nan, overwritten below
        w[0] = 0.0
        expected = -a
    elif name == "dgamma":
        g = float(params["gamma"])
        if not 0 < g < math.inf:
            raise DomainError("dgamma needs a finite gamma > 0")
        w = arithmetic.generalized_divisor_table(g, table)[: limit + 1].copy()
        w[0] = 0.0
        expected = 1.0 - g
    elif name == "divisor":
        w = arithmetic.divisor_count_table(limit).astype(np.float64)
        expected = -1.0
    elif name == "inv_divisor_pow":
        a = float(params["alpha"])
        if a <= 0:
            raise DomainError("inv_divisor_pow needs alpha > 0")
        d = arithmetic.divisor_count_table(limit).astype(np.float64)
        with np.errstate(divide="ignore"):
            w = d**-a
        w[0] = 0.0
        expected = 1.0 - 2.0**-a
    elif name == "mangoldt":
        w = arithmetic.von_mangoldt_table(table)[: limit + 1].copy()
        expected = 0.0
    elif name == "mangoldt_over_log":
        w = arithmetic.von_mangoldt_table(table)[: limit + 1].copy()
        n = np.arange(limit + 1, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            w[2:] = w[2:] / np.log(n[2:])
        w[:2] = 0.0
        expected = 1.0
    elif name == "prime_indicator":
        w = np.zeros(limit + 1)
        primes = table.primes[table.primes <= limit]
        w[primes] = 1.0
        expected = 1.0
    elif name == "besov":
        g = float(params["gamma"])
        if not 0 <= g < math.inf:
            raise DomainError("besov needs a finite gamma >= 0")
        om, fac = arithmetic.omega_and_exponent_factorial_tables(table)
        om, fac = om[: limit + 1], fac[: limit + 1]
        kmax = int(om.max())
        rising = np.ones(kmax + 1)
        if g == 0.0:
            rising[0] = 0.0  # no constant term in -log(1 - prime zeta)
            for k in range(1, kmax + 1):
                rising[k] = math.factorial(k - 1)
        else:
            for k in range(1, kmax + 1):
                rising[k] = rising[k - 1] * (g + k - 1)
        w = rising[om] / np.where(fac > 0, fac, 1.0)
        w[0] = 0.0
        sigma0 = prime_zeta_unit_abscissa()
    elif name == "mccarthy":
        w = arithmetic.ordered_factorization_table(limit).astype(np.float64)
        sigma0 = zeta_equals_two_abscissa()
    elif name == "inv_ordered_factorization":
        F = arithmetic.ordered_factorization_table(limit).astype(np.float64)
        with np.errstate(divide="ignore"):
            w = 1.0 / F
        w[0] = 0.0
    elif name == "kadec":
        w = _kadec_weight(limit, int(params["blocks"]), spiked=False)
        expected = 0.0
    else:  # kadec_spiked: unit-log atoms kept, e^n spikes elsewhere
        w = _kadec_weight(limit, int(params["blocks"]), spiked=True)

    return WeightSequence(name=name, params=dict(params), limit=limit, w=w,
                          expected_alpha=expected, sigma0=sigma0)


def partial_sums(w: WeightSequence) -> np.ndarray:
    """Prefix sums S[k] = sum_{n<=k} w_n (S[0]=0), cached on the sequence.

    Infinite weights (kadec_spiked) give the bits of a plain np.cumsum.
    """
    if w._psums is None:
        w._psums = compensated_cumsum(w.w)
        w._psums.setflags(write=False)
    return w._psums


def sum_upto(w: WeightSequence, x: float) -> float:
    """S(x) for real x in [1, limit]."""
    if x < 1 or x > w.limit:
        raise RangeError(f"x={x} outside [1, {w.limit}]")
    return float(partial_sums(w)[int(math.floor(x))])


def chebyshev_ratios(w: WeightSequence, xs, alpha: Optional[float] = None) -> np.ndarray:
    """Normalized partial sums S(x) (log x)^alpha / x on the given points."""
    if alpha is None:
        alpha = w.expected_alpha
    if alpha is None:
        raise DomainError(f"{w.name}: no exponent on record; pass alpha explicitly")
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs < 2) or np.any(xs > w.limit):
        raise RangeError("ratio points must lie in [2, limit]")
    S = partial_sums(w)
    vals = S[np.floor(xs).astype(np.int64)]
    return vals * np.log(xs) ** alpha / xs


def ratio_envelope(w: WeightSequence) -> tuple:
    """Measured (min, max) of the normalized ratio over the top two decades,
    16 points per decade, at the family's expected exponent.

    These are the empirical stand-ins for the two-sided comparability
    constants; they are observations, not certified bounds.
    """
    hi = math.log10(w.limit)
    lo = max(math.log10(4.0), hi - 2.0)
    xs = np.logspace(lo, hi, int(16 * (hi - lo)) + 1)
    r = chebyshev_ratios(w, xs)
    return float(np.min(r)), float(np.max(r))


def default_fit_grid(limit: int) -> np.ndarray:
    """Quarter-decade grid 10^(3 + j/4) capped at the limit."""
    count = int(math.floor((math.log10(limit) - 3.0) * 4)) + 1
    return 10.0 ** (3.0 + 0.25 * np.arange(max(count, 0)))


def fit_alpha(w: WeightSequence, x_grid=None) -> AsymptoticFit:
    """Least-squares exponent fit: log(x / S(x)) regressed on log log x.

    The slope estimates alpha in S(x) ~ C x/(log x)^alpha and the intercept
    gives C.  Grids narrower than two decades or with fewer than three
    points are refused as degenerate.
    """
    if x_grid is None:
        x_grid = default_fit_grid(w.limit)
    xs = np.asarray(x_grid, dtype=np.float64)
    if xs.size < 3:
        raise FitError(f"degenerate grid: {xs.size} points (need >= 3)")
    if np.max(xs) / np.min(xs) < 100.0:
        raise FitError("degenerate grid: needs at least two decades of span")
    if np.any(xs < 2) or np.any(xs > w.limit):
        raise RangeError("fit grid must lie within [2, limit]")
    S = partial_sums(w)
    vals = S[np.floor(xs).astype(np.int64)]
    if np.any(vals <= 0):
        raise FitError("partial sums vanish on part of the grid")
    y = np.log(xs / vals)
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
    if np.any(xs > w.limit) or np.any(xs < 1):
        raise RangeError("block endpoints must lie in [1, limit]")
    S = partial_sums(w)
    return S[np.floor(xs).astype(np.int64)] - S[np.floor(eta * xs).astype(np.int64)]


def shift_to_unit_abscissa(w: WeightSequence) -> WeightSequence:
    """Reweight w_n -> n^(1 - sigma0) w_n, moving the series abscissa to 1.

    The multiplier follows from substituting s -> s + sigma0 - 1 in
    sum w_n n^(-s); the shifted sequence is what the exponent-fitting
    machinery (built for abscissa 1) can be applied to.
    """
    n = np.arange(w.limit + 1, dtype=np.float64)
    n[0] = 1.0  # index 0 is unused; keep 0**negative out of the power
    shifted = w.w * n ** (1.0 - w.sigma0)
    shifted[0] = 0.0
    return WeightSequence(
        name=w.name + "_shifted",
        params=dict(w.params),
        limit=w.limit,
        w=shifted,
        expected_alpha=None,
        sigma0=1.0,
    )
