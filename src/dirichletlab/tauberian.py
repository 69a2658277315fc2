"""Singularity-to-partial-sums workflow for weighted Dirichlet sums.

The chain: profile F(sigma) = sum w_n n^(-sigma) above its divergence
abscissa sigma0, fit the singularity type at sigma0, then predict the
partial-sum growth S(x) ~ c x^sigma0 / (log x)^beta and compare against the
measured sums.

Truncation honesty drives the design.  Near sigma0 a truncated profile is
mostly tail, so fits are restricted to profile points whose envelope tail
bound stays under a percent of the value; with 10^7 terms that pushes the
usable window out to sigma - sigma0 of a few tenths.  At that distance a raw
two-parameter power fit is polluted by the regular part of F, so the model
carries a linear log-correction term, and the logarithmic-singularity case
is decided by letting the two models compete on relative residuals rather
than by the slope alone.

Every partial sum and moment the workflow reads comes from the weights'
scan: prescan reads the profile's moments and the ~80 partial sums that the
envelope, the abscissa estimate and the comparison need in one pass, so no
N-length weight array is built.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import accum
from .errors import DomainError, FitError, RangeError
from . import weights as _weights
from .zeta import upper_gamma


class MellinPoint(NamedTuple):
    sigma: float
    value: float
    tail_bound: float
    remainder: float = 0.0


class SingularityFit(NamedTuple):
    sigma0: float
    beta_hat: float
    g_at_sigma0: float
    fit_window: tuple  # (min, max) of sigma - sigma0 actually used
    residual_rms: float
    log_singularity: bool


class ComparisonRow(NamedTuple):
    x: float
    predicted: float
    measured: float
    ratio: float


def _envelope_points(limit: int) -> np.ndarray:
    lo = max(10.0, limit / 100.0)
    return np.unique(np.floor(np.logspace(math.log10(lo), math.log10(limit), 60)).astype(np.int64))


def _abscissa_points(limit: int) -> np.ndarray:
    lo = max(10.0, limit / 10.0**1.5)
    return np.unique(np.floor(np.logspace(math.log10(lo), math.log10(limit), 12)))


def _s_max(sigmas) -> float:
    # the largest |s| the moments must serve: block_moments' s_max for these sigmas
    return float(np.max(np.abs(np.asarray(sigmas, dtype=np.float64)), initial=0.0))


def _profile_sigmas(w, sigma_grid) -> list:
    """The sigmas of mellin_profile(w, sigma_grid), sorted: DomainError for any
    at or below the abscissa sigma0, nan and +-inf too."""
    sig = [float(s) for s in sigma_grid]
    bad = [s for s in sig if not w.sigma0 < s < math.inf]
    if bad:
        raise DomainError(
            f"sigma = {min(bad)} at or below the divergence abscissa {w.sigma0} or not finite: "
            "the sum has no value there"
        )
    return sorted(sig)


def prescan(w, sigma_grid, x_grid=()) -> None:
    """Read in one scan of w what the workflow will ask of it: the moments of
    mellin_profile(w, sigma_grid) and the partial sums of its envelope, of
    detect_abscissa(w) and of predict_and_compare(fit, w, x_grid).  Those
    calls then find them in w's memo (weights.read).  A sigma grid that
    mellin_profile refuses is refused here, before any weight is read."""
    sig = _profile_sigmas(w, sigma_grid)
    xs = np.asarray(x_grid, dtype=np.float64)
    xs = xs[(xs >= 0) & (xs <= w.limit)]  # the rest is predict's to refuse
    points = np.concatenate([_envelope_points(w.limit), _abscissa_points(w.limit), xs])
    _weights.read(w, points, _s_max(sig))


def log_power_tail(u: float, L: float, alpha: float) -> float:
    """integral_N^inf x^(-1-u) (log x)^(-alpha) dx = u^(alpha-1) Gamma(1-alpha, uL), L = log N."""
    return u ** (alpha - 1.0) * upper_gamma(1.0 - alpha, u * L)


def mellin_profile(w, sigma_grid: Sequence[float]) -> list:
    """Truncated F(sigma) with envelope tail bounds, one MellinPoint per sigma.

    remainder bounds the block-moment evaluation error of value itself
    (accum.moment_sums); tail_bound covers the terms past the truncation.
    The moments of w_1..w_limit and the envelope's partial sums come from
    one scan of w (or from w's memo, see prescan).
    """
    sigma0 = w.sigma0
    sig = _profile_sigmas(w, sigma_grid)
    alpha = w.expected_alpha if w.expected_alpha is not None else 0.0
    xs = _envelope_points(w.limit)
    moments = _weights.read(w, xs, _s_max(sig))[0]
    # the upper envelope max of S(x) (log x)^alpha / x^sigma0 over the top two
    # decades, from the sums the read has put in w's memo
    c_env = float(np.max(_weights.chebyshev_ratios(w, xs, alpha)))
    L = math.log(w.limit)
    values, remainders = accum.moment_sums(moments, sig)
    out = []
    for s, value, rem in zip(sig, values, remainders):
        tail = s * c_env * log_power_tail(s - sigma0, L, alpha)
        out.append(MellinPoint(sigma=s, value=float(value), tail_bound=float(tail),
                               remainder=float(rem)))
    return out


def _lstsq(columns, y):
    """Least-squares coefficients of y on the given columns, and the fitted values."""
    A = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef, A @ coef


_MAX_TAIL_FRAC = 0.01
_U_CAP = 1.2
_MAX_WINDOW_RATIO = 12.0
_MIN_POINTS = 5
_MIN_WINDOW_DECADES = 0.3


def fit_grid(sigma_grid, sigma0: float) -> np.ndarray:
    """The points of sigma_grid that fit_singularity can read: sigma - sigma0
    <= _U_CAP.  Profiling only these keeps the moments' s_max at sigma0 +
    _U_CAP, so their blocks stay at full width however far the grid runs.
    FitError, before any weight is read, if fewer than _MIN_POINTS are left."""
    sig = np.asarray(sigma_grid, dtype=np.float64)
    sig = sig[sig - sigma0 <= _U_CAP]
    if sig.size < _MIN_POINTS:
        raise FitError(f"only {sig.size} profile points lie within u <= {_U_CAP} of "
                       f"sigma0; need {_MIN_POINTS}")
    return sig


def fit_singularity(profile: Sequence[MellinPoint], sigma0: float) -> SingularityFit:
    """Classify and fit the singularity of F at sigma0 from a tail-honest window.

    Power model   log F = a log u + b + c u + d u^2,  u = sigma - sigma0,
                  beta_hat = 1 + a;
    log model     F = A log(1/u) + B + C u + D u^2.

    Two independent gates select the log model, both computed on the same
    window.  Slope drift: the local log-log slope of a power singularity
    flattens from the deep to the shallow half of the window (its analytic
    part enters with positive coefficients), while a log singularity
    steepens, since d log F / d log u = -1/log(1/u) falls away from zero.
    Shape contest: with a single analytic correction term (no u^2 soak),
    a log u + b + c u  on log F against  A log(1/u) + B + C u  on F, each
    model can only track its own singularity type, so the relative-residual
    ratio splits by an order of magnitude.  A pole with a negative analytic
    part (e.g. summatory von Mangoldt) also steepens, but loses the contest
    badly; both gates must agree before the log branch is taken.  A
    degenerate full-window slope |a| < 0.1 forces the log branch outright.

    Only finite points with tail_bound <= _MAX_TAIL_FRAC * value participate; the
    window is then clipped to [u_min, min(_U_CAP, _MAX_WINDOW_RATIO * u_min)]
    so the fit stays local to the singularity, and must keep _MIN_POINTS
    points over _MIN_WINDOW_DECADES decades.
    """
    pts = sorted(profile, key=lambda p: p.sigma)
    u_all = np.array([p.sigma - sigma0 for p in pts])
    F_all = np.array([p.value for p in pts])
    t_all = np.array([p.tail_bound for p in pts])
    if np.any(u_all <= 0.0):
        raise FitError("profile contains points at or below sigma0")
    finite = np.isfinite(F_all) & np.isfinite(t_all)
    ok = finite & (t_all <= _MAX_TAIL_FRAC * F_all)
    if not np.any(ok):
        if not np.all(finite):
            i = int(np.flatnonzero(~finite)[0])
            raise FitError(
                f"{np.count_nonzero(~finite)} of {len(pts)} profile points are not "
                f"finite (value {float(F_all[i])!r}, tail bound {float(t_all[i])!r} "
                f"at sigma = {pts[i].sigma!r}) and no finite point passes the tail gate"
            )
        raise FitError(
            "tails exceed the permitted fraction at every profile point; "
            "raise the truncation or widen the grid upward"
        )
    u, F = u_all[ok], F_all[ok]
    # keep the window local (a "local" fit at u ~ 2 would see mostly the
    # regular part of F)
    keep = u <= min(u[0] * _MAX_WINDOW_RATIO, _U_CAP)
    u, F = u[keep], F[keep]
    if len(u) < _MIN_POINTS:
        raise FitError(f"only {len(u)} usable profile points; need {_MIN_POINTS}")
    span = math.log10(u[-1] / u[0])
    if span < _MIN_WINDOW_DECADES:
        raise FitError(
            f"usable window spans {span:.2f} decades < {_MIN_WINDOW_DECADES}; "
            "tails too large for a stable fit"
        )
    if np.any(F <= 0.0):
        raise FitError("profile values must be positive to fit")

    logu, one = np.log(u), np.ones_like(u)
    # log F = a log u + b + c u + d u^2; the analytic part of F contributes
    # exactly such a series through log(1 + regular/singular) at this depth
    pcoef, ppred = _lstsq([logu, one, u, u * u], np.log(F))
    rms_power = float(np.sqrt(np.mean((np.exp(ppred) / F - 1.0) ** 2)))
    # F = A log(1/u) + B + C u + D u^2
    lcoef, lpred = _lstsq([-logu, one, u, u * u], F)
    rms_log = float(np.sqrt(np.mean((lpred / F - 1.0) ** 2)))

    mid = math.sqrt(u[0] * u[-1])
    deep, shallow = u <= mid, u >= mid
    drift = math.inf  # too few points to split: treat as non-drifting (power)
    if np.count_nonzero(deep) >= 3 and np.count_nonzero(shallow) >= 3:
        slope = [_lstsq([np.log(u[h]), one[h]], np.log(F[h]))[0][0] for h in (shallow, deep)]
        drift = float(slope[0]) - float(slope[1])

    _, pp3 = _lstsq([logu, one, u], np.log(F))
    rp3 = float(np.sqrt(np.mean((np.exp(pp3) / F - 1.0) ** 2)))
    _, pl3 = _lstsq([-logu, one, u], F)
    rl3 = math.inf if np.any(pl3 <= 0.0) else float(np.sqrt(np.mean((pl3 / F - 1.0) ** 2)))

    is_log = (drift <= -0.05 and rl3 <= 5.0 * rp3) or abs(pcoef[0]) < 0.1

    if is_log:
        beta, g, rms = 1.0, float(lcoef[0]), rms_log
    else:
        beta, g, rms = float(1.0 + pcoef[0]), float(math.exp(pcoef[1])), rms_power
    return SingularityFit(sigma0=float(sigma0), beta_hat=beta, g_at_sigma0=g,
                          fit_window=(float(u[0]), float(u[-1])), residual_rms=rms,
                          log_singularity=bool(is_log))


def predict_and_compare(fit: SingularityFit, w, x_grid: Sequence[float]) -> list:
    """Rows (x, predicted, measured, ratio) with the shape constant calibrated
    at the grid midpoint — the fitted g is not converted into the theorem's
    c_beta (that constant carries Gamma factors the fit cannot see)."""
    xs = sorted(float(x) for x in x_grid)
    if not xs:
        raise RangeError("empty comparison grid")
    if not all(2.0 <= x <= w.limit for x in xs):
        raise RangeError(f"comparison grid must lie in [2, {w.limit}]")

    def shape(x: float) -> float:
        return x**fit.sigma0 / math.log(x) ** fit.beta_hat

    measured = _weights.sums_at(w, xs).tolist()
    mid = len(xs) // 2
    if measured[mid] <= 0.0:
        raise FitError("midpoint partial sum is not positive; cannot calibrate")
    c = measured[mid] / shape(xs[mid])
    rows = []
    for x, s_meas in zip(xs, measured):
        pred = c * shape(x)
        rows.append(
            ComparisonRow(x=x, predicted=pred, measured=s_meas, ratio=s_meas / pred)
        )
    return rows


def detect_abscissa(w) -> float:
    """Growth exponent of the partial sums: slope of log S(x) against log x
    over 12 points on the top 1.5 decades.  For S(x) ~ c x^sigma0 (log x)^(-beta)
    this estimates sigma0 up to a O(beta/log x) drift."""
    xs = _abscissa_points(w.limit)
    S = _weights.sums_at(w, xs)
    if not np.all(np.isfinite(S)):
        i = int(np.flatnonzero(~np.isfinite(S))[0])
        raise FitError(f"partial sum S({int(xs[i])}) = {float(S[i])!r} is not finite: "
                       "no growth exponent to estimate")
    if np.any(S <= 0.0):
        raise FitError("partial sums must be positive to estimate the abscissa")
    slope = np.polyfit(np.log(xs), np.log(S), 1)[0]
    return float(slope)
