"""Local embedding numerics on the half-plane strip Omega_I = (1/2, cap] x I.

Two families of quantities face each other here:

* local norms of Dirichlet polynomials — the sup-L2 quantity for the
  Hardy-type case and weighted area/derivative integrals for the rest of
  the scale (parameter alpha < 2, Bergman at -1, Dirichlet at +1);
* the dual side: sums |g_hat(log n)|^2 (log n)^alpha w_n / n over a smooth
  test bump g, whose uniform boundedness over bumps encodes the embedding.

Quadrature: composite Gauss-Legendre in t (the integrand's top frequency is
log N radians per unit, so 32 nodes per unit is already far past resolution),
Gauss-Jacobi in sigma with the exact endpoint weight (sigma-1/2)^e baked into
the rule, which keeps the convergence spectral despite the boundary
singularity.  The values F(sigma + it) on the node grid come from the accum
engine: one set of block moments per polynomial serves the main grid and the
half-node check, and its Taylor remainder is added to the reported
quad_error.  Reductions run in a fixed order, so results are bit-reproducible
run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy import integrate, interpolate, special

from .accum import BlockMoments, block_moments, compensated_sum, moment_sums
from .errors import DomainError, RangeError, TruncationError
from .hspace import DirichletPolynomial, derivative, hw_norm

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LocalWindow:
    """The rectangle (1/2, sigma_cap] x (a, b)."""

    a: float
    b: float
    sigma_cap: float = 1.0

    def __post_init__(self):
        if not (self.a < self.b and math.isfinite(self.a) and math.isfinite(self.b)):
            raise RangeError(f"window needs finite a < b, got ({self.a}, {self.b})")
        if not self.sigma_cap > 0.5:
            raise RangeError(f"sigma_cap must exceed 1/2, got {self.sigma_cap}")

    @property
    def width(self) -> float:
        return self.b - self.a


class LocalNorm(NamedTuple):
    value: float
    quad_error: float
    sigma_at_max: float | None


class EmbeddingEstimate(NamedTuple):
    value: float
    family_size: int
    argmax: int
    ratios: tuple
    quad_error_max: float


@lru_cache(maxsize=64)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=64)
def _jacgauss(n: int, e: float):
    # integral_{-1}^{1} f(x) (1+x)^e dx; e = 0 degenerates to Legendre
    x, w = special.roots_jacobi(n, 0.0, e)
    return x, w


def _t_rule(a: float, b: float, nodes_per_unit: int):
    """Composite Gauss-Legendre over (a, b), unit-length panels."""
    panels = max(1, math.ceil(b - a))
    x, w = _leggauss(max(2, nodes_per_unit))
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def _sigma_rule(alpha: float, cap: float, nodes: int):
    """Nodes/weights for integral_0^V f(1/2+v) v^e dv with the alpha-dependent e."""
    e = (-alpha - 1.0) if alpha < 0 else (1.0 - alpha)
    V = cap - 0.5
    x, w = _jacgauss(max(2, nodes), e)
    sig = 0.5 + V * (x + 1.0) / 2.0
    ws = w * (V / 2.0) ** (e + 1.0)
    return sig, ws


def _moments(F: DirichletPolynomial, win: LocalWindow) -> BlockMoments:
    """F's block moments, sized for every s = sigma + it of the window."""
    return block_moments(F.coeffs, abs(complex(win.sigma_cap, max(abs(win.a), abs(win.b)))))


def _abs2_grid(bm: BlockMoments, sigmas, ts) -> tuple:
    """|F(sigma + it)|^2 on the tensor grid, and a bound on its expansion error."""
    vals, rem = moment_sums(bm, sigmas, ts)
    return vals.real**2 + vals.imag**2, rem * (2.0 * np.abs(vals) + rem)


def _sup_l2_values(bm, win, sigma_grid, nodes_per_unit):
    ts, wt = _t_rule(win.a, win.b, nodes_per_unit)
    m, err = _abs2_grid(bm, sigma_grid, ts)
    return m @ wt, err @ wt


def default_sigma_grid(cap: float, levels: int = 20) -> list:
    """Geometric approach to the boundary: sigma = 1/2 + 2^(-j), plus the cap."""
    grid = {cap}
    for j in range(1, levels + 1):
        s = 0.5 + 2.0**-j
        if s <= cap:
            grid.add(s)
    return sorted(grid)


def local_sup_l2(
    F: DirichletPolynomial,
    win: LocalWindow,
    sigma_grid: Sequence[float] | None = None,
    t_nodes_per_unit: int = 32,
) -> LocalNorm:
    """max over the sigma grid of integral_I |F(sigma+it)|^2 dt.

    The grid realizes "sup over sigma > 1/2" from below; the default grid
    walks sigma - 1/2 down the powers of two to 2^-20.
    """
    if sigma_grid is None:
        sigma_grid = default_sigma_grid(win.sigma_cap)
    sigma_grid = list(sigma_grid)
    if any(not 0.5 < s <= win.sigma_cap for s in sigma_grid):
        raise RangeError("sigma grid must lie in (1/2, sigma_cap]")
    bm = _moments(F, win)
    vals, errs = _sup_l2_values(bm, win, sigma_grid, t_nodes_per_unit)
    i = int(np.argmax(vals))
    check, _ = _sup_l2_values(bm, win, [sigma_grid[i]], max(2, t_nodes_per_unit // 2))
    return LocalNorm(
        value=float(vals[i]),
        quad_error=float(abs(vals[i] - check[0]) + errs[i]),
        sigma_at_max=float(sigma_grid[i]),
    )


def _dalpha_value(bm, alpha, win, t_nodes, s_nodes):
    sig, ws = _sigma_rule(alpha, win.sigma_cap, s_nodes)
    ts, wt = _t_rule(win.a, win.b, t_nodes)
    m, err = _abs2_grid(bm, sig, ts)
    return float(ws @ (m @ wt)), float(ws @ (err @ wt))


def dalpha_local_norm(
    F: DirichletPolynomial,
    alpha: float,
    win: LocalWindow,
    t_nodes_per_unit: int = 32,
    sigma_nodes: int = 64,
) -> LocalNorm:
    """Squared local norm on the alpha scale over Omega_I.

    alpha < 0:     integral |F|^2 (sigma-1/2)^(-alpha-1) dm
    0 < alpha < 2: integral |F'|^2 (sigma-1/2)^(1-alpha) dm
    alpha = 0 is the sup-L2 quantity, a different animal: see local_sup_l2.

    On a monomial n^-s the derivative form is |I| (log n)^2 / n times
    gamma(2-alpha, (2 sigma_cap - 1) log n) / (2 log n)^(2-alpha), which is
    finite and ~ Gamma(2-alpha) 2^(alpha-2) (log n)^alpha / n for every
    alpha < 2; at alpha >= 2 the sigma integral diverges at the boundary.
    """
    alpha = float(alpha)
    if not alpha < 2.0:  # also rejects nan
        raise DomainError(f"alpha = {alpha} is outside the supported scale alpha < 2")
    if alpha == 0.0:
        raise DomainError("alpha = 0 is the sup-L2 case; use local_sup_l2")
    bm = _moments(F if alpha < 0 else derivative(F), win)
    v, err = _dalpha_value(bm, alpha, win, t_nodes_per_unit, sigma_nodes)
    v_half, _ = _dalpha_value(
        bm, alpha, win, max(2, t_nodes_per_unit // 2), max(2, sigma_nodes // 2)
    )
    return LocalNorm(value=v, quad_error=abs(v - v_half) + err, sigma_at_max=None)


# ---------------------------------------------------------------------------
# test bumps and the dual sums


def _bump(u):
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=1)
def _bump_l2sq_unit() -> float:
    v, _ = integrate.quad(lambda x: math.exp(-2.0 / (1.0 - x * x)), -1.0, 1.0)
    return v


@dataclass(frozen=True, eq=False)
class TestBump:
    """Scaled C^inf bump g(t) = exp(-1/(1-u^2)), u = (t-center)/halfwidth.

    `samples` holds (t, g(t)) rows across the support for inspection/export.
    The Fourier side is cached as a cubic spline of the even envelope
    B(y) = integral_{-1}^{1} exp(-1/(1-u^2)) cos(yu) du, so that
    |g_hat(xi)| = halfwidth/sqrt(2 pi) * |B(halfwidth * xi)|.
    """

    center: float
    halfwidth: float
    window: tuple
    samples: np.ndarray
    envelope: interpolate.CubicSpline
    y_max: float

    def fourier_abs(self, xi):
        """|g_hat| at the given frequencies (array ok)."""
        y = self.halfwidth * np.abs(np.asarray(xi, dtype=np.float64))
        if np.any(y > self.y_max):
            raise DomainError(
                f"bump Fourier table covers |xi| <= {self.y_max / self.halfwidth:.3f}"
            )
        return self.halfwidth / math.sqrt(_TWO_PI) * np.abs(self.envelope(y))

    def l2_norm_sq(self) -> float:
        return self.halfwidth * _bump_l2sq_unit()


def make_bump(
    win: LocalWindow,
    center: float | None = None,
    halfwidth: float | None = None,
    xi_max: float = 17.0,
    n_samples: int = 257,
) -> TestBump:
    """Bump supported strictly inside the window's t-interval.

    xi_max bounds the frequencies the cached transform must serve; the
    default covers log n up to n ~ 2.4e7.
    """
    if center is None:
        center = 0.5 * (win.a + win.b)
    if halfwidth is None:
        halfwidth = 0.4 * win.width
    if not (win.a < center - halfwidth and center + halfwidth < win.b):
        raise RangeError(
            f"bump support ({center - halfwidth:.4f}, {center + halfwidth:.4f}) "
            f"must sit strictly inside ({win.a}, {win.b})"
        )
    y_max = halfwidth * xi_max + 1.0
    ys = np.arange(0.0, y_max + 0.05, 0.05)
    vals = np.empty_like(ys)
    f = lambda x: math.exp(-1.0 / (1.0 - x * x)) if abs(x) < 1.0 else 0.0
    for i, y in enumerate(ys):
        # weight='cos' lets QUADPACK handle the oscillation exactly
        vals[i], _ = integrate.quad(
            f, -1.0, 1.0, weight="cos", wvar=float(y), epsabs=1e-13, limit=200
        )
    spline = interpolate.CubicSpline(ys, vals)
    ts = np.linspace(center - halfwidth, center + halfwidth, n_samples)
    samples = np.column_stack([ts, _bump((ts - center) / halfwidth)])
    return TestBump(
        center=float(center),
        halfwidth=float(halfwidth),
        window=(win.a, win.b),
        samples=samples,
        envelope=spline,
        y_max=float(ys[-1]),
    )


def duality_sum(w, alpha: float, bump: TestBump, limit: int | None = None) -> float:
    """sum over n of |g_hat(log n)|^2 (log n)^alpha w_n / n.

    The n = 1 atom sits at log n = 0: it contributes |g_hat(0)|^2 w_1 when
    alpha = 0 and is dropped for alpha < 0 (the frequency-side weight
    |xi|^alpha assigns the origin no finite value; the convention matches
    treating 0^0 = 1 on the Hardy line).
    """
    a, b = bump.window
    if not (a < bump.center - bump.halfwidth and bump.center + bump.halfwidth < b):
        raise RangeError("bump support escapes its declared window")
    N = w.limit if limit is None else min(int(limit), w.limit)
    idx = np.flatnonzero(w.w[: N + 1])
    idx = idx[idx >= 2]
    total = 0.0
    if idx.size:
        logn = np.log(idx.astype(np.float64))
        ghat = bump.fourier_abs(logn)
        total = compensated_sum(ghat**2 * logn**alpha * w.w[idx] / idx)
    if alpha == 0.0 and w.w[1] > 0.0:
        total += float(w.w[1]) * float(bump.fourier_abs(0.0)) ** 2
    return total


def block_test_function(w, k: int) -> DirichletPolynomial:
    """g_k with coefficients w_n on the e-adic block (e^k, e^(k+1)], zero off it."""
    lo = math.floor(math.exp(k)) + 1
    hi = math.floor(math.exp(k + 1))
    if hi > w.limit:
        raise TruncationError(
            f"block (e^{k}, e^{k + 1}] reaches n={hi} beyond the weight truncation {w.limit}"
        )
    arr = np.zeros(hi + 1, dtype=np.complex128)
    arr[lo : hi + 1] = w.w[lo : hi + 1]
    return DirichletPolynomial(limit=hi, coeffs=arr)


def random_family(w, size: int, seed: int, limit: int | None = None) -> list:
    """Seeded i.i.d. complex-Gaussian coefficients scaled by sqrt(w_n).

    E|a_n|^2 = w_n, so each member has unit norm per supported coordinate in
    expectation; membership w.r.t. w holds by construction (zeros propagate).
    """
    N = w.limit if limit is None else min(int(limit), w.limit)
    rng = np.random.default_rng(seed)
    root = np.sqrt(w.w[1 : N + 1])
    out = []
    for _ in range(size):
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        out.append(
            DirichletPolynomial(
                limit=N,
                coeffs=np.concatenate([[0.0 + 0.0j], root * g / math.sqrt(2.0)]),
            )
        )
    return out


def block_family(w, n_max: int | None = None) -> list:
    """The g_k blocks that fit under the truncation (k = 0, 1, ...)."""
    N = w.limit if n_max is None else min(int(n_max), w.limit)
    k_top = int(math.floor(math.log(N))) - 1
    return [block_test_function(w, k) for k in range(0, k_top + 1)]


def embedding_constant(
    w,
    alpha: float,
    win: LocalWindow,
    family: Sequence[DirichletPolynomial],
    t_nodes_per_unit: int = 32,
    sigma_nodes: int = 64,
    sigma_grid: Sequence[float] | None = None,
) -> EmbeddingEstimate:
    """Empirical lower bound on the embedding constant: max of local/norm^2.

    alpha = 0 uses the sup-L2 local quantity, otherwise the alpha-scale one.
    Members are processed in order with a plain max reduction, so the result
    is deterministic for a fixed family.
    """
    if not family:
        raise RangeError("family must be nonempty")
    ratios = []
    qmax = 0.0
    for F in family:
        if alpha == 0.0:
            ln = local_sup_l2(F, win, sigma_grid=sigma_grid, t_nodes_per_unit=t_nodes_per_unit)
        else:
            ln = dalpha_local_norm(
                F, alpha, win, t_nodes_per_unit=t_nodes_per_unit, sigma_nodes=sigma_nodes
            )
        denom = hw_norm(F, w) ** 2
        if denom == 0.0:
            raise RangeError("family member has zero norm")
        ratios.append(ln.value / denom)
        qmax = max(qmax, ln.quad_error / denom)
    i = int(np.argmax(ratios))
    return EmbeddingEstimate(
        value=float(ratios[i]),
        family_size=len(family),
        argmax=i,
        ratios=tuple(float(r) for r in ratios),
        quad_error_max=float(qmax),
    )
