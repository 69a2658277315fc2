"""Local embedding numerics on the half-plane strip Omega_I = (1/2, cap] x I.

Two families of quantities face each other here:

* local norms of Dirichlet polynomials, one routine (local_norm) for the
  whole scale (parameter alpha < 2): the sup-L2 quantity at alpha = 0, the
  Hardy-type case, and weighted area/derivative integrals for the rest
  (Bergman at -1, Dirichlet at +1), all built on integral_I |G(sigma+it)|^2 dt
  per sigma, G = F or F';
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
from typing import Iterable, NamedTuple

import numpy as np

from .accum import BlockMoments, block_moments, compensated_sum, moment_sums
from .errors import DomainError, RangeError, TruncationError
from .hspace import DirichletPolynomial, derivative, hw_norm

_TWO_PI = 2.0 * math.pi
_T_NODES_PER_UNIT = 32
_SIGMA_NODES = 64


@dataclass(frozen=True)
class LocalWindow:
    """The rectangle (1/2, sigma_cap] x (a, b)."""

    a: float
    b: float
    sigma_cap: float = 1.0

    def __post_init__(self):
        if not (self.a < self.b and math.isfinite(self.a) and math.isfinite(self.b)):
            raise RangeError(f"window needs finite a < b, got ({self.a}, {self.b})")
        if not 0.5 < self.sigma_cap < math.inf:
            raise RangeError(f"sigma_cap must be finite and exceed 1/2, got {self.sigma_cap}")

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


# The alpha scale the local norms evaluate: below 2 the sigma integral
# converges at the boundary, and above -1024 the sigma rule's mass scale
# 2^(-alpha) is a finite float64.
ALPHA_LOW, ALPHA_HIGH = -1024.0, 2.0


@lru_cache(maxsize=64)
def _jacgauss(n: int, e: float):
    """Gauss-Jacobi rule for integral_{-1}^{1} f(x) (1+x)^e dx, e > -1.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the P^(0,e) three-term recurrence, and each weight is
    the total mass 2^(e+1)/(e+1) times the squared first component of its
    eigenvector.  2k - 1 + e is formed directly, not as (2k + e) - 1, so
    e near -1 keeps its digits.
    """
    k = np.arange(1, n, dtype=np.float64)
    s = 2.0 * k + e
    diag = np.empty(n)
    diag[0] = e / (e + 2.0)
    diag[1:] = e * e / (s * (s + 2.0))
    off = 2.0 * k * (k + e) / (s * np.sqrt((s + 1.0) * (2.0 * k - 1.0 + e)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    return x, 2.0 ** (e + 1.0) / (e + 1.0) * v[0] ** 2


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


def _t_integrals(bm: BlockMoments, win: LocalWindow, sigmas, nodes_per_unit: int) -> tuple:
    """integral_I |G(sigma + it)|^2 dt at each sigma, G the polynomial of the
    moments bm, with nodes_per_unit Gauss-Legendre t nodes per unit; and a
    bound on each integral's expansion error."""
    ts, wt = _t_rule(win.a, win.b, nodes_per_unit)
    vals, rem = moment_sums(bm, sigmas, ts)
    with np.errstate(over="ignore"):  # an inf here is refused by embedding_constant
        m, err = vals.real**2 + vals.imag**2, rem * (2.0 * np.abs(vals) + rem)
    return m @ wt, err @ wt


def default_sigma_grid(cap: float) -> list:
    """Geometric approach to the boundary: sigma = 1/2 + 2^(-j), j <= 20, plus the cap."""
    grid = {cap}
    for j in range(1, 21):
        s = 0.5 + 2.0**-j
        if s <= cap:
            grid.add(s)
    return sorted(grid)


def check_sigma_rules(alpha: float, win: LocalWindow) -> None:
    """Raise DomainError unless every weight of the two sigma rules that
    local_norm(F, alpha, win) uses at alpha != 0, of _SIGMA_NODES and half as
    many nodes, is a normal float64.

    Each weight carries the factor (V/2)^(-alpha), V = sigma_cap - 1/2: far
    down the alpha scale it underflows (at sigma_cap = 1 from alpha ~ -512 on),
    and a 0 or subnormal weight would make the local norm read 0, or lose its
    digits, with no sign of it.  A larger sigma_cap lifts the factor.
    """
    for nodes in (_SIGMA_NODES, _SIGMA_NODES // 2):
        ws = _sigma_rule(alpha, win.sigma_cap, nodes)[1]
        bad = ws[~(np.isfinite(ws) & (ws >= np.finfo(np.float64).tiny))]
        if bad.size:
            raise DomainError(f"a sigma-rule weight at alpha = {alpha}, sigma_cap = "
                              f"{win.sigma_cap} is {bad[0]:g}, not a normal float64")


def local_norm(F: DirichletPolynomial, alpha: float, win: LocalWindow) -> LocalNorm:
    """Squared local norm of F on the alpha scale over Omega_I.

    alpha = 0:     max over sigma of integral_I |F(sigma+it)|^2 dt
    alpha < 0:     integral |F|^2 (sigma-1/2)^(-alpha-1) dm
    0 < alpha < 2: integral |F'|^2 (sigma-1/2)^(1-alpha) dm

    At alpha = 0 the sigmas are default_sigma_grid(win.sigma_cap), which
    realizes "sup over sigma > 1/2" from below: it walks sigma - 1/2 down the
    powers of two to 2^-20 and ends at the cap.  The quadrature error is the
    gap to the rule with half as many t nodes at the maximizing sigma, plus
    the expansion bound.

    Off alpha = 0, on a monomial n^-s the derivative form is |I| (log n)^2 / n
    times gamma(2-alpha, (2 sigma_cap - 1) log n) / (2 log n)^(2-alpha), which
    is finite and ~ Gamma(2-alpha) 2^(alpha-2) (log n)^alpha / n for every
    alpha < 2; at alpha >= 2 the sigma integral diverges at the boundary.
    The rule is _T_NODES_PER_UNIT Gauss-Legendre nodes per unit of t times
    _SIGMA_NODES Gauss-Jacobi nodes in sigma; the quadrature error is the
    gap to the rule with half as many nodes in each, plus the expansion
    bound.  A sigma rule whose weights leave the normal float64 range raises
    DomainError (see check_sigma_rules).
    """
    alpha = float(alpha)
    if not ALPHA_LOW < alpha < ALPHA_HIGH:  # also rejects nan
        raise DomainError(f"alpha = {alpha} is outside the supported scale "
                          f"{ALPHA_LOW:g} < alpha < {ALPHA_HIGH:g}")
    if alpha != 0.0:
        check_sigma_rules(alpha, win)
    # the moments of G = F, or F' (let go once they are built), sized for
    # every s = sigma + it of the window, serve both rules
    G = derivative(F) if alpha > 0 else F
    bm = block_moments(G.coeffs, abs(complex(win.sigma_cap, max(abs(win.a), abs(win.b)))))
    del G
    if alpha == 0.0:
        sigma_grid = default_sigma_grid(win.sigma_cap)
        vals, errs = _t_integrals(bm, win, sigma_grid, _T_NODES_PER_UNIT)
        i = int(np.argmax(vals))
        check, _ = _t_integrals(bm, win, [sigma_grid[i]], _T_NODES_PER_UNIT // 2)
        return LocalNorm(
            value=float(vals[i]),
            # in Python floats, so an inf value's inf - inf raises no numpy warning
            quad_error=abs(float(vals[i]) - float(check[0])) + float(errs[i]),
            sigma_at_max=float(sigma_grid[i]),
        )
    sums = []
    for t_nodes, s_nodes in ((_T_NODES_PER_UNIT, _SIGMA_NODES),
                             (_T_NODES_PER_UNIT // 2, _SIGMA_NODES // 2)):
        sig, ws = _sigma_rule(alpha, win.sigma_cap, s_nodes)
        m, err = _t_integrals(bm, win, sig, t_nodes)
        sums.append((float(ws @ m), float(ws @ err)))
    (v, err), (v_half, _) = sums
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


# The bump is C^inf with every derivative zero at +-1, so Gauss-Legendre in
# the bump variable converges spectrally: 100 nodes resolve it and cos(yu)
# to rounding for y up to ~120, and y_max nodes keep pace past that.
_BUMP_NODES = 100


@lru_cache(maxsize=1)
def _bump_l2sq_unit() -> float:
    u, w = _leggauss(_BUMP_NODES)
    return float(w @ _bump(u) ** 2)


def _bump_transform(y_max: float) -> np.polynomial.Chebyshev:
    """B(y) = integral_{-1}^{1} exp(-1/(1-u^2)) cos(yu) du as a Chebyshev
    interpolant on [0, y_max].

    B is entire and decays like exp(-sqrt(2y)), so degree 24 + 3 y_max / 4
    holds the interpolant within 1e-12 of the quadrature for y_max up to
    ~500, and within 1e-14 at y_max ~ 8 (the default bump of a unit window).
    """
    u, w = _leggauss(max(_BUMP_NODES, math.ceil(y_max)))
    g = w * _bump(u)
    return np.polynomial.Chebyshev.interpolate(
        lambda y: np.cos(np.multiply.outer(y, u)) @ g,
        24 + math.ceil(0.75 * y_max),
        domain=[0.0, y_max],
    )


@dataclass(frozen=True, eq=False)
class TestBump:
    """Scaled C^inf bump g(t) = exp(-1/(1-u^2)), u = (t-center)/halfwidth.

    The Fourier side is cached as a Chebyshev interpolant, on [0, y_max], of
    the even envelope B(y) = integral_{-1}^{1} exp(-1/(1-u^2)) cos(yu) du,
    so that |g_hat(xi)| = halfwidth/sqrt(2 pi) * |B(halfwidth * xi)|.
    """

    center: float
    halfwidth: float
    window: tuple
    envelope: np.polynomial.Chebyshev
    y_max: float

    def fourier_abs(self, xi):
        """|g_hat| at the given frequencies (array ok)."""
        xi = np.abs(np.asarray(xi, dtype=np.float64))
        # bounded in xi, so the |xi| <= y_max / halfwidth the message promises
        # is served even where halfwidth * xi rounds one ulp past y_max
        if np.any(xi > self.y_max / self.halfwidth):
            raise DomainError(
                f"bump Fourier table covers |xi| <= {self.y_max / self.halfwidth:.3f}"
            )
        return self.halfwidth / math.sqrt(_TWO_PI) * np.abs(self.envelope(self.halfwidth * xi))

    def l2_norm_sq(self) -> float:
        return self.halfwidth * _bump_l2sq_unit()


def make_bump(
    win: LocalWindow,
    center: float | None = None,
    halfwidth: float | None = None,
) -> TestBump:
    """Bump supported strictly inside the window's t-interval.

    The cached transform serves frequencies |xi| <= 17, which covers log n up
    to n ~ 2.4e7.
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
    y_max = float(halfwidth * 17.0 + 1.0)
    return TestBump(
        center=float(center),
        halfwidth=float(halfwidth),
        window=(win.a, win.b),
        envelope=_bump_transform(y_max),
        y_max=y_max,
    )


def duality_sum(w, alpha: float, bump: TestBump) -> float:
    """sum over n of |g_hat(log n)|^2 (log n)^alpha w_n / n.

    The n = 1 atom sits at log n = 0: it contributes |g_hat(0)|^2 w_1 when
    alpha = 0 and is dropped for alpha < 0 (the frequency-side weight
    |xi|^alpha assigns the origin no finite value; the convention matches
    treating 0^0 = 1 on the Hardy line).
    """
    a, b = bump.window
    if not (a < bump.center - bump.halfwidth and bump.center + bump.halfwidth < b):
        raise RangeError("bump support escapes its declared window")
    idx = np.flatnonzero(w.w)
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
    return DirichletPolynomial(arr)


def random_family(w, size: int, seed: int):
    """size members with seeded i.i.d. complex-Gaussian coefficients scaled by sqrt(w_n).

    E|a_n|^2 = w_n, so each member has unit norm per supported coordinate in
    expectation; membership w.r.t. w holds by construction (zeros propagate).
    A generator: it draws each member on demand and keeps none it has
    yielded once it resumes, and every call re-seeds, so two calls yield the
    same members in the same order.
    """
    N = w.limit
    rng = np.random.default_rng(seed)
    root = np.sqrt(w.w[1 : N + 1])
    for _ in range(size):
        g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        # root * g / sqrt(2), the same two ufuncs, formed in the member's array
        coeffs = np.empty(N + 1, dtype=np.complex128)
        coeffs[0] = 0.0
        np.multiply(root, g, out=coeffs[1:])
        del g
        coeffs[1:] /= math.sqrt(2.0)
        yield DirichletPolynomial(coeffs)
        del coeffs  # let the consumer's last member go before the next draw


def block_family(w):
    """The g_k blocks that fit under the truncation, k = 0, 1, ... while
    floor(e^(k+1)) <= N, built in order on demand (a generator)."""
    k = 0
    while math.floor(math.exp(k + 1)) <= w.limit:
        yield block_test_function(w, k)
        k += 1


def embedding_constant(
    w,
    alpha: float,
    win: LocalWindow,
    family: Iterable[DirichletPolynomial],
) -> EmbeddingEstimate:
    """Empirical lower bound on the embedding constant: max of local/norm^2.

    Each member's local quantity is local_norm(F, alpha, win).  family is
    any iterable of polynomials, such as random_family or block_family; it
    is read once, in order, with a plain max reduction, so the result is
    deterministic for a fixed family, and family_size is the number of
    members read.  Each member and its local norm are let go before the next
    member is asked for, so a family that builds its members on demand has
    one alive at a time.  An empty family, or a member whose local norm or
    norm^2 overflows float64 (weights like the spiked family's e^n), raises
    RangeError.
    """
    ratios = []
    qmax = 0.0
    for F in family:  # no enumerate: its reused result tuple would keep F alive
        ln = local_norm(F, alpha, win)
        with np.errstate(over="ignore"):  # an overflow is refused below
            denom = hw_norm(F, w) ** 2
        if not (math.isfinite(ln.value) and math.isfinite(denom)):
            raise RangeError(f"family member {len(ratios)} at N = {w.limit}: local norm "
                             f"{ln.value!r} and norm^2 {denom!r} are not both finite")
        if denom == 0.0:
            raise RangeError("family member has zero norm")
        ratios.append(ln.value / denom)
        qmax = max(qmax, ln.quad_error / denom)
        del F, ln
    if not ratios:
        raise RangeError("family must be nonempty")
    i = int(np.argmax(ratios))
    return EmbeddingEstimate(
        value=float(ratios[i]),
        family_size=len(ratios),
        argmax=i,
        ratios=tuple(float(r) for r in ratios),
        quad_error_max=float(qmax),
    )
