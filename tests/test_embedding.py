import math
import types
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, special

from dirichletlab import accum, embedding, weights as W
from dirichletlab.embedding import (
    LocalWindow,
    block_family,
    block_test_function,
    default_sigma_grid,
    duality_sum,
    embedding_constant,
    local_norm,
    make_bump,
    random_family,
)
from dirichletlab.errors import DomainError, RangeError, TruncationError
from dirichletlab.hspace import poly_from_coeffs
from dirichletlab.weights import partial_sums

WIN = LocalWindow(0.0, 1.0, 1.0)


def monomial(n, limit=None):
    """n^(-s) with the truncation level limit (default n)."""
    a = np.zeros(n if limit is None else limit, dtype=np.complex128)
    a[n - 1] = 1.0
    return poly_from_coeffs(a)


def test_window_validation():
    with pytest.raises(RangeError):
        LocalWindow(1.0, 0.0, 1.0)
    with pytest.raises(RangeError):
        LocalWindow(0.0, 1.0, 0.4)  # cap must exceed 1/2
    with pytest.raises(RangeError):
        LocalWindow(0.0, math.inf, 1.0)


def test_sup_l2_constant_is_interval_length():
    v = local_norm(monomial(1), 0.0, WIN)
    assert v.value == pytest.approx(1.0, abs=1e-12)
    wide = local_norm(monomial(1), 0.0, LocalWindow(-1.0, 2.5, 1.0))
    assert wide.value == pytest.approx(3.5, abs=1e-12)


def test_sup_l2_two_power_attained_at_grid_minimum():
    # |2^-s|^2 = 4^-sigma; the grid realizes the sup at its smallest sigma
    v = local_norm(monomial(2), 0.0, WIN)
    s_min = min(default_sigma_grid(WIN.sigma_cap))
    assert v.sigma_at_max == pytest.approx(s_min)
    assert v.value == pytest.approx(WIN.width * 4.0 ** (-s_min), rel=1e-12)


def test_dalpha_bergman_constant():
    v = local_norm(monomial(1), -1.0, WIN)
    assert v.value == pytest.approx(WIN.width * (WIN.sigma_cap - 0.5), rel=1e-12)
    cap2 = LocalWindow(0.0, 2.0, 1.5)
    v2 = local_norm(monomial(1), -1.0, cap2)
    assert v2.value == pytest.approx(2.0 * 1.0, rel=1e-12)


def test_dalpha_dirichlet_kills_constants():
    v = local_norm(monomial(1), 1.0, WIN)
    assert v.value == 0.0


def test_dalpha_bergman_two_power_closed_form():
    # integral over (1/2, 1] of 4^-sigma dsigma, times |I|
    expect = WIN.width * (4.0 ** -0.5 - 4.0 ** -1.0) / math.log(4.0)
    v = local_norm(monomial(2), -1.0, WIN)
    assert v.value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("n", [2, 1000])
@pytest.mark.parametrize("alpha", [1.5, 1.9])
def test_dalpha_derivative_monomial_incomplete_gamma(n, alpha):
    # |I| (log n)^2 / n * integral_0^V v^(1-alpha) exp(-2 v log n) dv, V = cap - 1/2;
    # gammainc, not mpmath.quad: quad misses the v^(1-alpha) endpoint
    # singularity (4e-4 relative at alpha = 1.9); measured rel error <= 1.7e-11
    L = math.log(n)
    with mpmath.workdps(30):
        lower = mpmath.gammainc(2.0 - alpha, 0, (2.0 * WIN.sigma_cap - 1.0) * L)
        expect = float(WIN.width * L**2 / n * lower / (2.0 * L) ** (2.0 - alpha))
    v = local_norm(monomial(n), alpha, WIN)
    assert v.value == pytest.approx(expect, rel=1e-10)


def test_alpha_above_one_unsupported():
    with pytest.raises(DomainError):
        local_norm(monomial(2), 2.0, WIN)  # the sigma integral diverges
    with pytest.raises(DomainError):
        local_norm(monomial(2), math.nan, WIN)
    with pytest.raises(DomainError):
        local_norm(monomial(2), -1100.0, WIN)  # 2^1100 overflows the sigma rule
    for alpha in (-600.0, -900.0):  # (1/4)^(-alpha) underflows at sigma_cap = 1
        with pytest.raises(DomainError, match="sigma_cap = 1.0"):
            local_norm(monomial(2), alpha, WIN)
    # at sigma_cap = 2.5 the factor (V/2)^(-alpha) is 1: the rule's mass is 2^900
    deep = local_norm(monomial(2), -900.0, LocalWindow(0.0, 1.0, 2.5)).value
    assert math.isfinite(deep) and deep > 0.0
    assert local_norm(monomial(2), -500.0, WIN).value > 0.0


def _random_poly(seed, n):
    rng = np.random.default_rng(seed)
    return poly_from_coeffs(rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.5, 1.0, 1.5])
def test_local_norm_monotone_in_interval(alpha):
    F = _random_poly(31, 40)
    inner = LocalWindow(0.1, 0.9, 1.0)
    outer = LocalWindow(0.0, 1.4, 1.0)
    vi = local_norm(F, alpha, inner).value
    vo = local_norm(F, alpha, outer).value
    assert vi <= vo * (1.0 + 1e-12)


def test_sup_l2_monotone_in_interval():
    F = _random_poly(32, 40)
    vi = local_norm(F, 0.0, LocalWindow(0.2, 0.8, 1.0)).value
    vo = local_norm(F, 0.0, LocalWindow(0.0, 1.0, 1.0)).value
    assert vi <= vo * (1.0 + 1e-12)


def test_scaling_invariance_of_ratios():
    w = W.catalog("constant", 40)
    F = _random_poly(33, 40)
    G = poly_from_coeffs(F.coeffs[1:] * (2.5 - 1.5j))
    e1 = embedding_constant(w, -1.0, WIN, [F])
    e2 = embedding_constant(w, -1.0, WIN, [G])
    assert e1.value == pytest.approx(e2.value, rel=1e-12)


def test_quadrature_doubling_stability(monkeypatch):
    F = _random_poly(34, 100)
    assert (embedding._T_NODES_PER_UNIT, embedding._SIGMA_NODES) == (32, 64)
    for alpha in (-1.0, 0.5):
        v1 = local_norm(F, alpha, WIN).value
        with monkeypatch.context() as m:
            m.setattr(embedding, "_T_NODES_PER_UNIT", 64)
            m.setattr(embedding, "_SIGMA_NODES", 128)
            v2 = local_norm(F, alpha, WIN).value
        assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


def test_bump_requires_interior_support():
    with pytest.raises(RangeError):
        make_bump(WIN, center=0.5, halfwidth=0.6)


def test_bump_fourier_against_direct_quadrature():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    for xi in (0.0, 1.0, 5.0, 14.0, *np.linspace(0.0, b.y_max / b.halfwidth, 33)):
        val, _ = integrate.quad(
            lambda u: math.exp(-1.0 / (1.0 - u * u)) * math.cos(b.halfwidth * xi * u),
            -1.0, 1.0, epsabs=1e-13,
        )
        expect = b.halfwidth / math.sqrt(2.0 * math.pi) * abs(val)
        assert b.fourier_abs(xi) == pytest.approx(expect, rel=1e-9, abs=1e-13)


def test_bump_fourier_wide_bump_against_quadpack():
    # y_max = 4 * 17 + 1 = 69: past where the default bump's rule is checked
    b = make_bump(LocalWindow(0.0, 10.0, 1.0), center=5.0, halfwidth=4.0)
    f = lambda u: math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0
    for xi in np.linspace(0.0, b.y_max / b.halfwidth, 23):
        val, _ = integrate.quad(f, -1.0, 1.0, weight="cos", wvar=b.halfwidth * xi,
                                epsabs=1e-14, limit=400)
        expect = b.halfwidth / math.sqrt(2.0 * math.pi) * abs(val)
        assert b.fourier_abs(xi) == pytest.approx(expect, rel=1e-9, abs=1e-13)


def _jacobi_mass(e):
    return 2.0 ** (e + 1.0) / (e + 1.0)


_EXPONENTS = st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 64, 128]), _EXPONENTS)
@example(64, -0.5)
@example(128, 0.0)
def test_gauss_jacobi_against_scipy(n, e):
    x, w = embedding._jacgauss(n, e)
    with np.errstate(all="ignore"):
        xr, wr = special.roots_jacobi(n, 0.0, e)
    if not np.all(np.isfinite(wr)):
        return  # scipy's own weights break down within ~1e-16 of e = -1
    assert np.max(np.abs(x - xr)) <= 1e-14
    # scipy's weights drift by up to ~2e-9 of the total mass as e -> -1 at
    # n = 128 (against mpmath, the eigenvector weights stay near 1e-11)
    assert np.max(np.abs(w - wr)) <= 1e-8 * _jacobi_mass(e)
    assert math.fsum(w) == pytest.approx(_jacobi_mass(e), rel=1e-12)


def _jacobi_moment(k, e):
    # integral_{-1}^{1} x^k (1+x)^e dx, with x^k = ((1+x) - 1)^k: a signed
    # sum of the Beta integrals integral (1+x)^(j+e) dx = 2^(j+e+1)/(j+e+1)
    with mpmath.workdps(60):
        e = mpmath.mpf(e)
        return float(mpmath.fsum(mpmath.binomial(k, j) * (-1) ** (k - j) * 2 ** (j + e + 1) / (j + e + 1)
                                 for j in range(k + 1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5, 8, 16, 32]), _EXPONENTS)
@example(32, -0.9999999999999999)
@example(16, 2.9999999999999996)
def test_gauss_jacobi_exact_on_monomials(n, e):
    x, w = embedding._jacgauss(n, e)
    for k in range(2 * n):
        scale = math.fsum(w * np.abs(x) ** k)
        assert abs(math.fsum(w * x**k) - _jacobi_moment(k, e)) <= 1e-13 * scale, k


def test_bump_fourier_table_bound():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    with pytest.raises(DomainError):
        b.fourier_abs(b.y_max / b.halfwidth + 1.0)


def test_bump_l2_norm():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    val, _ = integrate.quad(lambda u: math.exp(-2.0 / (1.0 - u * u)), -1.0, 1.0)
    assert b.l2_norm_sq() == pytest.approx(0.35 * val, rel=1e-12)


def test_duality_sum_zero_weight():
    z = types.SimpleNamespace(w=np.zeros(101), limit=100)  # duality_sum reads only w.w
    b = make_bump(WIN, 0.5, 0.35)
    assert duality_sum(z, 0.0, b) == 0.0


def test_duality_sum_constant_stable_under_truncation_growth():
    b = make_bump(WIN, 0.5, 0.35)
    v5 = duality_sum(W.catalog("constant", 10**5), 0.0, b)
    v6 = duality_sum(W.catalog("constant", 10**6), 0.0, b)
    assert v5 == pytest.approx(0.0251740402, rel=1e-6)  # frozen
    assert abs(v6 - v5) / v5 < 0.01


def test_duality_sum_kadec_reduces_to_atom_sum():
    w = W.catalog("kadec", 4000, blocks=8)
    b = make_bump(WIN, 0.5, 0.35)
    got = duality_sum(w, 0.0, b)
    atoms = W.kadec_indices(8)
    expect = math.fsum(float(b.fourier_abs(math.log(n))) ** 2 for n in atoms)
    assert got == pytest.approx(expect, rel=1e-12)


def test_block_test_function_first_block_is_single_term():
    w = W.catalog("constant", 100)
    g0 = block_test_function(w, 0)
    assert np.array_equal(np.flatnonzero(g0.coeffs), [2])
    assert g0.coeffs[2] == 1.0


def test_block_norm_squared_is_block_weight_sum():
    from dirichletlab.hspace import hw_norm

    w = W.catalog("divisor", 30000)
    S = partial_sums(w)
    for k in (2, 5, 9):
        g = block_test_function(w, k)
        lo, hi = math.floor(math.exp(k)), math.floor(math.exp(k + 1))
        assert hw_norm(g, w) ** 2 == pytest.approx(S[hi] - S[lo], rel=1e-12)


def test_block_beyond_truncation():
    w = W.catalog("constant", 100)
    with pytest.raises(TruncationError):
        block_test_function(w, 5)  # e^6 > 100


def test_block_family_covers_available_blocks():
    w = W.catalog("constant", 30000)  # ln = 10.3 -> k = 0..9
    fam = list(block_family(w))
    assert len(fam) == 10


@pytest.mark.parametrize("K", [3, 4, 5, 6, 7, 8])
def test_block_family_keeps_the_block_ending_at_the_truncation(K):
    # N = floor(e^K) = 20, 54, 148, 403, 1096, 2980: block K - 1 ends exactly at N
    N = math.floor(math.exp(K))
    w = W.catalog("constant", N)
    fam = list(block_family(w))
    assert len(fam) == K
    assert [F.limit for F in fam][-1] == N
    with pytest.raises(TruncationError):
        block_test_function(w, K)


def test_block_scaling_chain_for_divisor():
    # local_norm(g_k, -1) * e^k * 2k / S_k^2 hovers near 1/2 across k = 4..9
    w = W.catalog("divisor", 30000)
    S = partial_sums(w)
    vals = []
    for k in range(4, 10):
        g = block_test_function(w, k)
        q = local_norm(g, -1.0, WIN).value
        sk = S[math.floor(math.exp(k + 1))] - S[math.floor(math.exp(k))]
        vals.append(q * math.exp(k) * 2.0 * k / sk**2)
    assert all(0.4 <= v <= 0.6 for v in vals)  # measured 0.476..0.519


def test_embedding_constant_trivial_member():
    w = W.catalog("constant", 100)
    est = embedding_constant(w, 0.0, WIN, [monomial(1)])
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.value >= 1.0 - 1e-12
    assert est.family_size == 1


def test_embedding_constant_random_family_below_duality_bound():
    w = W.catalog("constant", 10**4)
    fam = random_family(w, 200, 20260817)
    est = embedding_constant(w, 0.0, WIN, fam)
    assert est.value == pytest.approx(0.003137, rel=1e-3)  # frozen
    bumps = [make_bump(WIN, c, h) for c, h in
             [(0.5, 0.35), (0.3, 0.25), (0.7, 0.25), (0.5, 0.2)]]
    bound = 2.0 * math.pi * max(duality_sum(w, 0.0, b) / b.l2_norm_sq() for b in bumps)
    assert est.value <= bound  # measured 0.0031 vs 3.30


def test_random_family_is_seeded():
    w = W.catalog("constant", 500)
    f1 = random_family(w, 5, 123)
    f2 = random_family(w, 5, 123)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_random_family_passes_repeat_the_same_draws():
    w = W.catalog("divisor", 500)
    first, second = list(random_family(w, 4, 77)), list(random_family(w, 4, 77))
    assert len(first) == len(second) == 4
    # the draws of one seeded generator, member after member
    rng = np.random.default_rng(77)
    for a, b in zip(first, second):
        g = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        want = np.concatenate([[0.0 + 0.0j], np.sqrt(w.w[1:]) * g / math.sqrt(2.0)])
        assert np.array_equal(a.coeffs, want)
        assert np.array_equal(b.coeffs, want)


@pytest.mark.parametrize("kind", ["random", "blocks"])
def test_shipped_families_keep_no_yielded_member(kind, monkeypatch):
    # a weakref to each member the consumer let go must be dead when the
    # generator starts the next member (its first draw, or its block) and
    # once it has yielded it
    w = W.catalog("divisor", 3000)
    refs = []

    def check():
        assert all(r() is None for r in refs), "a yielded member is still alive"

    if kind == "random":
        real = np.random.default_rng

        class ProbeRng:
            def __init__(self, seed):
                self._rng = real(seed)

            def standard_normal(self, n):
                check()
                return self._rng.standard_normal(n)

        monkeypatch.setattr(np.random, "default_rng", ProbeRng)
        fam = random_family(w, 4, 8)
    else:
        build = embedding.block_test_function

        def probe(w, k):
            check()
            return build(w, k)

        monkeypatch.setattr(embedding, "block_test_function", probe)
        fam = block_family(w)
    F = next(fam)
    while F is not None:
        refs += [weakref.ref(F), weakref.ref(F.coeffs)]
        del F
        F = next(fam, None)
        check()
    assert len(refs) == 2 * (4 if kind == "random" else 8)


class _OneAliveFamily:
    """Sized family whose generator checks, through a weakref, that the previous
    member is gone before it builds the next."""

    def __init__(self, size, N):
        self.size, self.N, self.built = size, N, 0

    def __len__(self):
        return self.size

    def __iter__(self):
        prev = None
        rng = np.random.default_rng(3)
        for _ in range(self.size):
            assert prev is None or prev() is None, "the previous member is still alive"
            a = rng.standard_normal(self.N) + 1j * rng.standard_normal(self.N)
            box = [poly_from_coeffs(a)]
            prev = weakref.ref(box[0])
            self.built += 1
            yield box.pop()  # the generator keeps no reference to the member


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5])
def test_embedding_constant_holds_one_member_at_a_time(alpha):
    w = W.catalog("constant", 300)
    fam = _OneAliveFamily(4, 300)
    est = embedding_constant(w, alpha, WIN, fam)
    assert fam.built == 4 and est.family_size == 4 and len(est.ratios) == 4


@pytest.mark.parametrize("name, alpha, size", [("constant", 0.0, 8), ("divisor", 0.5, 6)])
def test_embedding_constant_builds_one_phase_table_per_t_grid(name, alpha, size):
    # every member's local norm reads the main t grid and the half-node
    # check grid; their two head-phase tables serve the whole family
    w = W.catalog(name, 2000)
    accum._phase_table.cache_clear()
    embedding_constant(w, alpha, WIN, random_family(w, size, seed=4))
    info = accum._phase_table.cache_info()
    assert info.misses == 2 and info.hits == 2 * size - 2


def test_spiked_weights_break_the_embedding():
    # growth beyond any fixed bound across the truncation sweep
    ws = W.catalog("kadec_spiked", 4000, blocks=4)
    values = []
    for N in (100, 300, 600):
        fam = [monomial(n, limit=N) for n in range(2, N + 1)]
        values.append(embedding_constant(ws, -1.0, WIN, fam).value)
    assert values[0] > 1e30           # measured 2.9e40
    assert values[1] > values[0] * 1e50
    assert values[2] > values[1] * 1e50


def test_embedding_constant_rejects_empty_family():
    w = W.catalog("constant", 100)
    with pytest.raises(RangeError):
        embedding_constant(w, 0.0, WIN, [])


def _direct_sums(coeffs, sigmas, ts):
    """The reference the engine replaced: sum a_n n^(-sigma) e^(-it log n), chunked."""
    sigmas = np.asarray(sigmas, dtype=np.float64)
    idx = np.flatnonzero(coeffs)
    out = np.zeros((len(sigmas), len(ts)), dtype=np.complex128)
    logn = np.log(idx.astype(np.float64))
    for lo in range(0, idx.size, 8192):
        sl = slice(lo, lo + 8192)
        amp = coeffs[idx[sl]] * np.exp(-np.outer(sigmas, logn[sl]))
        out += amp @ np.exp(-1j * np.outer(logn[sl], ts))
    return out, np.zeros(out.shape)


def _with_direct_sums(monkeypatch, compute):
    """compute() with the embedding's sums taken term by term instead of from moments."""
    with monkeypatch.context() as m:
        m.setattr(embedding, "block_moments", lambda a, s_max: a)
        m.setattr(embedding, "moment_sums", _direct_sums)
        return compute()


@pytest.mark.parametrize("kind", ["random", "blocks"])
def test_local_norms_match_the_direct_sum(kind, monkeypatch):
    # N = 2e4 reaches past the engine's 4096-term head into its blocks
    w = W.catalog("divisor", 20_000)
    fam = list(random_family(w, 3, 5)) if kind == "random" else list(block_family(w))[-3:]
    for F in fam:
        for norm in (
            lambda: local_norm(F, 0.0, WIN),
            lambda: local_norm(F, 0.5, WIN),
            lambda: local_norm(F, -0.5, WIN),
        ):
            got, want = norm(), _with_direct_sums(monkeypatch, norm)
            assert got.value == pytest.approx(want.value, rel=1e-12)
            assert got.sigma_at_max == want.sigma_at_max
    for alpha in (0.0, 0.5, -0.5):
        est = lambda: embedding_constant(w, alpha, WIN, fam)
        got, want = est(), _with_direct_sums(monkeypatch, est)
        assert got.ratios == pytest.approx(want.ratios, rel=1e-12)
        assert got.argmax == want.argmax


def test_local_norm_matches_the_direct_sum_on_a_wide_window(monkeypatch):
    # |t| up to 30: the engine narrows its blocks, the value stays put
    win = LocalWindow(0.0, 30.0, 1.0)
    F = list(random_family(W.catalog("constant", 20_000), 1, 9))[0]
    monkeypatch.setattr(embedding, "default_sigma_grid", lambda cap: [0.5 + 2.0**-20, 0.75, 1.0])
    norm = lambda: local_norm(F, 0.0, win)
    got, want = norm(), _with_direct_sums(monkeypatch, norm)
    assert got.value == pytest.approx(want.value, rel=1e-12)
