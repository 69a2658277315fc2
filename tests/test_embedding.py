import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from dirichletlab import embedding, weights as W
from dirichletlab.embedding import (
    LocalWindow,
    block_family,
    block_test_function,
    dalpha_local_norm,
    default_sigma_grid,
    duality_sum,
    embedding_constant,
    local_sup_l2,
    make_bump,
    random_family,
)
from dirichletlab.errors import DomainError, RangeError, TruncationError
from dirichletlab.hspace import monomial, poly_from_coeffs
from dirichletlab.weights import partial_sums

WIN = LocalWindow(0.0, 1.0, 1.0)


def test_window_validation():
    with pytest.raises(RangeError):
        LocalWindow(1.0, 0.0, 1.0)
    with pytest.raises(RangeError):
        LocalWindow(0.0, 1.0, 0.4)  # cap must exceed 1/2
    with pytest.raises(RangeError):
        LocalWindow(0.0, math.inf, 1.0)


def test_sup_l2_constant_is_interval_length():
    v = local_sup_l2(monomial(1), WIN)
    assert v.value == pytest.approx(1.0, abs=1e-12)
    wide = local_sup_l2(monomial(1), LocalWindow(-1.0, 2.5, 1.0))
    assert wide.value == pytest.approx(3.5, abs=1e-12)


def test_sup_l2_two_power_attained_at_grid_minimum():
    # |2^-s|^2 = 4^-sigma; the grid realizes the sup at its smallest sigma
    v = local_sup_l2(monomial(2), WIN)
    s_min = min(default_sigma_grid(WIN.sigma_cap))
    assert v.sigma_at_max == pytest.approx(s_min)
    assert v.value == pytest.approx(WIN.width * 4.0 ** (-s_min), rel=1e-12)


def test_dalpha_bergman_constant():
    v = dalpha_local_norm(monomial(1), -1.0, WIN)
    assert v.value == pytest.approx(WIN.width * (WIN.sigma_cap - 0.5), rel=1e-12)
    cap2 = LocalWindow(0.0, 2.0, 1.5)
    v2 = dalpha_local_norm(monomial(1), -1.0, cap2)
    assert v2.value == pytest.approx(2.0 * 1.0, rel=1e-12)


def test_dalpha_dirichlet_kills_constants():
    v = dalpha_local_norm(monomial(1), 1.0, WIN)
    assert v.value == 0.0


def test_dalpha_bergman_two_power_closed_form():
    # integral over (1/2, 1] of 4^-sigma dsigma, times |I|
    expect = WIN.width * (4.0 ** -0.5 - 4.0 ** -1.0) / math.log(4.0)
    v = dalpha_local_norm(monomial(2), -1.0, WIN)
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
    v = dalpha_local_norm(monomial(n), alpha, WIN)
    assert v.value == pytest.approx(expect, rel=1e-10)


def test_alpha_above_one_unsupported():
    with pytest.raises(DomainError):
        dalpha_local_norm(monomial(2), 2.0, WIN)  # the sigma integral diverges
    with pytest.raises(DomainError):
        dalpha_local_norm(monomial(2), math.nan, WIN)
    with pytest.raises(DomainError):
        dalpha_local_norm(monomial(2), 0.0, WIN)  # sup-L2 lives elsewhere


def _random_poly(seed, n):
    rng = np.random.default_rng(seed)
    return poly_from_coeffs(rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("alpha", [-1.0, -0.3, 0.5, 1.0, 1.5])
def test_local_norm_monotone_in_interval(alpha):
    F = _random_poly(31, 40)
    inner = LocalWindow(0.1, 0.9, 1.0)
    outer = LocalWindow(0.0, 1.4, 1.0)
    vi = dalpha_local_norm(F, alpha, inner).value
    vo = dalpha_local_norm(F, alpha, outer).value
    assert vi <= vo * (1.0 + 1e-12)


def test_sup_l2_monotone_in_interval():
    F = _random_poly(32, 40)
    vi = local_sup_l2(F, LocalWindow(0.2, 0.8, 1.0)).value
    vo = local_sup_l2(F, LocalWindow(0.0, 1.0, 1.0)).value
    assert vi <= vo * (1.0 + 1e-12)


def test_scaling_invariance_of_ratios():
    w = W.catalog("constant", 40)
    F = _random_poly(33, 40)
    G = poly_from_coeffs(F.coeffs[1:] * (2.5 - 1.5j))
    e1 = embedding_constant(w, -1.0, WIN, [F])
    e2 = embedding_constant(w, -1.0, WIN, [G])
    assert e1.value == pytest.approx(e2.value, rel=1e-12)


def test_quadrature_doubling_stability():
    F = _random_poly(34, 100)
    for alpha in (-1.0, 0.5):
        v1 = dalpha_local_norm(F, alpha, WIN, t_nodes_per_unit=32, sigma_nodes=64).value
        v2 = dalpha_local_norm(F, alpha, WIN, t_nodes_per_unit=64, sigma_nodes=128).value
        assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1))


def test_bump_requires_interior_support():
    with pytest.raises(RangeError):
        make_bump(WIN, center=0.5, halfwidth=0.6)


def test_bump_fourier_against_direct_quadrature():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    for xi in (0.0, 1.0, 5.0, 14.0):
        val, _ = integrate.quad(
            lambda u: math.exp(-1.0 / (1.0 - u * u)) * math.cos(b.halfwidth * xi * u),
            -1.0, 1.0, epsabs=1e-13,
        )
        expect = b.halfwidth / math.sqrt(2.0 * math.pi) * abs(val)
        assert b.fourier_abs(xi) == pytest.approx(expect, rel=1e-9, abs=1e-13)


def test_bump_fourier_table_bound():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    with pytest.raises(DomainError):
        b.fourier_abs(b.y_max / b.halfwidth + 1.0)


def test_bump_l2_norm():
    b = make_bump(WIN, center=0.5, halfwidth=0.35)
    val, _ = integrate.quad(lambda u: math.exp(-2.0 / (1.0 - u * u)), -1.0, 1.0)
    assert b.l2_norm_sq() == pytest.approx(0.35 * val, rel=1e-12)


def test_duality_sum_zero_weight():
    w = W.catalog("kadec", 4000, blocks=8)
    z = W.WeightSequence(name="zero", params={}, limit=100, w=np.zeros(101))
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
    fam = block_family(w)
    assert len(fam) == 10


def test_block_scaling_chain_for_divisor():
    # dalpha(g_k, -1) * e^k * 2k / S_k^2 hovers near 1/2 across k = 4..9
    w = W.catalog("divisor", 30000)
    S = partial_sums(w)
    vals = []
    for k in range(4, 10):
        g = block_test_function(w, k)
        q = dalpha_local_norm(g, -1.0, WIN).value
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
    fam = random_family(w, 3, 5) if kind == "random" else block_family(w)[-3:]
    for F in fam:
        for norm in (
            lambda: local_sup_l2(F, WIN),
            lambda: dalpha_local_norm(F, 0.5, WIN),
            lambda: dalpha_local_norm(F, -0.5, WIN),
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
    F = random_family(W.catalog("constant", 20_000), 1, 9)[0]
    norm = lambda: local_sup_l2(F, win, sigma_grid=[0.5 + 2.0**-20, 0.75, 1.0])
    got, want = norm(), _with_direct_sums(monkeypatch, norm)
    assert got.value == pytest.approx(want.value, rel=1e-12)
