"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Each test prints one pass/fail line under pytest -v.  Criterion 8 checks
the separation at the shifted exponent through the growth exponent of the
block ratios, (log N)^(1/2), not through a fixed blow-up factor: that law
gives only about sqrt(2) across N = 1e3..1e5, and a factor of 2 would need
N near 4e9, past the dense-array budget.
"""

import filecmp
import math
from time import perf_counter

import numpy as np
import pytest

from dirichletlab import weights as W
from dirichletlab.accum import compensated_sum
from dirichletlab.arithmetic import prime_segments
from dirichletlab.cli import main as cli_main
from dirichletlab.embedding import LocalWindow, block_family, embedding_constant
from dirichletlab.hspace import evaluate, hw_inner, hw_kernel, poly_from_coeffs
from dirichletlab.sampling import (
    beurling_lower_density,
    continuity_at_infinity,
    kadec_atoms,
    measure_from_weights,
)
from dirichletlab.tauberian import (
    fit_singularity,
    mellin_profile,
    predict_and_compare,
)
from dirichletlab.zeta import (
    prime_zeta,
    prime_zeta_unit_abscissa,
    zeta,
    zeta_equals_two_abscissa,
)

WIN = LocalWindow(0.0, 1.0, 1.0)


def prime_power_base(n):
    """p if n = p^k for a prime p and k >= 1, else None, by trial division."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def test_criterion_01_summatory_mangoldt_tracks_x():
    t0 = perf_counter()
    w7 = W.catalog("mangoldt", 10**7)
    S7 = float(W.sums_at(w7, 10**7))
    elapsed = perf_counter() - t0
    assert abs(S7 / 1e7 - 1.0) <= 0.01  # measured 1.46e-4
    w6 = W.catalog("mangoldt", 10**6)
    assert abs(float(W.sums_at(w6, 10**6)) / 1e6 - 1.0) <= 0.02  # measured 4.13e-4
    # independent oracle: factor each n <= 1e4, log p on prime powers
    direct = math.fsum(
        math.log(p)
        for n in range(2, 10**4 + 1)
        for p in [prime_power_base(n)]
        if p is not None
    )
    assert abs(float(W.sums_at(w7, 10**4)) - direct) <= 1e-8
    assert elapsed <= 60.0, f"10^7 run took {elapsed:.1f} s"


def test_criterion_02_divisor_weight_exponent():
    w = W.catalog("divisor", 10**7)
    fit = W.fit_alpha(w, np.geomspace(1e4, 1e7, 25))
    assert -1.15 <= fit.alpha_hat <= -0.85  # measured -0.985


def test_criterion_03_reciprocal_divisor_growth():
    w = W.catalog("inv_divisor_pow", 10**7, alpha=1.0)
    fit = W.fit_alpha(w, np.geomspace(1e4, 1e7, 25))
    assert 0.35 <= fit.alpha_hat <= 0.65  # measured 0.545
    S = W.partial_sums(w)
    for x in np.geomspace(1e6, 5e6, 6):
        x = int(x)
        ratio = S[2 * x] / S[x]
        scale = math.sqrt(math.log(x) / math.log(2 * x))
        assert 1.9 * scale <= ratio <= 2.05 * scale  # measured ratio/scale ~1.998


def test_criterion_04_ordered_factorization_coefficients():
    # F is the coefficient recursion of 1/(2 - zeta): F_1 = 1 and
    # F_n = sum over d | n, d > 1 of F_(n/d), pushed forward from each q
    N = 10**4
    F = np.zeros(N + 1)
    F[1] = 1.0
    for q in range(1, N // 2 + 1):
        if F[q]:
            F[2 * q :: q][: N // q - 1] += F[q]
    # the shipped weights, integer-exact for all n <= 10^4
    w = W.catalog("mccarthy", N).w
    assert np.array_equal(w[1:], F[1:])
    assert w[10] == 3.0  # 10, 2*5, 5*2
    inv = W.catalog("inv_ordered_factorization", N).w
    assert np.array_equal(inv[1:], 1.0 / F[1:])


def test_criterion_05_reproducing_identity_hundred_cases():
    t0 = perf_counter()
    rng = np.random.default_rng(20260817)
    names = ["constant", "divisor", "log_power", "inv_divisor_pow"]
    for trial in range(100):
        name = names[trial % len(names)]
        params = {"alpha": 0.7} if name in ("log_power", "inv_divisor_pow") else {}
        w = W.catalog(name, 200, **params)
        coeffs = (rng.standard_normal(200) + 1j * rng.standard_normal(200)) * np.sqrt(
            w.w[1:]
        )
        F = poly_from_coeffs(coeffs)
        xi = complex(1.6 + rng.random(), rng.standard_normal())
        lhs = hw_inner(F, hw_kernel(w, xi), w)
        assert lhs == pytest.approx(evaluate(F, xi), rel=1e-12, abs=1e-12)
    assert perf_counter() - t0 <= 5.0


def test_criterion_06_near_boundary_comparability():
    sigmas = [0.5 + 1e-2, 0.5 + 1e-3, 0.5 + 1e-4]

    def full(w, s):
        v = mellin_profile(w, [2.0 * s])[0]  # the sum of w_n n^(-2s)
        return v.value + v.tail_bound

    wd = W.catalog("divisor", 10**6)
    q = [full(wd, s) * (2 * s - 1) ** 2 for s in sigmas]
    assert max(q) / min(q) <= 2.0  # measured 1.024
    wl = W.catalog("mangoldt_over_log", 10**6)
    q = [full(wl, s) / math.log(1.0 / (2 * s - 1)) for s in sigmas]
    assert max(q) / min(q) <= 2.0  # measured 1.046


def test_criterion_07_abscissas_and_cross_check():
    from scipy.special import exp1

    rho = prime_zeta_unit_abscissa()
    rho1 = zeta_equals_two_abscissa()
    assert abs(prime_zeta(rho).real - 1.0) <= 1e-9
    assert abs(zeta(rho1).real - 2.0) <= 1e-9
    # two-term li tail closes the direct prime sum onto the Mobius-log series
    s, L = 1.5, math.log(10**7)
    primes = np.flatnonzero(np.concatenate(list(prime_segments(10**7))))
    direct = compensated_sum(primes.astype(np.float64) ** -s)
    tail = exp1((s - 1.0) * L) - 0.5 * exp1((s - 0.5) * L)
    assert abs(direct + tail - prime_zeta(s).real) <= 1e-8  # measured 2.6e-9


def test_criterion_08_embedding_growth_separation():
    # The block g_k on (e^k, e^(k+1)] has norm^2 ~ e^k k^-alpha and local
    # alpha'-norm ~ e^k k^(alpha'-2 alpha), so its ratio is r_k ~ k^(alpha'-alpha):
    # flat at the expected exponent, growing like (log N)^(1/2) at the shift.
    # N = 1e3..1e5 spans the top blocks k = 5..10, a growth of ~sqrt(10.5/5.5),
    # so the shifted leg checks the fitted exponent of r_k over those blocks
    # against the predicted 1/2, halfway to "no blow-up" (0) as the tolerance.
    cases = [
        ("constant", {}),
        ("divisor", {}),
        ("inv_divisor_pow", {"alpha": 1.0}),
        ("mangoldt_over_log", {}),
    ]

    def estimates(name, params, alpha_shift):
        out = []
        for n in (10**3, 10**4, 10**5):
            w = W.catalog(name, n, **params)
            alpha = w.expected_alpha + alpha_shift
            out.append(embedding_constant(w, alpha, WIN, block_family(w)))
        return out

    def exponent(ests):
        # blocks added across the N range: the top block at 1e3 up to the top at 1e5
        k = np.arange(ests[0].family_size - 1, ests[-1].family_size)
        r = np.asarray(ests[-1].ratios)[k]
        return float(np.polyfit(np.log(k + 0.5), np.log(r), 1)[0])

    expected = {}
    for name, params in cases:
        expected[name] = estimates(name, params, 0.0)
        g = expected[name][-1].value / expected[name][0].value
        assert g <= 2.0, f"{name}: expected-exponent growth {g:.4f} > 2"

    problems = []
    for name, params in cases:
        p_exp = exponent(expected[name])
        p_shift = exponent(estimates(name, params, 0.5))
        if abs((p_shift - p_exp) - 0.5) > 0.25:  # measured 0.487..0.515
            problems.append(
                f"{name}: p_shift {p_shift:.4f} - p_exp {p_exp:.4f} = "
                f"{p_shift - p_exp:.4f}, not within 1/4 of 1/2"
            )
    assert not problems, (
        "shifted-exponent growth law (log N)^(1/2) not seen across N = 1e3..1e5: "
        + "; ".join(problems)
    )


def test_criterion_09_kadec_construction_and_continuity():
    m = kadec_atoms(1000)
    ks = np.arange(1, 1001, dtype=np.float64)
    assert np.all(np.abs(m.positions - ks) <= 0.2)  # |log n_k - k| <= 1/5
    dens = beurling_lower_density(m.positions, [100.0], window=(0.0, 1000.0))
    assert dens.extrapolated >= 0.98  # measured 0.9900
    assert not continuity_at_infinity(m, 0.0, 0.5).passed  # unit atoms block
    mc = measure_from_weights(W.catalog("constant", 10**5))
    assert continuity_at_infinity(mc, 0.0, 0.1).passed


@pytest.mark.parametrize("name", ["constant", "divisor", "mangoldt"])
def test_criterion_10_tauberian_round_trip(name):
    w = W.catalog(name, 10**7)
    prof = mellin_profile(w, w.sigma0 + np.geomspace(0.02, 1.5, 48))
    fit = fit_singularity(prof, w.sigma0)
    afit = W.fit_alpha(w)
    diff = abs(fit.beta_hat - afit.alpha_hat)
    assert diff <= 0.25, f"{name}: |beta_hat - alpha_hat| = {diff:.3f}"  # <= 0.111
    rows = predict_and_compare(fit, w, np.geomspace(1e6, 1e7, 9))
    assert all(0.9 <= r.ratio <= 1.1 for r in rows)


def test_criterion_11_cli_outputs_byte_identical(tmp_path):
    runs = [
        lambda d: ("weights", "--name", "divisor", "--N", "500",
                   "--out", f"{d}/w.csv", "--sums-out", f"{d}/ws.csv"),
        lambda d: ("sums", "--name", "constant", "--N", "10000",
                   "--points", "12", "--out", f"{d}/sums.csv"),
        lambda d: ("fit", "--name", "constant", "--N", "100000",
                   "--out", f"{d}/fit.json"),
        lambda d: ("zeta", "--cross-check-N", "10000", "--out", f"{d}/z.json"),
        lambda d: ("kernel", "--points", "16", "--out", f"{d}/k.csv"),
        lambda d: ("embed", "--name", "constant", "--alpha", "0",
                   "--N-list", "100,300", "--family", "random", "--size", "16",
                   "--seed", "20260817", "--out-csv", f"{d}/e.csv",
                   "--out-json", f"{d}/e.json"),
        lambda d: ("sampling", "--name", "kadec", "--blocks", "30",
                   "--lambda-r", "1", "--out", f"{d}/s.json"),
        lambda d: ("tauberian", "--name", "constant", "--N", "100000",
                   "--out", f"{d}/t.json", "--compare-out", f"{d}/t.csv"),
        lambda d: ("curves", "--csv", f"{d}/c.csv", "--svg", f"{d}/c.svg"),
    ]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    for argv_of in runs:
        assert cli_main(list(argv_of(d1))) == 0
        assert cli_main(list(argv_of(d2))) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert len(names) == 13  # every command reported in
    for fname in names:
        assert filecmp.cmp(d1 / fname, d2 / fname, shallow=False), f"{fname} differs"
