"""Output checks for the benchmark's jobs, run after the timing stops.

Every oracle here is written from the definitions, without importing
dirichletlab, so a later change to the code it checks cannot also change the
expected answer: exact integer divisor sums, trial-division von Mangoldt
values, an own prime sieve, the harmonic-number expansion, mpmath for the
zeta abscissas, and a direct re-evaluation of the embedding quadrature.

    python3 perfbench/oracles.py RUN_DIR

reads RUN_DIR/checks.json (written by run.py: the seed, the jobs and the
batch directories) and prints one JSON object mapping each batch and job to
null (passed) or the reason it failed.  Expected values that depend only on
a job's parameters are computed once and reused for every batch.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys

import numpy as np

EULER_GAMMA = 0.57721566490153286061


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(math.isfinite(got) and abs(got - want) <= rel * abs(want),
             f"{what}: got {got!r}, expected {want!r} (rel tol {rel:g})")


def _load_json(d: str, name: str) -> dict:
    with open(os.path.join(d, name), encoding="utf-8") as fh:
        return json.load(fh)


def _load_csv(d: str, name: str, header: str, ncols: int) -> np.ndarray:
    path = os.path.join(d, name)
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{name}: header {first!r} != {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == ncols, f"{name}: {data.shape[1]} columns, expected {ncols}")
    return data


# --- independent arithmetic ------------------------------------------------


def divisor_summatory(x: int) -> int:
    """D(x) = sum_{n<=x} d(n), exactly, by the hyperbola method."""
    r = math.isqrt(x)
    return 2 * sum(x // i for i in range(1, r + 1)) - r * r


def prime_sieve(limit: int) -> np.ndarray:
    """Primes <= limit by the sieve of Eratosthenes on a boolean array."""
    is_p = np.ones(limit + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def chebyshev_psi(xs, limit: int) -> list:
    """psi(x) = sum of log p over prime powers p^k <= x, fsum-exact per x."""
    primes = prime_sieve(limit)
    powers, logs = [], []
    for p in primes.tolist():
        lp, q = math.log(p), p
        while q <= limit:
            powers.append(q)
            logs.append(lp)
            q *= p
    order = np.argsort(np.asarray(powers), kind="stable")
    pw = np.asarray(powers)[order]
    lg = np.asarray(logs)[order]
    return [math.fsum(lg[: int(np.searchsorted(pw, x, side="right"))].tolist()) for x in xs]


def mangoldt_by_trial_division(n: int) -> float:
    if n < 2:
        return 0.0
    p = next((q for q in range(2, math.isqrt(n) + 1) if n % q == 0), n)
    while n % p == 0:
        n //= p
    return math.log(p) if n == 1 else 0.0


def harmonic_number(n: int) -> float:
    """H_n from its asymptotic expansion; the dropped term is below 1/(252 n^6)."""
    n2 = float(n) * n
    return (math.log(n) + EULER_GAMMA + 0.5 / n - 1.0 / (12.0 * n2)
            + 1.0 / (120.0 * n2 * n2))


def _weight(name: str, wparam, n: int) -> np.ndarray:
    """Catalog weights w_0..w_n (w_0 = 0) from their definitions."""
    if name == "constant":
        w = np.ones(n + 1)
    elif name == "divisor":
        w = np.zeros(n + 1)
        for i in range(1, n + 1):
            w[i::i] += 1.0
    elif name == "log_power":
        w = (1.0 + np.log(np.maximum(np.arange(n + 1, dtype=np.float64), 1.0))) ** wparam
    else:
        raise CheckFailed(f"no oracle weight for {name!r}")
    w[0] = 0.0
    return w


# --- embedding quadrature, re-evaluated directly ----------------------------


def _t_rule():
    # window (0, 1): one unit panel of 32 Gauss-Legendre nodes
    x, w = np.polynomial.legendre.leggauss(32)
    return 0.5 + 0.5 * x, 0.5 * w


def _local_values(coeffs: np.ndarray, n: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """sum_t wt |G_m(sigma + i t)|^2 for each member row m and each sigma.

    coeffs has one row per member over the indices n; the result has shape
    (members, len(sig)).
    """
    ts, wt = _t_rule()
    logn = np.log(n.astype(np.float64))
    acc = np.zeros((coeffs.shape[0] * sig.size, ts.size), dtype=np.complex128)
    step = 4096
    for lo in range(0, n.size, step):
        sl = slice(lo, lo + step)
        damp = np.exp(-np.outer(sig, logn[sl]))  # (sigma, n)
        amp = (coeffs[:, None, sl] * damp[None, :, :]).reshape(-1, damp.shape[1])
        acc += amp @ np.exp(-1j * np.outer(logn[sl], ts))
    vals = (acc.real**2 + acc.imag**2) @ wt
    return vals.reshape(coeffs.shape[0], sig.size)


def embedding_ratios(coeffs: np.ndarray, n: np.ndarray, w: np.ndarray, alpha: float) -> list:
    """local / ||F||_w^2 for each member row, on the window (0, 1), cap 1."""
    norms = [math.fsum(((c.real**2 + c.imag**2) / w).tolist()) for c in coeffs]
    if alpha == 0.0:
        # sup over sigma = 1/2 + 2^-j (j = 1..20) of the t-integral
        sig = np.array([0.5 + 2.0**-j for j in range(1, 21)])
        local = _local_values(coeffs, n, sig).max(axis=1)
    else:
        from scipy.special import roots_jacobi

        e = (-alpha - 1.0) if alpha < 0 else (1.0 - alpha)
        x, wj = roots_jacobi(64, 0.0, e)
        sig = 0.5 + 0.25 * (x + 1.0)
        ws = wj * 0.25 ** (e + 1.0)
        G = coeffs if alpha < 0 else -coeffs * np.log(n.astype(np.float64))
        local = _local_values(G, n, sig) @ ws
    return [float(v) / nm for v, nm in zip(local, norms)]


# --- per-command checks ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def exact_partial_sums(weight: str, xs: tuple, limit: int) -> list:
    if weight == "divisor":
        return [float(divisor_summatory(x)) for x in xs]
    return chebyshev_psi(xs, limit)


def check_tauberian(d: str, p: dict, rng: random.Random) -> None:
    blob = _load_json(d, p["json"])
    _require(blob["weight"]["name"] == p["weight"] and blob["weight"]["limit"] == p["N"],
             f"report is for {blob['weight']}, not {p['weight']} at N={p['N']}")
    beta = blob["beta_hat"]
    _require(abs(beta - p["exponent"]) <= 0.25,
             f"|beta_hat - {p['exponent']}| = {abs(beta - p['exponent']):.3f} > 0.25")
    rows = _load_csv(d, p["csv"], "x,predicted,measured,ratio", 4)
    _require(len(rows) == 9, f"{len(rows)} comparison rows, expected 9")
    for x, pred, meas, ratio in rows:
        _require(0.9 <= ratio <= 1.1, f"compare ratio {ratio} at x={x} outside [0.9, 1.1]")
        _close(ratio, meas / pred, 1e-12, f"ratio at x={x}")
    xs = tuple(int(math.floor(x)) for x in rows[:, 0])
    for x, meas, want in zip(xs, rows[:, 2], exact_partial_sums(p["weight"], xs, p["N"])):
        _close(float(meas), want, 1e-12, f"S({x})")


@functools.lru_cache(maxsize=None)
def family_ratios(weight: str, wparam, alpha: float, kind: str, size, seed, N: int) -> tuple:
    """local / norm^2 for every member of the family the embed command builds."""
    w = _weight(weight, wparam, N)
    if kind == "random":
        g = np.random.default_rng(seed)
        root = np.sqrt(w[1:])
        members = []
        for _ in range(size):
            z = g.standard_normal(N) + 1j * g.standard_normal(N)
            members.append(root * z / math.sqrt(2.0))
        return tuple(embedding_ratios(np.array(members), np.arange(1, N + 1), w[1:], alpha))
    ratios = []
    for k in range(int(math.floor(math.log(N)))):  # blocks (e^k, e^(k+1)] below N
        n = np.arange(math.floor(math.exp(k)) + 1, math.floor(math.exp(k + 1)) + 1)
        ratios += embedding_ratios(w[n][None, :].astype(np.complex128), n, w[n], alpha)
    return tuple(ratios)


def check_embed(d: str, p: dict, rng: random.Random) -> None:
    blob = _load_json(d, p["json"])
    _require(len(blob["rows"]) == 1 and blob["rows"][0]["N"] == p["N"], "unexpected rows")
    row = blob["rows"][0]
    est = row["constant_estimate"]
    _require(math.isfinite(est) and est > 0.0, f"constant_estimate {est!r}")
    _require(row["quad_error_max"] <= 1e-9 * est,
             f"quad_error_max {row['quad_error_max']:.3g} not small against {est:.6g}")
    csv = _load_csv(d, p["csv"], "N,alpha,constant_estimate", 3)
    _require(csv.shape[0] == 1 and csv[0, 0] == p["N"] and csv[0, 2] == est,
             "CSV row disagrees with the JSON report")
    ratios = family_ratios(p["weight"], p["wparam"], p["alpha"], p["kind"], p["size"],
                           p["seed"], p["N"])
    _require(row["family_size"] == len(ratios), f"family_size {row['family_size']}")
    _close(est, max(ratios), 1e-9, "embedding constant (max over the family)")


def check_weights_dump(d: str, p: dict, rng: random.Random) -> None:
    N = p["N"]
    ws = _load_csv(d, p["out"], "n,w_n", 2)
    _require(ws.shape[0] == N, f"{ws.shape[0]} weight rows, expected {N}")
    _require(np.array_equal(ws[:, 0], np.arange(1, N + 1)), "weight rows are not n = 1..N")
    for n in rng.sample(range(1, N + 1), 64) + [1, 2, N]:
        want = mangoldt_by_trial_division(n)
        got = float(ws[n - 1, 1])
        _require(got == want if want == 0.0 else abs(got - want) <= 1e-15 * want,
                 f"w_{n} = {got!r}, Lambda({n}) = {want!r}")
    S = _load_csv(d, p["sums"], "n,S_n", 2)
    _require(S.shape[0] == N, f"{S.shape[0]} partial-sum rows, expected {N}")
    _require(np.array_equal(S[:, 0], np.arange(1, N + 1)), "sum rows are not n = 1..N")
    col = ws[:, 1].tolist()
    for n in rng.sample(range(1, N + 1), 4) + [N]:
        _close(float(S[n - 1, 1]), math.fsum(col[:n]), 1e-12, f"S_{n}")


def check_fit(d: str, p: dict, rng: random.Random) -> None:
    blob = _load_json(d, p["json"])
    wt = blob["weight"]
    _require(wt["name"] == "dgamma" and wt["limit"] == p["N"]
             and wt["params"].get("gamma") == p["gamma"], f"report is for {wt}")
    _require(abs(blob["alpha_hat"] - p["alpha"]) <= 0.1,
             f"alpha_hat {blob['alpha_hat']:.4f} not within 0.1 of {p['alpha']}")


def check_sampling(d: str, p: dict, rng: random.Random) -> None:
    N = p["N"]
    blob = _load_json(d, p["json"])
    _require(blob["atom_count"] == N, f"atom_count {blob['atom_count']} != {N}")
    atoms = _load_csv(d, p["atoms"], "position,mass", 2)
    _require(atoms.shape[0] == N, f"{atoms.shape[0]} atom rows, expected {N}")
    _close(math.fsum(atoms[:, 1].tolist()), harmonic_number(N), 1e-12, "total mass vs H_N")
    for n in rng.sample(range(1, N + 1), 64) + [1, N]:
        pos, mass = atoms[n - 1]
        _require(abs(pos - math.log(n)) <= 1e-15 * max(1.0, math.log(n)),
                 f"atom {n} at {pos!r}, expected log {n}")
        _close(float(mass), 1.0 / n, 1e-15, f"mass of atom {n}")


def check_zeta(d: str, p: dict, rng: random.Random) -> None:
    import mpmath

    blob = _load_json(d, p["json"])
    for key in ("rho_residual", "rho1_residual"):
        _require(blob[key] <= 1e-9, f"{key} = {blob[key]!r} > 1e-9")
    mpmath.mp.dps = 30
    r_p = abs(mpmath.primezeta(blob["rho"]) - 1)
    r_z = abs(mpmath.zeta(blob["rho1"]) - 2)
    _require(r_p <= 1e-9, f"mpmath: |P(rho) - 1| = {float(r_p):.3g}")
    _require(r_z <= 1e-9, f"mpmath: |zeta(rho1) - 2| = {float(r_z):.3g}")
    _require(blob["cross_check_gap"] <= p["gap_tol"],
             f"cross_check_gap {blob['cross_check_gap']:.3g} > {p['gap_tol']:g}")


CHECKS = {
    "tauberian": check_tauberian,
    "embed": check_embed,
    "weights_dump": check_weights_dump,
    "fit": check_fit,
    "sampling": check_sampling,
    "zeta": check_zeta,
}


def check_run(run_dir: str) -> dict:
    """Check every job of every batch; batch -> job name -> None or the reason."""
    with open(os.path.join(run_dir, "checks.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {}
    for batch in spec["batches"]:
        d = os.path.join(run_dir, batch)
        out[batch] = {}
        for job in spec["jobs"]:
            rng = random.Random(f"{spec['seed']}:{job['name']}")
            try:
                CHECKS[job["check"]](d, job["params"], rng)
                out[batch][job["name"]] = None
            except CheckFailed as e:
                out[batch][job["name"]] = str(e)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                out[batch][job["name"]] = f"unreadable artifact: {type(e).__name__}: {e}"
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: oracles.py RUN_DIR")
    print(json.dumps(check_run(sys.argv[1])))
