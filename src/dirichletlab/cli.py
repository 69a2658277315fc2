"""Command-line experiment runner.

Commands: weights | sums | fit | zeta | kernel | embed | sampling |
tauberian | curves.  Options may come from flags or from a JSON file via
--config (flags win).  Exit codes: 0 ok, 1 compute/runtime failure,
2 usage/config error.  All outputs go through `reporting`, so a repeated
run with the same options and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import weights as W
from . import reporting
from .arithmetic import build_sieve
from .errors import DirichletLabError


class UsageError(Exception):
    pass


def _config_section(path, command):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config {path}: {e}")
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    section = raw.get(command, raw)
    if not isinstance(section, dict):
        raise UsageError(f"config section {command!r} must be an object")
    # flag spelling and config spelling may differ: --grid-points / "grid_points"
    return {k.replace("-", "_"): v for k, v in section.items()}


def _opt(args, cfg, key, default=None, cast=None):
    # flag > config file > hard default
    v = getattr(args, key.replace("-", "_"), None)
    if v is None:
        v = cfg.get(key, default)
    if v is None:
        return None
    return cast(v) if cast else v


def _weight_params(args, cfg):
    params = {}
    for key in ("gamma", "alpha_param", "blocks"):
        v = _opt(args, cfg, key)
        if v is not None:
            name = "alpha" if key == "alpha_param" else key
            params[name] = int(v) if key == "blocks" else float(v)
    return params


def _load_weight(args, cfg, default_n=None):
    name = _opt(args, cfg, "name")
    if name is None:
        raise UsageError("a weight --name is required")
    if name not in W.CATALOG_NAMES:
        raise UsageError(f"unknown weight family {name!r}")
    n = _opt(args, cfg, "N", default_n, cast=lambda v: int(float(v)))
    if n is None:
        raise UsageError("--N is required")
    if n < 2:
        raise UsageError(f"--N must be >= 2, got {n}")
    params = _weight_params(args, cfg)
    table = build_sieve(n) if name in W.NEEDS_TABLE else None
    return W.catalog(name, n, table=table, **params), table


def _weight_blob(w):
    return {"name": w.name, "params": w.params, "limit": w.limit}


# --- commands ----------------------------------------------------------------


def cmd_weights(args, cfg):
    w, _ = _load_weight(args, cfg)
    out = _opt(args, cfg, "out", "weights.csv")
    rows = ((n, float(w.w[n])) for n in range(1, w.limit + 1))
    reporting.write_csv(out, ["n", "w_n"], rows)
    sums_out = _opt(args, cfg, "sums_out")
    if sums_out is None:
        stem, dot, ext = out.rpartition(".")
        sums_out = f"{stem}_sums.{ext}" if dot else f"{out}_sums"
    S = W.partial_sums(w)
    reporting.write_csv(sums_out, ["n", "S_n"], ((n, float(S[n])) for n in range(1, w.limit + 1)))
    return 0


def cmd_sums(args, cfg):
    w, _ = _load_weight(args, cfg)
    pts = _opt(args, cfg, "points", 64, cast=int)
    if pts < 2:
        raise UsageError("need at least 2 grid points")
    lo = _opt(args, cfg, "lo", 10.0, cast=float)
    xs = np.unique(np.geomspace(max(2.0, lo), w.limit, pts).astype(np.int64))
    S = W.partial_sums(w)
    header = ["x", "S"]
    cols = [xs.astype(float), S[xs]]
    alpha = _opt(args, cfg, "ratio_alpha", w.expected_alpha, cast=float)
    if alpha is not None:
        header.append("ratio")
        cols.append(W.chebyshev_ratios(w, xs.astype(float), alpha))
    eta = _opt(args, cfg, "eta", cast=float)
    if eta is not None:
        header.append("block_sum")
        cols.append(W.block_sums(w, eta, xs.astype(float)))
    out = _opt(args, cfg, "out", "sums.csv")
    reporting.write_csv(out, header, zip(*cols))
    return 0


def cmd_fit(args, cfg):
    w, _ = _load_weight(args, cfg)
    pts = _opt(args, cfg, "grid_points", 25, cast=int)
    lo = _opt(args, cfg, "grid_lo", 1e3, cast=float)
    hi = _opt(args, cfg, "grid_hi", float(w.limit), cast=float)
    if pts < 3:
        raise UsageError(f"degenerate grid: {pts} points (need >= 3)")
    if not 2.0 <= lo < hi or hi > w.limit:
        raise UsageError(f"grid [{lo}, {hi}] must sit inside [2, {w.limit}]")
    if math.log10(hi / lo) < 2.0:
        raise UsageError("degenerate grid: span below two decades")
    grid = np.geomspace(lo, hi, pts)
    fit = W.fit_alpha(w, grid)
    ratios = W.chebyshev_ratios(w, grid, fit.alpha_hat)
    blob = {
        "weight": _weight_blob(w),
        "alpha_hat": fit.alpha_hat,
        "C_hat": fit.C_hat,
        "residual_rms": fit.residual_rms,
        "grid": list(map(float, fit.grid)),
        "ratios": [float(r) for r in ratios],
        "ratio_alpha": fit.alpha_hat,
    }
    reporting.write_json(_opt(args, cfg, "out", "fit.json"), blob)
    return 0


def cmd_zeta(args, cfg):
    from .zeta import (prime_zeta, prime_zeta_unit_abscissa, zeta,
                       zeta_equals_two_abscissa)

    what = _opt(args, cfg, "what", "abscissas")
    if what == "abscissas":
        rho = prime_zeta_unit_abscissa()
        rho1 = zeta_equals_two_abscissa()
        blob = {
            "rho": rho,
            "rho_residual": abs(prime_zeta(rho).real - 1.0),
            "rho1": rho1,
            "rho1_residual": abs(zeta(rho1).real - 2.0),
        }
        cross_n = _opt(args, cfg, "cross_check_N", cast=lambda v: int(float(v)))
        if cross_n is not None:
            from scipy.special import exp1

            from .accum import compensated_sum

            table = build_sieve(cross_n)
            s = _opt(args, cfg, "sigma", 1.5, cast=float)
            direct = compensated_sum(table.primes.astype(np.float64) ** (-s))
            # li-based tail: integral of x^-s dpi(x) with pi ~ li - li(sqrt)/2
            L = math.log(cross_n)
            tail = exp1((s - 1.0) * L) - 0.5 * exp1((s - 0.5) * L)
            blob["cross_check_sigma"] = s
            blob["cross_check_gap"] = abs(direct + tail - prime_zeta(s).real)
        reporting.write_json(_opt(args, cfg, "out", "abscissas.json"), blob)
        return 0
    if what == "grid":
        lo = _opt(args, cfg, "sigma_lo", 1.1, cast=float)
        hi = _opt(args, cfg, "sigma_hi", 3.0, cast=float)
        pts = _opt(args, cfg, "points", 40, cast=int)
        if not (1.0 < lo < hi) or pts < 2:
            raise UsageError("grid needs 1 < sigma_lo < sigma_hi and >= 2 points")
        sig = np.linspace(lo, hi, pts)
        rows = [(s, zeta(s).real, prime_zeta(s).real) for s in sig]
        reporting.write_csv(_opt(args, cfg, "out", "zeta.csv"),
                            ["sigma", "zeta", "prime_zeta"], rows)
        return 0
    raise UsageError(f"unknown zeta request {what!r} (abscissas|grid)")


def cmd_kernel(args, cfg):
    from .zeta import KernelSpec, kernel_eval

    family = _opt(args, cfg, "family", "dalpha")
    param = _opt(args, cfg, "param", -1.0, cast=float)
    anchor = complex(_opt(args, cfg, "anchor_re", 1.0, cast=float),
                     _opt(args, cfg, "anchor_im", 0.0, cast=float))
    try:
        spec = KernelSpec(family=family, param=param, anchor=anchor)
    except DirichletLabError as e:
        raise UsageError(str(e))
    lo = _opt(args, cfg, "sigma_lo", 0.55, cast=float)
    hi = _opt(args, cfg, "sigma_hi", 1.5, cast=float)
    pts = _opt(args, cfg, "points", 40, cast=int)
    t = _opt(args, cfg, "t", 0.0, cast=float)
    if not lo < hi or pts < 2:
        raise UsageError("kernel grid needs sigma_lo < sigma_hi and >= 2 points")
    rows = []
    for s in np.linspace(lo, hi, pts):
        v = kernel_eval(spec, complex(s, t))
        rows.append((float(s), t, v.real, v.imag))
    reporting.write_csv(_opt(args, cfg, "out", "kernel.csv"),
                        ["sigma", "t", "re", "im"], rows)
    return 0


def cmd_embed(args, cfg):
    from .embedding import LocalWindow, block_family, embedding_constant, random_family

    name = _opt(args, cfg, "name")
    if name is None or name not in W.CATALOG_NAMES:
        raise UsageError(f"unknown or missing weight family {name!r}")
    alpha = _opt(args, cfg, "alpha", cast=float)
    if alpha is None:
        raise UsageError("--alpha is required")
    n_list = _opt(args, cfg, "N_list", "1000,10000")
    if isinstance(n_list, str):
        n_list = [int(float(v)) for v in n_list.split(",") if v.strip()]
    else:
        n_list = [int(v) for v in n_list]
    if not n_list:
        raise UsageError("--N-list is empty")
    kind = _opt(args, cfg, "family", "blocks")
    if kind not in ("blocks", "random"):
        raise UsageError(f"family must be blocks|random, got {kind!r}")
    size = _opt(args, cfg, "size", 64, cast=int)
    seed = _opt(args, cfg, "seed", 0, cast=int)
    win = LocalWindow(_opt(args, cfg, "a", 0.0, cast=float),
                      _opt(args, cfg, "b", 1.0, cast=float),
                      _opt(args, cfg, "sigma_cap", 1.0, cast=float))
    params = _weight_params(args, cfg)
    table = build_sieve(max(n_list)) if name in W.NEEDS_TABLE else None
    rows = []
    for n in sorted(n_list):
        w = W.catalog(name, n, table=table, **params)
        fam = block_family(w) if kind == "blocks" else random_family(w, size, seed)
        est = embedding_constant(w, alpha, win, fam)
        rows.append({"N": n, "constant_estimate": est.value,
                     "quad_error_max": est.quad_error_max,
                     "family_size": est.family_size})
    reporting.write_csv(_opt(args, cfg, "out_csv", "embed.csv"),
                        ["N", "alpha", "constant_estimate"],
                        [(r["N"], alpha, r["constant_estimate"]) for r in rows])
    blob = {
        "weight": {"name": name, "params": params},
        "alpha": alpha,
        "window": {"a": win.a, "b": win.b, "sigma_cap": win.sigma_cap},
        "family": {"kind": kind, "size": size,
                   "seed": seed if kind == "random" else None},
        "rows": rows,
    }
    reporting.write_json(_opt(args, cfg, "out_json", "embed.json"), blob)
    return 0


def cmd_sampling(args, cfg):
    from . import sampling as S

    name = _opt(args, cfg, "name")
    if name == "kadec":
        # atom-level construction: block counts beyond log(limit) have no
        # dense weight array, but the measure itself is a few numbers
        blocks = _opt(args, cfg, "blocks", 50, cast=int)
        mu = S.kadec_atoms(blocks)
        blob_weight = {"name": "kadec", "params": {"blocks": blocks}, "limit": None}
    else:
        w, _ = _load_weight(args, cfg)
        symmetric = bool(_opt(args, cfg, "symmetric", False))
        mu = S.measure_from_weights(w, symmetric=symmetric)
        blob_weight = _weight_blob(w)
    beta = _opt(args, cfg, "beta", 0.0, cast=float)
    eps = _opt(args, cfg, "eps", 0.1, cast=float)
    car = S.carleson_check(mu, beta)
    r_list = _opt(args, cfg, "r_list", "")
    horizon = float(mu.domain_bound)
    if isinstance(r_list, str):
        rs = [float(v) for v in r_list.split(",") if v.strip()]
    else:
        rs = [float(v) for v in r_list]
    if not rs:
        rs = [max(1.0, (horizon - float(mu.domain_low)) / 5.0)]
    dens = S.beurling_lower_density(mu.positions, rs, window=(float(mu.domain_low), horizon))
    cont = S.continuity_at_infinity(mu, beta, eps)
    blob = {
        "weight": blob_weight,
        "atom_count": int(mu.positions.size),
        "horizon": horizon,
        "carleson": {"beta": beta, "c_hat": car.c_hat, "worst_xi": car.worst_xi},
        "density": {"window_lengths": list(dens.window_lengths),
                    "inf_counts": list(dens.inf_counts),
                    "extrapolated": dens.extrapolated},
        "continuity": {"eps": eps, "beta": beta, "passed": cont.passed,
                       "radius": cont.radius if math.isfinite(cont.radius) else None,
                       "block": cont.block,
                       "blocking_x": cont.blocking_x},
    }
    lam_r = _opt(args, cfg, "lambda_r", cast=float)
    if lam_r is not None:
        delta = _opt(args, cfg, "lambda_delta", 0.5, cast=float)
        blob["lambda_points"] = [float(p) for p in S.lambda_set(mu, beta, lam_r, delta)]
    if blob_weight["name"] in ("kadec", "kadec_spiked"):
        # facing atoms sit within 1/5 of their integer block center
        dev = float(np.max(np.abs(mu.positions - np.round(mu.positions))))
        blob["kadec_max_deviation"] = dev
    atoms_out = _opt(args, cfg, "atoms_out")
    if atoms_out:
        reporting.write_csv(atoms_out, ["position", "mass"],
                            zip(mu.positions.tolist(), mu.masses.tolist()))
    reporting.write_json(_opt(args, cfg, "out", "sampling.json"), blob)
    return 0


def cmd_tauberian(args, cfg):
    from . import tauberian as T

    w, _ = _load_weight(args, cfg)
    lo = _opt(args, cfg, "u_lo", 0.02, cast=float)
    hi = _opt(args, cfg, "u_hi", 1.5, cast=float)
    pts = _opt(args, cfg, "points", 48, cast=int)
    if not (0.0 < lo < hi) or pts < 5:
        raise UsageError("profile grid needs 0 < u_lo < u_hi and >= 5 points")
    sigma = w.sigma0 + np.geomspace(lo, hi, pts)
    profile = T.mellin_profile(w, sigma)
    fit = T.fit_singularity(profile, w.sigma0)
    blob = {
        "weight": _weight_blob(w),
        "sigma0": fit.sigma0,
        "beta_hat": fit.beta_hat,
        "g_at_sigma0": fit.g_at_sigma0,
        "fit_window": [fit.fit_window[0], fit.fit_window[1]],
        "residual_rms": fit.residual_rms,
        "log_singularity": fit.log_singularity,
        "abscissa_hat": T.detect_abscissa(w),
    }
    reporting.write_json(_opt(args, cfg, "out", "tauberian.json"), blob)
    cmp_out = _opt(args, cfg, "compare_out")
    if cmp_out:
        n_cmp = _opt(args, cfg, "compare_points", 9, cast=int)
        xs = np.geomspace(max(10.0, w.limit / 10.0), w.limit, max(2, n_cmp))
        rows = T.predict_and_compare(fit, w, xs)
        reporting.write_csv(cmp_out, ["x", "predicted", "measured", "ratio"],
                            [(r.x, r.predicted, r.measured, r.ratio) for r in rows])
    return 0


def cmd_curves(args, cfg):
    lo = _opt(args, cfg, "alpha_lo", -3.0, cast=float)
    hi = _opt(args, cfg, "alpha_hi", 3.0, cast=float)
    pts = _opt(args, cfg, "points", 241, cast=int)
    if not lo < hi or pts < 2:
        raise UsageError("curve range needs alpha_lo < alpha_hi and >= 2 points")
    if not (lo <= -1.0 and hi >= 0.0):
        raise UsageError("range must cover the identity intersections at -1 and 0")
    alphas = np.linspace(lo, hi, pts)
    smooth = 1.0 - np.exp2(-alphas)
    reporting.write_csv(_opt(args, cfg, "csv", "curves.csv"),
                        ["alpha", "smoothness", "identity"],
                        zip(alphas.tolist(), smooth.tolist(), alphas.tolist()))
    # the two curves cross exactly at alpha = -1 and alpha = 0
    reporting.curve_svg(
        _opt(args, cfg, "svg", "curves.svg"),
        alphas.tolist(),
        [("1 - 2^(-alpha)", smooth.tolist(), "#2c6fbb"),
         ("identity", alphas.tolist(), "#999999")],
        marks=[(-1.0, -1.0, "alpha = -1"), (0.0, 0.0, "alpha = 0")],
        title="smoothness parameter against the identity",
        xlabel="alpha",
        ylabel="1 - 2^(-alpha)",
    )
    return 0


_COMMANDS = {
    "weights": cmd_weights,
    "sums": cmd_sums,
    "fit": cmd_fit,
    "zeta": cmd_zeta,
    "kernel": cmd_kernel,
    "embed": cmd_embed,
    "sampling": cmd_sampling,
    "tauberian": cmd_tauberian,
    "curves": cmd_curves,
}


def _add_weight_flags(p):
    p.add_argument("--name")
    p.add_argument("--N", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--alpha-param", type=float,
                   help="family parameter alpha (log_power / inv_divisor_pow)")
    p.add_argument("--blocks", type=int)


def build_parser():
    ap = argparse.ArgumentParser(prog="dirichletlab")
    ap.add_argument("--config", help="JSON options file; flags take precedence")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="dump a catalog weight and its partial sums")
    _add_weight_flags(p)
    p.add_argument("--out")
    p.add_argument("--sums-out")

    p = sub.add_parser("sums", help="partial sums / normalized ratios on a grid")
    _add_weight_flags(p)
    p.add_argument("--points", type=int)
    p.add_argument("--lo", type=float)
    p.add_argument("--ratio-alpha", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--out")

    p = sub.add_parser("fit", help="exponent fit for the partial-sum asymptotics")
    _add_weight_flags(p)
    p.add_argument("--grid-lo", type=float)
    p.add_argument("--grid-hi", type=float)
    p.add_argument("--grid-points", type=int)
    p.add_argument("--out")

    p = sub.add_parser("zeta", help="special values and abscissas")
    p.add_argument("--what", choices=["abscissas", "grid"])
    p.add_argument("--sigma", type=float)
    p.add_argument("--cross-check-N", type=float)
    p.add_argument("--sigma-lo", type=float)
    p.add_argument("--sigma-hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out")

    p = sub.add_parser("kernel", help="evaluate a reproducing-kernel family")
    p.add_argument("--family")
    p.add_argument("--param", type=float)
    p.add_argument("--anchor-re", type=float)
    p.add_argument("--anchor-im", type=float)
    p.add_argument("--sigma-lo", type=float)
    p.add_argument("--sigma-hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--out")

    p = sub.add_parser("embed", help="embedding-constant estimates across truncations")
    _add_weight_flags(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--N-list")
    p.add_argument("--family", choices=["blocks", "random"])
    p.add_argument("--size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--sigma-cap", type=float)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")

    p = sub.add_parser("sampling", help="atomic-measure diagnostics")
    _add_weight_flags(p)
    p.add_argument("--symmetric", action="store_const", const=True)
    p.add_argument("--beta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--r-list")
    p.add_argument("--lambda-r", type=float)
    p.add_argument("--lambda-delta", type=float)
    p.add_argument("--atoms-out")
    p.add_argument("--out")

    p = sub.add_parser("tauberian", help="Mellin profile, singularity fit, prediction")
    _add_weight_flags(p)
    p.add_argument("--u-lo", type=float)
    p.add_argument("--u-hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--out")
    p.add_argument("--compare-out")
    p.add_argument("--compare-points", type=int)

    p = sub.add_parser("curves", help="smoothness curve 1 - 2^(-alpha) as CSV + SVG")
    p.add_argument("--alpha-lo", type=float)
    p.add_argument("--alpha-hi", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--csv")
    p.add_argument("--svg")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _config_section(args.config, args.command)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DirichletLabError as e:
        print(f"compute error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
