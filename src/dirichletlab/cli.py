"""Command-line experiment runner.

Commands: weights | sums | fit | zeta | kernel | embed | sampling |
tauberian | curves.  Every default lives on the parser.  --config names a
JSON file (a section named after the command, or a flat object) whose
values replace those defaults; each value is parsed by its flag's type.
Precedence: flag > config > parser default.  Exit codes: 0 ok, 1
compute/runtime failure, 2 usage/config error, including a config value
its flag's type rejects.  All outputs go through `reporting`, so a repeated
run with the same options and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy.special import exp1

from . import reporting, sampling
from . import tauberian as T
from . import weights as W
from .accum import compensated_sum
from .arithmetic import build_sieve
from .embedding import LocalWindow, block_family, embedding_constant, random_family
from .errors import DirichletLabError
from .zeta import (KernelSpec, kernel_eval, prime_zeta, prime_zeta_unit_abscissa,
                   zeta, zeta_equals_two_abscissa)


class UsageError(Exception):
    pass


def _config_section(path, command):
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


def _config_defaults(parser, section):
    """The section's values for `parser`'s options, each parsed by its flag's type."""
    out = {}
    for action in parser._actions:
        if action.dest not in section:
            continue
        v = section[action.dest]
        if action.type is not None:
            try:
                v = action.type(v)
            except (TypeError, ValueError):
                raise UsageError(f"config value {action.dest}={v!r} is not a valid "
                                 f"{action.type.__name__}")
        out[action.dest] = v
    return out


def float_list(v):
    """A comma-separated string (flag) or a JSON list (config) of numbers."""
    if isinstance(v, str):
        v = [x for x in v.split(",") if x.strip()]
    return [float(x) for x in v]


def _weight_params(args):
    params = {"gamma": args.gamma, "alpha": args.alpha_param, "blocks": args.blocks}
    return {k: v for k, v in params.items() if v is not None}


def _load_weight(args):
    if args.name is None:
        raise UsageError("a weight --name is required")
    if args.name not in W.CATALOG_NAMES:
        raise UsageError(f"unknown weight family {args.name!r}")
    if args.N is None:
        raise UsageError("--N is required")
    n = int(args.N)
    if n < 2:
        raise UsageError(f"--N must be >= 2, got {n}")
    table = build_sieve(n) if args.name in W.NEEDS_TABLE else None
    return W.catalog(args.name, n, table=table, **_weight_params(args))


def _weight_blob(w):
    return {"name": w.name, "params": w.params, "limit": w.limit}


# --- commands ----------------------------------------------------------------


def cmd_weights(args):
    w = _load_weight(args)
    rows = ((n, float(w.w[n])) for n in range(1, w.limit + 1))
    reporting.write_csv(args.out, ["n", "w_n"], rows)
    sums_out = args.sums_out
    if sums_out is None:
        stem, dot, ext = args.out.rpartition(".")
        sums_out = f"{stem}_sums.{ext}" if dot else f"{args.out}_sums"
    S = W.partial_sums(w)
    reporting.write_csv(sums_out, ["n", "S_n"], ((n, float(S[n])) for n in range(1, w.limit + 1)))
    return 0


def cmd_sums(args):
    w = _load_weight(args)
    if args.points < 2:
        raise UsageError("need at least 2 grid points")
    xs = np.unique(np.geomspace(max(2.0, args.lo), w.limit, args.points).astype(np.int64))
    S = W.partial_sums(w)
    header = ["x", "S"]
    cols = [xs.astype(float), S[xs]]
    alpha = w.expected_alpha if args.ratio_alpha is None else args.ratio_alpha
    if alpha is not None:
        header.append("ratio")
        cols.append(W.chebyshev_ratios(w, xs.astype(float), alpha))
    if args.eta is not None:
        header.append("block_sum")
        cols.append(W.block_sums(w, args.eta, xs.astype(float)))
    reporting.write_csv(args.out, header, zip(*cols))
    return 0


def cmd_fit(args):
    w = _load_weight(args)
    pts, lo = args.grid_points, args.grid_lo
    hi = float(w.limit) if args.grid_hi is None else args.grid_hi
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
    reporting.write_json(args.out, blob)
    return 0


def cmd_zeta(args):
    if args.what == "abscissas":
        rho = prime_zeta_unit_abscissa()
        rho1 = zeta_equals_two_abscissa()
        blob = {
            "rho": rho,
            "rho_residual": abs(prime_zeta(rho).real - 1.0),
            "rho1": rho1,
            "rho1_residual": abs(zeta(rho1).real - 2.0),
        }
        if args.cross_check_N is not None:
            cross_n = int(args.cross_check_N)
            table = build_sieve(cross_n)
            s = args.sigma
            direct = compensated_sum(table.primes.astype(np.float64) ** (-s))
            # li-based tail: integral of x^-s dpi(x) with pi ~ li - li(sqrt)/2
            L = math.log(cross_n)
            tail = exp1((s - 1.0) * L) - 0.5 * exp1((s - 0.5) * L)
            blob["cross_check_sigma"] = s
            blob["cross_check_gap"] = abs(direct + tail - prime_zeta(s).real)
        reporting.write_json("abscissas.json" if args.out is None else args.out, blob)
        return 0
    if args.what == "grid":
        lo, hi, pts = args.sigma_lo, args.sigma_hi, args.points
        if not (1.0 < lo < hi) or pts < 2:
            raise UsageError("grid needs 1 < sigma_lo < sigma_hi and >= 2 points")
        rows = [(s, zeta(s).real, prime_zeta(s).real) for s in np.linspace(lo, hi, pts)]
        reporting.write_csv("zeta.csv" if args.out is None else args.out,
                            ["sigma", "zeta", "prime_zeta"], rows)
        return 0
    raise UsageError(f"unknown zeta request {args.what!r} (abscissas|grid)")


def cmd_kernel(args):
    try:
        spec = KernelSpec(family=args.family, param=args.param,
                          anchor=complex(args.anchor_re, args.anchor_im))
    except DirichletLabError as e:
        raise UsageError(str(e))
    if not args.sigma_lo < args.sigma_hi or args.points < 2:
        raise UsageError("kernel grid needs sigma_lo < sigma_hi and >= 2 points")
    rows = []
    for s in np.linspace(args.sigma_lo, args.sigma_hi, args.points):
        v = kernel_eval(spec, complex(s, args.t))
        rows.append((float(s), args.t, v.real, v.imag))
    reporting.write_csv(args.out, ["sigma", "t", "re", "im"], rows)
    return 0


def cmd_embed(args):
    name, alpha, kind = args.name, args.alpha, args.family
    if name is None or name not in W.CATALOG_NAMES:
        raise UsageError(f"unknown or missing weight family {name!r}")
    if alpha is None:
        raise UsageError("--alpha is required")
    if not args.N_list:
        raise UsageError("--N-list is empty")
    if not all(math.isfinite(v) for v in args.N_list):
        raise UsageError(f"--N-list entries must be finite, got {args.N_list}")
    n_list = [int(v) for v in args.N_list]
    if kind not in ("blocks", "random"):
        raise UsageError(f"family must be blocks|random, got {kind!r}")
    win = LocalWindow(args.a, args.b, args.sigma_cap)
    params = _weight_params(args)
    table = build_sieve(max(n_list)) if name in W.NEEDS_TABLE else None
    rows = []
    for n in sorted(n_list):
        w = W.catalog(name, n, table=table, **params)
        fam = block_family(w) if kind == "blocks" else random_family(w, args.size, args.seed)
        est = embedding_constant(w, alpha, win, fam)
        rows.append({"N": n, "constant_estimate": est.value,
                     "quad_error_max": est.quad_error_max,
                     "family_size": est.family_size})
    reporting.write_csv(args.out_csv, ["N", "alpha", "constant_estimate"],
                        [(r["N"], alpha, r["constant_estimate"]) for r in rows])
    blob = {
        "weight": {"name": name, "params": params},
        "alpha": alpha,
        "window": {"a": win.a, "b": win.b, "sigma_cap": win.sigma_cap},
        "family": {"kind": kind, "size": args.size,
                   "seed": args.seed if kind == "random" else None},
        "rows": rows,
    }
    reporting.write_json(args.out_json, blob)
    return 0


def cmd_sampling(args):
    if args.name == "kadec":
        # atom-level construction: block counts beyond log(limit) have no
        # dense weight array, but the measure itself is a few numbers
        blocks = 50 if args.blocks is None else args.blocks
        mu = sampling.kadec_atoms(blocks)
        blob_weight = {"name": "kadec", "params": {"blocks": blocks}, "limit": None}
    else:
        w = _load_weight(args)
        mu = sampling.measure_from_weights(w, symmetric=bool(args.symmetric))
        blob_weight = _weight_blob(w)
    beta, eps = args.beta, args.eps
    car = sampling.carleson_check(mu, beta)
    horizon = float(mu.domain_bound)
    rs = args.r_list or [max(1.0, (horizon - float(mu.domain_low)) / 5.0)]
    dens = sampling.beurling_lower_density(mu.positions, rs, window=(float(mu.domain_low), horizon))
    cont = sampling.continuity_at_infinity(mu, beta, eps)
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
    if args.lambda_r is not None:
        blob["lambda_points"] = [float(p) for p in
                                 sampling.lambda_set(mu, beta, args.lambda_r, args.lambda_delta)]
    if blob_weight["name"] in ("kadec", "kadec_spiked"):
        # facing atoms sit within 1/5 of their integer block center
        dev = float(np.max(np.abs(mu.positions - np.round(mu.positions))))
        blob["kadec_max_deviation"] = dev
    if args.atoms_out:
        reporting.write_csv(args.atoms_out, ["position", "mass"],
                            zip(mu.positions.tolist(), mu.masses.tolist()))
    reporting.write_json(args.out, blob)
    return 0


def cmd_tauberian(args):
    w = _load_weight(args)
    lo, hi, pts = args.u_lo, args.u_hi, args.points
    if not (0.0 < lo < hi) or pts < 5:
        raise UsageError("profile grid needs 0 < u_lo < u_hi and >= 5 points")
    profile = T.mellin_profile(w, w.sigma0 + np.geomspace(lo, hi, pts))
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
    reporting.write_json(args.out, blob)
    if args.compare_out:
        xs = np.geomspace(max(10.0, w.limit / 10.0), w.limit, max(2, args.compare_points))
        rows = T.predict_and_compare(fit, w, xs)
        reporting.write_csv(args.compare_out, ["x", "predicted", "measured", "ratio"],
                            [(r.x, r.predicted, r.measured, r.ratio) for r in rows])
    return 0


def cmd_curves(args):
    lo, hi, pts = args.alpha_lo, args.alpha_hi, args.points
    if not lo < hi or pts < 2:
        raise UsageError("curve range needs alpha_lo < alpha_hi and >= 2 points")
    if not (lo <= -1.0 and hi >= 0.0):
        raise UsageError("range must cover the identity intersections at -1 and 0")
    alphas = np.linspace(lo, hi, pts)
    smooth = 1.0 - np.exp2(-alphas)
    reporting.write_csv(args.csv, ["alpha", "smoothness", "identity"],
                        zip(alphas.tolist(), smooth.tolist(), alphas.tolist()))
    # the two curves cross exactly at alpha = -1 and alpha = 0
    reporting.curve_svg(
        args.svg,
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
    # no parser default: a value here enters every family's weight.params
    p.add_argument("--blocks", type=int)


def build_parser():
    ap = argparse.ArgumentParser(prog="dirichletlab")
    ap.add_argument("--config", help="JSON options file; flags take precedence")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="dump a catalog weight and its partial sums")
    _add_weight_flags(p)
    p.add_argument("--out", default="weights.csv")
    p.add_argument("--sums-out", help="default: --out with _sums before the extension")

    p = sub.add_parser("sums", help="partial sums / normalized ratios on a grid")
    _add_weight_flags(p)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--lo", type=float, default=10.0)
    p.add_argument("--ratio-alpha", type=float, help="default: the family's expected alpha")
    p.add_argument("--eta", type=float)
    p.add_argument("--out", default="sums.csv")

    p = sub.add_parser("fit", help="exponent fit for the partial-sum asymptotics")
    _add_weight_flags(p)
    p.add_argument("--grid-lo", type=float, default=1e3)
    p.add_argument("--grid-hi", type=float, help="default: N")
    p.add_argument("--grid-points", type=int, default=25)
    p.add_argument("--out", default="fit.json")

    p = sub.add_parser("zeta", help="special values and abscissas")
    p.add_argument("--what", choices=["abscissas", "grid"], default="abscissas")
    p.add_argument("--sigma", type=float, default=1.5)
    p.add_argument("--cross-check-N", type=float)
    p.add_argument("--sigma-lo", type=float, default=1.1)
    p.add_argument("--sigma-hi", type=float, default=3.0)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--out", help="default: abscissas.json or zeta.csv, by --what")

    p = sub.add_parser("kernel", help="evaluate a reproducing-kernel family")
    p.add_argument("--family", default="dalpha")
    p.add_argument("--param", type=float, default=-1.0)
    p.add_argument("--anchor-re", type=float, default=1.0)
    p.add_argument("--anchor-im", type=float, default=0.0)
    p.add_argument("--sigma-lo", type=float, default=0.55)
    p.add_argument("--sigma-hi", type=float, default=1.5)
    p.add_argument("--points", type=int, default=40)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--out", default="kernel.csv")

    p = sub.add_parser("embed", help="embedding-constant estimates across truncations")
    _add_weight_flags(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--N-list", type=float_list, default="1000,10000")
    p.add_argument("--family", choices=["blocks", "random"], default="blocks")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--sigma-cap", type=float, default=1.0)
    p.add_argument("--out-csv", default="embed.csv")
    p.add_argument("--out-json", default="embed.json")

    p = sub.add_parser("sampling", help="atomic-measure diagnostics")
    _add_weight_flags(p)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--r-list", type=float_list, default="")
    p.add_argument("--lambda-r", type=float)
    p.add_argument("--lambda-delta", type=float, default=0.5)
    p.add_argument("--atoms-out")
    p.add_argument("--out", default="sampling.json")

    p = sub.add_parser("tauberian", help="Mellin profile, singularity fit, prediction")
    _add_weight_flags(p)
    p.add_argument("--u-lo", type=float, default=0.02)
    p.add_argument("--u-hi", type=float, default=1.5)
    p.add_argument("--points", type=int, default=48)
    p.add_argument("--out", default="tauberian.json")
    p.add_argument("--compare-out")
    p.add_argument("--compare-points", type=int, default=9)

    p = sub.add_parser("curves", help="smoothness curve 1 - 2^(-alpha) as CSV + SVG")
    p.add_argument("--alpha-lo", type=float, default=-3.0)
    p.add_argument("--alpha-hi", type=float, default=3.0)
    p.add_argument("--points", type=int, default=241)
    p.add_argument("--csv", default="curves.csv")
    p.add_argument("--svg", default="curves.svg")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            # flag > config > parser default: the config replaces the
            # subcommand's defaults, then the flags are parsed over them
            commands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
            sub = commands.choices[args.command]
            sub.set_defaults(**_config_defaults(sub, _config_section(args.config, args.command)))
            args = ap.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DirichletLabError as e:
        print(f"compute error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
