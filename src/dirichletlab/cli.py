"""Command-line experiment runner.

Commands: weights | sums | fit | zeta | kernel | embed | sampling |
tauberian | curves.  Every default lives on the parser.  --config names a
JSON file (a section named after the command, or a flat object) whose
values replace those defaults, each parsed and checked as its flag is.
Precedence: flag > config > parser default.  Exit codes: 0 ok, 1
compute/runtime failure, 2 usage/config error, including a config value
its flag rejects and a weight family input that catalog refuses.  All
outputs go through `reporting`, so a repeated run with the same options
and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import reporting, sampling
from . import tauberian as T
from . import weights as W
from .accum import exact_sum, with_offsets
from .arithmetic import prime_segments
from .embedding import (ALPHA_HIGH, ALPHA_LOW, LocalWindow, block_family, check_sigma_rules,
                        embedding_constant, random_family)
from .errors import DirichletLabError
from .zeta import (KernelSpec, kernel_eval, kernel_region, prime_zeta,
                   prime_zeta_unit_abscissa, zeta, zeta_equals_two_abscissa)


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
    """The section's values for `parser`'s options, each parsed and checked as its flag is."""
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
        if action.choices is not None and v not in action.choices:
            raise UsageError(f"config value {action.dest}={v!r} is not in {action.choices}")
        out[action.dest] = v
    return out


def float_list(v):
    """A comma-separated string (flag) or a JSON list (config) of numbers."""
    if isinstance(v, str):
        v = [x for x in v.split(",") if x.strip()]
    return [float(x) for x in v]


def _truncation(flag, v):
    """The truncation v as an int, once it is finite and at least 2."""
    if not math.isfinite(v):
        raise UsageError(f"{flag} must be finite, got {v}")
    if int(v) < 2:
        raise UsageError(f"{flag} must be >= 2, got {int(v)}")
    return int(v)


_PARAM_FLAGS = {"gamma": "--gamma", "alpha": "--alpha-param", "blocks": "--blocks"}


def _weight_sequences(args, n_values):
    """The named family's catalog sequences at the truncations n_values (None: --N
    was not given); catalog builds nothing, so each error it raises is a usage error."""
    if args.name is None:
        raise UsageError("a weight --name is required")
    if n_values is None:
        raise UsageError("--N is required")
    ns = [_truncation("--N", v) for v in n_values]
    params = {"gamma": args.gamma, "alpha": args.alpha_param, "blocks": args.blocks}
    need = W.REQUIRED_PARAM.get(args.name)
    if need is not None and params[need] is None:
        raise UsageError(f"weight family {args.name!r} needs {_PARAM_FLAGS[need]}")
    params = {k: v for k, v in params.items() if v is not None}
    try:
        return [W.catalog(args.name, n, **params) for n in ns]
    except DirichletLabError as e:
        raise UsageError(str(e))


def _load_weight(args):
    return _weight_sequences(args, None if args.N is None else [args.N])[0]


def _weight_blob(w):
    return {"name": w.name, "params": w.params, "limit": w.limit}


# --- commands ----------------------------------------------------------------


def cmd_weights(args):
    w = _load_weight(args)
    n = range(1, w.w.size)  # w first: past the budget it refuses before anything is written
    reporting.write_csv(args.out, ["n", "w_n"], [n, w.w[1:]])
    sums_out = args.sums_out
    if sums_out is None:
        stem, ext = os.path.splitext(args.out)  # the extension of the file name only
        sums_out = f"{stem}_sums{ext}"
    S = W.partial_sums(w)
    reporting.write_csv(sums_out, ["n", "S_n"], [n, S[1:]])
    return 0


def cmd_sums(args):
    if args.points < 2:
        raise UsageError("need at least 2 grid points")
    if args.eta is not None and not 0.0 < args.eta < 1.0:
        raise UsageError(f"--eta must lie in (0, 1), got {args.eta}")
    if not math.isfinite(args.lo) or (args.N is not None and args.lo > args.N):
        raise UsageError(f"--lo must be finite and at most --N, got {args.lo}")
    if args.ratio_alpha is not None and not math.isfinite(args.ratio_alpha):
        raise UsageError(f"--ratio-alpha must be finite, got {args.ratio_alpha}")
    w = _load_weight(args)
    xs = np.unique(np.geomspace(max(2.0, args.lo), w.limit, args.points).astype(np.int64))
    points = [xs]
    if args.eta is not None:
        points.append(args.eta * xs)
    W.read(w, np.concatenate(points))  # one scan serves every column below
    header = ["x", "S"]
    cols = [xs.astype(float), W.sums_at(w, xs)]
    alpha = w.expected_alpha if args.ratio_alpha is None else args.ratio_alpha
    if alpha is not None:
        header.append("ratio")
        cols.append(W.chebyshev_ratios(w, xs.astype(float), alpha))
    if args.eta is not None:
        header.append("block_sum")
        cols.append(W.block_sums(w, args.eta, xs.astype(float)))
    reporting.write_csv(args.out, header, cols)
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
    blob = {**fit._asdict(), "weight": _weight_blob(w), "ratios": [float(r) for r in ratios],
            "ratio_alpha": fit.alpha_hat}
    reporting.write_json(args.out, blob)
    return 0


def _prime_powers(limit, e):
    """p ** e for the primes p <= limit, one array per accum segment."""
    for lo, mask in with_offsets(prime_segments(limit), limit + 1):
        p = (np.flatnonzero(mask) + lo).astype(np.float64)
        del mask  # freed before the sieve makes the next one
        yield p ** e
        del p


def cmd_zeta(args):
    if args.what == "abscissas":
        if args.cross_check_N is not None:
            cross_n = _truncation("--cross-check-N", args.cross_check_N)
            if not 1.0 < args.sigma < math.inf:
                raise UsageError(f"the cross-check needs a finite --sigma > 1, got {args.sigma}")
        rho = prime_zeta_unit_abscissa()
        rho1 = zeta_equals_two_abscissa()
        blob = {
            "rho": rho,
            "rho_residual": abs(prime_zeta(rho).real - 1.0),
            "rho1": rho1,
            "rho1_residual": abs(zeta(rho1).real - 2.0),
        }
        if args.cross_check_N is not None:
            s = args.sigma
            direct = exact_sum(_prime_powers(cross_n, -s))
            # li-based tail: integral of x^-s dpi(x) with pi ~ li - li(sqrt)/2,
            # each piece a log-power tail at alpha = 1
            L = math.log(cross_n)
            tail = T.log_power_tail(s - 1.0, L, 1.0) - 0.5 * T.log_power_tail(s - 0.5, L, 1.0)
            blob["cross_check_sigma"] = s
            blob["cross_check_gap"] = abs(direct + tail - prime_zeta(s).real)
        reporting.write_json("abscissas.json" if args.out is None else args.out, blob)
        return 0
    lo, hi, pts = args.sigma_lo, args.sigma_hi, args.points  # --what grid
    if not (1.0 < lo < hi < math.inf) or pts < 2:
        raise UsageError("grid needs 1 < --sigma-lo < --sigma-hi < inf and --points >= 2")
    sigmas = np.linspace(lo, hi, pts)
    reporting.write_csv("zeta.csv" if args.out is None else args.out,
                        ["sigma", "zeta", "prime_zeta"],
                        [sigmas, [zeta(s).real for s in sigmas],
                         [prime_zeta(s).real for s in sigmas]])
    return 0


def cmd_kernel(args):
    try:
        spec = KernelSpec(family=args.family, param=args.param,
                          anchor=complex(args.anchor_re, args.anchor_im))
    except DirichletLabError as e:
        raise UsageError(str(e))
    lo, hi, pts = args.sigma_lo, args.sigma_hi, args.points
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or pts < 2:
        raise UsageError("kernel grid needs finite --sigma-lo < --sigma-hi and --points >= 2")
    sigmas = np.linspace(lo, hi, pts)
    for s in sigmas:  # the grid is the user's: check all of it before evaluating
        try:
            kernel_region(spec, complex(s, args.t))
        except DirichletLabError as e:
            raise UsageError(f"kernel grid point sigma={float(s)!r}, t={args.t!r} lies outside "
                             f"the kernel's region: {e}")
    v = np.array([kernel_eval(spec, complex(s, args.t)) for s in sigmas])
    reporting.write_csv(args.out, ["sigma", "t", "re", "im"],
                        [sigmas, np.full(sigmas.size, args.t), v.real, v.imag])
    return 0


class _Counted:
    """A family's members, read once and counted: len() is the number read so
    far.  perfbench/tracer.py takes len() of embedding_constant's family when
    the call returns, and a generator family has none."""

    def __init__(self, family):
        self._members, self._read = iter(family), 0

    def __iter__(self):
        return self

    def __next__(self):
        F = next(self._members)
        self._read += 1
        return F

    def __len__(self):
        return self._read


def cmd_embed(args):
    alpha, kind = args.alpha, args.family
    if alpha is None:
        raise UsageError("--alpha is required")
    if not ALPHA_LOW < alpha < ALPHA_HIGH:  # also rejects nan
        raise UsageError(f"--alpha must lie in the supported scale {ALPHA_LOW:g} < alpha < "
                         f"{ALPHA_HIGH:g}, got {alpha}")
    if kind == "random" and args.size < 1:
        raise UsageError(f"a random family needs --size >= 1, got {args.size}")
    if kind == "random" and args.seed < 0:
        raise UsageError(f"a random family needs --seed >= 0, got {args.seed}")
    try:
        win = LocalWindow(args.a, args.b, args.sigma_cap)
    except DirichletLabError as e:
        raise UsageError(str(e))
    if alpha != 0.0:
        try:
            check_sigma_rules(alpha, win)
        except DirichletLabError as e:
            raise UsageError(f"--alpha and --sigma-cap: {e}")
    if not args.N_list:
        raise UsageError("--N-list is empty")
    # every N is checked before any weight is built; each is let go after its row
    sequences = sorted(_weight_sequences(args, args.N_list), key=lambda w: w.limit)
    weight = {"name": args.name, "params": sequences[0].params}
    rows = []
    while sequences:
        w = sequences.pop(0)
        fam = block_family(w) if kind == "blocks" else random_family(w, args.size, args.seed)
        est = embedding_constant(w, alpha, win, _Counted(fam))
        rows.append({"N": w.limit, "constant_estimate": est.value,
                     "quad_error_max": est.quad_error_max,
                     "family_size": est.family_size})
    reporting.write_csv(args.out_csv, ["N", "alpha", "constant_estimate"],
                        [[r["N"] for r in rows], [alpha] * len(rows),
                         [r["constant_estimate"] for r in rows]])
    blob = {
        "weight": weight,
        "alpha": alpha,
        "window": {"a": win.a, "b": win.b, "sigma_cap": win.sigma_cap},
        "family": {"kind": kind, "size": args.size if kind == "random" else None,
                   "seed": args.seed if kind == "random" else None},
        "rows": rows,
    }
    reporting.write_json(args.out_json, blob)
    return 0


def cmd_sampling(args):
    # the flags are the user's: check them before any weight is built
    if not math.isfinite(args.beta):
        raise UsageError(f"--beta must be finite, got {args.beta}")
    positive = [("--eps", args.eps), ("--lambda-delta", args.lambda_delta)]
    positive += [("--r-list", r) for r in args.r_list]
    if args.lambda_r is not None:
        positive.append(("--lambda-r", args.lambda_r))
    for flag, v in positive:
        if not (math.isfinite(v) and v > 0.0):
            raise UsageError(f"{flag} must be a finite number > 0, got {v}")
    if args.name == "kadec":
        # atom-level construction: block counts beyond log(limit) have no
        # dense weight array, but the measure itself is a few numbers
        blocks = 50 if args.blocks is None else args.blocks
        try:
            mu = sampling.kadec_atoms(blocks)
        except DirichletLabError as e:  # a block count below one
            raise UsageError(str(e))
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
        reporting.write_csv(args.atoms_out, ["position", "mass"], [mu.positions, mu.masses])
    reporting.write_json(args.out, blob)
    return 0


def cmd_tauberian(args):
    lo, hi, pts = args.u_lo, args.u_hi, args.points
    if not (0.0 < lo < hi < math.inf) or pts < 5:
        raise UsageError("profile grid needs 0 < --u-lo < --u-hi < inf and --points >= 5")
    w = _load_weight(args)
    sigmas = w.sigma0 + np.geomspace(lo, hi, pts)
    if not np.all(sigmas > w.sigma0):  # before prescan reads every weight
        raise UsageError(f"--u-lo {lo!r} is below the resolution of sigma0 = {w.sigma0!r}: "
                         f"sigma0 + u rounds to sigma0")
    sigmas = T.fit_grid(sigmas, w.sigma0)
    xs = ()
    if args.compare_out:
        xs = np.geomspace(max(10.0, w.limit / 10.0), w.limit, max(2, args.compare_points))
    T.prescan(w, sigmas, xs)  # one scan of the weights serves every step below
    profile = T.mellin_profile(w, sigmas)
    fit = T.fit_singularity(profile, w.sigma0)
    blob = {**fit._asdict(), "weight": _weight_blob(w), "abscissa_hat": T.detect_abscissa(w)}
    reporting.write_json(args.out, blob)
    if args.compare_out:
        rows = T.predict_and_compare(fit, w, xs)
        reporting.write_csv(args.compare_out, ["x", "predicted", "measured", "ratio"],
                            zip(*rows))
    return 0


def cmd_curves(args):
    lo, hi, pts = args.alpha_lo, args.alpha_hi, args.points
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or pts < 2:
        raise UsageError("curve range needs finite --alpha-lo < --alpha-hi and --points >= 2")
    if not (lo <= -1.0 and hi >= 0.0):
        raise UsageError("range must cover the identity intersections at -1 and 0")
    alphas = np.linspace(lo, hi, pts)
    smooth = 1.0 - np.exp2(-alphas)
    reporting.write_csv(args.csv, ["alpha", "smoothness", "identity"], [alphas, smooth, alphas])
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
