"""Job batches of the CLI-job benchmark.

A workload is a fixed batch of `python -m dirichletlab.cli ...` jobs, run one
after another.  Sizes are fixed; the workload seed only sets the `--seed` of
the random embedding families and the rows the output checks sample.  Each
job names the oracle in `oracles.py` that checks its artifacts and carries
the parameters that oracle needs.

Why these three workloads:

* profile_1e7 -- `tauberian.mellin_profile`'s direct sum over 48 sigma points
  is ~93 % of each job; the rest is sieve/table and `compensated_cumsum`
  work.  No embedding, tiny JSON output.
* embed_1e5 -- `embedding._abs2_grid` is ~90 % of each job.  The two random
  families share one support across members, the block family has disjoint
  supports, so a shared-phase optimisation gains on the first two and must
  not cost the third.  No 10^7 tables.
* tables_io -- the same weights/accum/reporting layers used in bulk: an 18 MB
  weight dump and its prefix sums (`reporting.write_csv`), full prefix sums
  of a 3*10^6 table, a 5*10^5-atom measure written out, and the zeta
  cross-check at 10^7, which also covers the `sampling` and `zeta` layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# A batch takes 8-13 s on a 2-vCPU VM, so a 20 s run measures two or three.
FULL = {
    "profile_N": 10**7,
    "embed_N": 10**5,
    "embed_random_sizes": (8, 6),
    "embed_blocks_N": 10**6,
    "weights_N": 5 * 10**5,
    "fit_N": 3 * 10**6,
    "sampling_N": 5 * 10**5,
    "zeta_N": 10**7,
    "zeta_gap_tol": 1e-8,  # criterion 07 at N = 1e7
}

# Small enough for the benchmark's own tests; not a measured configuration.
TINY = {
    "profile_N": 10**6,
    "embed_N": 2000,
    "embed_random_sizes": (4, 3),
    "embed_blocks_N": 10**4,
    "weights_N": 10**4,
    "fit_N": 10**6,
    "sampling_N": 10**4,
    "zeta_N": 10**4,
    "zeta_gap_tol": 1e-5,  # tests/test_cli.py at N = 1e4
}

WORKLOADS = ("profile_1e7", "embed_1e5", "tables_io")


@dataclass(frozen=True)
class Job:
    """One CLI invocation; paths in `argv` are relative to the batch directory."""

    name: str
    argv: tuple
    check: str
    params: dict = field(default_factory=dict)


def _n(v: int) -> str:
    return str(int(v))


def jobs(workload: str, seed: int, sizes: dict = FULL) -> list:
    """The batch of `workload` for `seed`; the same arguments give the same jobs."""
    if workload == "profile_1e7":
        N = sizes["profile_N"]
        # catalog exponents: D(x) ~ x log x, psi(x) ~ x
        return [
            Job(f"tauberian_{name}",
                ("tauberian", "--name", name, "--N", _n(N),
                 "--out", f"tau_{name}.json", "--compare-out", f"tau_{name}.csv"),
                "tauberian",
                {"weight": name, "N": N, "exponent": exponent,
                 "json": f"tau_{name}.json", "csv": f"tau_{name}.csv"})
            for name, exponent in (("divisor", -1.0), ("mangoldt", 0.0))
        ]
    if workload == "embed_1e5":
        N = sizes["embed_N"]
        s_const, s_div = sizes["embed_random_sizes"]
        nb = sizes["embed_blocks_N"]
        specs = [
            ("sup_l2", "constant", None, 0.0, "random", s_const, N, seed),
            ("derivative", "divisor", None, 0.5, "random", s_div, N, seed + 1),
            ("bergman", "log_power", 1.0, -0.5, "blocks", None, nb, None),
        ]
        out = []
        for tag, name, wparam, alpha, kind, size, n, jseed in specs:
            argv = ["embed", "--name", name, "--alpha", repr(alpha), "--family", kind,
                    "--N-list", _n(n), "--out-csv", f"emb_{tag}.csv",
                    "--out-json", f"emb_{tag}.json"]
            if wparam is not None:
                argv += ["--alpha-param", repr(wparam)]
            if kind == "random":
                argv += ["--size", str(size), "--seed", str(jseed)]
            out.append(Job(f"embed_{tag}", tuple(argv), "embed",
                           {"weight": name, "wparam": wparam, "alpha": alpha,
                            "kind": kind, "size": size, "seed": jseed, "N": n,
                            "json": f"emb_{tag}.json", "csv": f"emb_{tag}.csv"}))
        return out
    if workload == "tables_io":
        nw, nf, ns, nz = (sizes[k] for k in ("weights_N", "fit_N", "sampling_N", "zeta_N"))
        return [
            Job("weights_dump",
                ("weights", "--name", "mangoldt", "--N", _n(nw),
                 "--out", "w.csv", "--sums-out", "ws.csv"),
                "weights_dump", {"N": nw, "seed": seed, "out": "w.csv", "sums": "ws.csv"}),
            Job("fit_dgamma",
                ("fit", "--name", "dgamma", "--gamma", "1.5", "--N", _n(nf),
                 "--out", "fit.json"),
                "fit", {"N": nf, "gamma": 1.5, "alpha": -0.5, "json": "fit.json"}),
            Job("sampling_constant",
                ("sampling", "--name", "constant", "--N", _n(ns), "--lambda-r", "1",
                 "--atoms-out", "atoms.csv", "--out", "sampling.json"),
                "sampling", {"N": ns, "seed": seed, "json": "sampling.json",
                             "atoms": "atoms.csv"}),
            Job("zeta_abscissas",
                ("zeta", "--what", "abscissas", "--cross-check-N", _n(nz),
                 "--out", "zeta.json"),
                "zeta", {"json": "zeta.json", "gap_tol": sizes["zeta_gap_tol"]}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
