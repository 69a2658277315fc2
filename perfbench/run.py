#!/usr/bin/env python3
"""CLI-job benchmark for dirichletlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (or anywhere: paths are taken from this file).
Each job is a fresh `python -m dirichletlab.cli ...` process, as a user runs
it, timed from outside and read back with `os.wait4`.  Load model: a closed
loop with one client -- jobs run one after another, each starting when the
previous one has exited, so at most one job process (plus its BLAS threads)
runs at a time.  Batches of the workload's jobs repeat until `--seconds` of
batch time has been measured (at least one batch).  After the timing stops,
`oracles.py` checks every job's artifacts in every batch.

--trace 0 reports the end-to-end metrics:
    wall_s       median wall time of one whole job batch, first launch to last
                 exit, checks excluded
    peak_rss_mb  median over batches of the largest ru_maxrss of its jobs
    setup_s      median wall time of a fresh `python -c "import dirichletlab.cli"`,
                 timed twice before the first batch and once after each batch
--trace 1 runs untraced and traced batches (`tracer.py`) in turn and reports
the per-layer metrics (see NOTES.md).  The failed share of jobs is printed in
the summary and carried by `attempted`/`failed` in the last line, which is
one JSON object.  A result file with run metadata goes to .bench_work/results.

Exits 2 without a result when the program is missing or cannot be imported.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# This process never imports numpy: on Linux a child's ru_maxrss starts from
# the RSS of the process that spawned it, so a large parent would inflate
# peak_rss_mb.  Metadata and checks run in their own processes.
import workloads as W
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PY = sys.executable

WORK_COUNTERS = {"arithmetic.entries": "count", "accum.elements": "count",
                 "tauberian.terms": "count", "embedding.members": "count",
                 "sampling.atoms": "count", "reporting.bytes": "bytes"}
SETUP_BEFORE = 2  # timed imports before the first batch; one more follows each batch
IMPORTTIME_REPEATS = 3
RUN_DEADLINE_S = 170.0
CHECK_RESERVE_S = 20.0  # time kept back for the oracle process
IMPORT_CLI = "import dirichletlab.cli"

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{f"{L}.{k}": u for L in LAYERS
       for k, u in (("self_s", "s"), ("calls", "count"), ("errors", "count"), ("import_s", "s"))},
    **WORK_COUNTERS,
    "import.other_s": "s", "import.scipy_optimize_s": "s", "process.cpu_s": "s",
    "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

TIMER_LIMITS = (
    "Wall clock (time.perf_counter) around each job process and os.wait4 rusage "
    "(ru_maxrss, user+sys time) only. No machine-wide tracing, no page-cache "
    "dropping and no CPU pinning: they need privileges a shared host does not "
    "grant, so other tenants of the machine can add noise."
)

PROBE = r"""
import ctypes, glob, json, os, platform
import numpy, scipy
import dirichletlab.cli
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    h = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(h, sym):
            threads = int(getattr(h, sym)())
            break
print(json.dumps({
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "blas_threads": threads,
    "dirichletlab": os.path.realpath(dirichletlab.cli.__file__),
}))
"""


class SetupError(Exception):
    """The program cannot be run from this checkout; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(cmd: list, cwd: str, log: str, deadline: float) -> dict:
    """Run one process to completion; wall time and its own rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                            os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "t0": t0, "wall_s": wall,
            "maxrss_kb": ru.ru_maxrss, "cpu_s": ru.ru_utime + ru.ru_stime}


def _median(values):
    if not values:
        return float("nan")
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)  # counts stay whole numbers
    return statistics.median(values)


def timed_imports(code: str, repeats: int, deadline: float) -> list:
    out = []
    for _ in range(repeats):
        r = run_process([PY, "-c", code], WORK, os.path.join(WORK, "import.log"), deadline)
        if r["exit"] != 0:
            with open(os.path.join(WORK, "import.log"), encoding="utf-8", errors="replace") as fh:
                raise SetupError(f"`{code}` failed: {fh.read().strip()[-400:]}")
        out.append(r["wall_s"])
    return out


def probe() -> dict:
    """Warm-up import (fills __pycache__) that also reports the run metadata."""
    r = subprocess.run([PY, "-c", PROBE], cwd=WORK, env=_env(), capture_output=True,
                       text=True, timeout=120)
    if r.returncode != 0:
        raise SetupError(f"cannot import dirichletlab from {SRC}: {r.stderr.strip()[-400:]}")
    meta = json.loads(r.stdout.strip().splitlines()[-1])
    if not meta["dirichletlab"].startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"imported {meta['dirichletlab']}, not the checkout's {SRC}")
    return meta


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dirichletlab", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; source_sha256 still identifies the code
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


# --- import-time breakdown -------------------------------------------------


def parse_importtime(text: str) -> dict:
    """Fold `python -X importtime` lines into seconds per layer.

    Each module's self time goes to the innermost enclosing dirichletlab layer
    module: third-party imports a layer pulls in count for that layer, and the
    package `__init__` and `errors`, imported on behalf of `dirichletlab.cli`,
    count for cli.  Lines outside any layer go to `other`.  `scipy_optimize`
    is the cumulative time of the outermost scipy.optimize lines, a share of
    zeta's figure.
    """
    stack = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cum, name = line.split("|", 2)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        node = {"name": name.strip(), "self": int(head.split(":")[1]),
                "cum": int(cum), "kids": []}
        while stack and stack[-1][0] > level:
            node["kids"].insert(0, stack.pop()[1])
        stack.append((level, node))
    roots = [n for _, n in stack]
    out = {L: 0 for L in LAYERS}
    out.update(other=0, scipy_optimize=0)

    def walk(node, layer, in_opt):
        mod = node["name"]
        if mod.startswith("dirichletlab.") and mod.split(".", 1)[1] in LAYERS:
            layer = mod.split(".", 1)[1]
        out[layer or "other"] += node["self"]
        is_opt = mod == "scipy.optimize" or mod.startswith("scipy.optimize.")
        if is_opt and not in_opt:
            out["scipy_optimize"] += node["cum"]
        for kid in node["kids"]:
            walk(kid, layer, in_opt or is_opt)

    for node in roots:
        walk(node, None, False)
    return {k: v / 1e6 for k, v in out.items()}


def import_breakdown(repeats: int) -> dict:
    per_key = {}
    for _ in range(repeats):
        r = subprocess.run([PY, "-X", "importtime", "-c", IMPORT_CLI], cwd=WORK, env=_env(),
                           capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            raise SetupError(f"`{IMPORT_CLI}` failed: {r.stderr.strip()[-400:]}")
        for k, v in parse_importtime(r.stderr).items():
            per_key.setdefault(k, []).append(v)
    return {k: _median(v) for k, v in per_key.items()}


# --- batches -------------------------------------------------------------------


def run_batch(batch_dir: str, jobs: list, traced: bool, deadline: float) -> dict:
    """Run the jobs back to back; the batch's wall time and rusage."""
    os.makedirs(batch_dir)
    results = []
    for j in jobs:
        if traced:
            cmd = [PY, os.path.join(HERE, "tracer.py"),
                   os.path.join(batch_dir, f"{j.name}.spans.json"), j.name, "--", *j.argv]
        else:
            cmd = [PY, "-m", "dirichletlab.cli", *j.argv]
        results.append(run_process(cmd, batch_dir, os.path.join(batch_dir, f"{j.name}.log"),
                                   deadline))
    t_end = time.perf_counter()
    batch = {
        "dir": os.path.basename(batch_dir),
        "traced": traced,
        "wall_s": t_end - results[0]["t0"],
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
        "cpu_s": sum(r["cpu_s"] for r in results),
        "jobs": {j.name: dict(r, failure=None if r["exit"] == 0 else f"exit status {r['exit']}")
                 for j, r in zip(jobs, results)},
    }
    if traced:
        batch["layers"] = layer_metrics(batch_dir, jobs)
    return batch


def check_batches(run_dir: str, batches: list, jobs: list, seed: int, deadline: float) -> float:
    """Check every job's artifacts in one oracle process, after all timing."""
    t0 = time.perf_counter()
    spec = {"seed": seed, "batches": [b["dir"] for b in batches],
            "jobs": [{"name": j.name, "check": j.check, "params": j.params} for j in jobs]}
    with open(os.path.join(run_dir, "checks.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    try:
        chk = subprocess.run([PY, os.path.join(HERE, "oracles.py"), run_dir], cwd=run_dir,
                             env=_env(), capture_output=True, text=True,
                             timeout=max(5.0, deadline - time.monotonic()))
        why = None if chk.returncode == 0 else f"checker failed: {chk.stderr.strip()[-300:]}"
    except subprocess.TimeoutExpired:
        why = "checker timed out"
    if why is None:
        verdicts = json.loads(chk.stdout.strip().splitlines()[-1])
    else:
        verdicts = {b["dir"]: {j.name: why for j in jobs} for b in batches}
    for b in batches:
        for name, reason in verdicts[b["dir"]].items():
            if reason and not b["jobs"][name]["failure"]:
                b["jobs"][name]["failure"] = reason
    return time.perf_counter() - t0


def layer_metrics(batch_dir: str, jobs: list) -> dict:
    """Self time, calls and errors per layer, plus the work counters."""
    m = {f"{L}.{k}": 0 for L in LAYERS for k in ("self_s", "calls", "errors")}
    m.update(dict.fromkeys(WORK_COUNTERS, 0))
    for j in jobs:
        path = os.path.join(batch_dir, f"{j.name}.spans.json")
        if not os.path.exists(path):
            continue  # the job failed before writing spans; counted as failed
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        child = {}
        for sid, parent, name, t0, t1, raised in rec["spans"]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, parent, name, t0, t1, raised in rec["spans"]:
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += (t1 - t0) - child.get(sid, 0.0)
            if not name.endswith(".<import>"):
                m[f"{layer}.calls"] += 1
                m[f"{layer}.errors"] += int(raised)
        for key, v in rec["counters"].items():
            m[key] += v
    return m


# --- one run -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int, sizes: dict = W.FULL) -> dict:
    """One benchmark run; returns the result record (metrics and metadata)."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "dirichletlab", "cli.py")):
        raise SetupError(f"no dirichletlab sources under {SRC}")
    jobs = W.jobs(workload, seed, sizes)
    os.makedirs(WORK, exist_ok=True)
    meta = probe()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}-{int(time.time() * 1000)}")
    setup = timed_imports(IMPORT_CLI, SETUP_BEFORE, deadline)
    bare = timed_imports("pass", 3, deadline)
    imports = import_breakdown(IMPORTTIME_REPEATS) if trace else None

    batches = []
    measured = 0.0
    try:
        while not batches or measured < seconds:
            for traced in ((False, True) if trace else (False,)):
                b = run_batch(os.path.join(run_dir, f"b{len(batches)}{'t' if traced else ''}"),
                              jobs, traced, deadline)
                batches.append(b)
                measured += b["wall_s"]
                setup += timed_imports(IMPORT_CLI, 1, deadline)
            longest = max(b["wall_s"] for b in batches) * (2 if trace else 1)
            if time.monotonic() + 1.5 * longest + CHECK_RESERVE_S > deadline:
                break
        check_s = check_batches(run_dir, batches, jobs, seed, deadline)
    finally:
        if all(not j["failure"] for b in batches for j in b["jobs"].values()):
            shutil.rmtree(run_dir, ignore_errors=True)  # keep failed artifacts only

    plain = [b for b in batches if not b["traced"]]
    attempted = sum(len(b["jobs"]) for b in batches)
    failures = [(i, name, j["failure"]) for i, b in enumerate(batches)
                for name, j in b["jobs"].items() if j["failure"]]
    e2e = {
        "wall_s": _median([b["wall_s"] for b in plain]),
        "peak_rss_mb": _median([b["peak_rss_mb"] for b in plain]),
        "setup_s": _median(setup),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in sizes.items()},
        "meta": dict(meta, nproc=os.cpu_count(), commit=git_commit(),
                     source_sha256=source_digest(), timer_limits=TIMER_LIMITS,
                     load_model="closed loop, one client, jobs run one after another"),
        "setup_runs_s": setup, "bare_start_runs_s": bare, "check_s": check_s,
        "batches": batches, "attempted": attempted, "failed": len(failures),
        "failures": failures, "end_to_end": e2e,
        "run_wall_s": time.monotonic() - started,
    }
    if trace:
        traced = [b for b in batches if b["traced"]]
        layers = {k: _median([b["layers"][k] for b in traced]) for k in traced[0]["layers"]}
        for L in LAYERS:
            layers[f"{L}.import_s"] = imports[L]
        layers["import.other_s"] = imports["other"]
        layers["import.scipy_optimize_s"] = imports["scipy_optimize"]
        layers["process.cpu_s"] = _median([b["cpu_s"] for b in plain])
        traced_wall = _median([b["wall_s"] for b in traced])
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        layers["trace.unattributed_s"] = traced_wall - sum(layers[f"{L}.self_s"] for L in LAYERS)
        record["per_layer"] = layers
        record["accounting"] = {
            "traced_wall_s": traced_wall,
            "layer_self_s_sum": sum(layers[f"{L}.self_s"] for L in LAYERS),
            "jobs_per_batch": len(jobs),
            "bare_start_s": _median(bare),
            "setup_s": e2e["setup_s"],
            "import_s_sum": sum(imports[k] for k in LAYERS) + imports["other"],
        }
    return record


def report(record: dict) -> dict:
    """Print the summary and return the final result object."""
    group, units = (("per_layer", PER_LAYER_UNITS) if record["trace"]
                    else ("end_to_end", E2E_UNITS))
    metrics = {name: {"value": record[group][name], "unit": unit} for name, unit in units.items()}
    att, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"batches {len(record['batches'])}  jobs {att}")
    for name, m in metrics.items():
        v = m["value"]
        print(f"  {name:28s} {v:>16.6f} {m['unit']}" if isinstance(v, float)
              else f"  {name:28s} {v:>9d}        {m['unit']}")
    print(f"  {'failed_frac':28s} {failed / att:>16.6f} ratio  ({failed} of {att} jobs)")
    for i, name, why in record["failures"]:
        print(f"  FAILED batch {i} {name}: {why}")
    if record["trace"]:
        a = record["accounting"]
        print(f"  traced wall {a['traced_wall_s']:.3f} s = layer self {a['layer_self_s_sum']:.3f} s"
              f" + unattributed {a['traced_wall_s'] - a['layer_self_s_sum']:.3f} s"
              f" (includes {a['jobs_per_batch']} x bare start-up {a['bare_start_s']:.3f} s)")
        print(f"  setup_s {a['setup_s']:.3f} s vs import lines {a['import_s_sum']:.3f} s"
              f" + bare start-up {a['bare_start_s']:.3f} s")
    return {"correct": failed == 0, "attempted": att, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
        result = report(record)
    except (SetupError, OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                        f"{int(time.time() * 1000)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(f"result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
