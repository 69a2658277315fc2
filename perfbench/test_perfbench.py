"""Tests of the benchmark itself (not part of the package's test gate).

    python3 -m pytest perfbench -q

They run every workload at the TINY sizes, so they take a couple of minutes.
"""

import json
import os
import subprocess
import sys

import pytest

import oracles
import run
import workloads as W


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, capsys):
    record = run.measure(workload, seed=3, seconds=0.0, trace=trace, sizes=W.TINY)
    result = run.report(record)
    out = capsys.readouterr().out
    group = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in out.splitlines()), m["name"]
    assert "failed_frac" in out
    assert result["failed"] == 0 and result["correct"], record["failures"]
    assert result["attempted"] == len(W.jobs(workload, 3, W.TINY)) * (2 if trace else 1)


def _corrupt_json(key, factor):
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        target = blob["rows"][0] if "rows" in blob else blob
        target[key] = target[key] * factor + (0.5 if factor == 1 else 0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
    return corrupt


def _corrupt_csv_row(row):
    def corrupt(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        n, v = lines[row].split(",")
        lines[row] = f"{n},{float(v) + 1e-6}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
    return corrupt


CORRUPTIONS = {
    "profile_1e7": ("tauberian_divisor", "tau_divisor.json", _corrupt_json("beta_hat", 1)),
    "embed_1e5": ("embed_sup_l2", "emb_sup_l2.json", _corrupt_json("constant_estimate", 1.01)),
    "tables_io": ("weights_dump", "ws.csv", _corrupt_csv_row(-2)),
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_corrupted_artifact_raises_failed_frac(workload, monkeypatch, capsys):
    job_name, artifact, corrupt = CORRUPTIONS[workload]
    real = run.run_process

    def run_then_corrupt(cmd, cwd, log, deadline):
        r = real(cmd, cwd, log, deadline)
        if os.path.basename(log) == f"{job_name}.log":
            corrupt(os.path.join(cwd, artifact))
        return r

    monkeypatch.setattr(run, "run_process", run_then_corrupt)
    result = run.report(run.measure(workload, seed=5, seconds=0.0, trace=0, sizes=W.TINY))
    out = capsys.readouterr().out
    assert result["failed"] == 1 and not result["correct"]
    frac = next(line for line in out.splitlines() if line.split()[:1] == ["failed_frac"])
    assert float(frac.split()[1]) > 0.0
    assert f"FAILED batch 0 {job_name}" in out


def test_cross_module_bindings_are_traced(tmp_path):
    """accum time called from tauberian and sampling lands in accum, not the caller."""
    spans = {}
    for tag, argv in (("tau", ["tauberian", "--name", "constant", "--N", "100000"]),
                      ("smp", ["sampling", "--name", "constant", "--N", "10000"])):
        out = tmp_path / f"{tag}.json"
        subprocess.run([sys.executable, os.path.join(run.HERE, "tracer.py"), str(out), tag,
                        "--", *argv, "--out", str(tmp_path / f"{tag}.out.json")],
                       cwd=tmp_path, env=run._env(), check=True, timeout=120)
        rec = json.loads(out.read_text())
        names = {s[0]: s[2] for s in rec["spans"]}
        spans[tag] = {(names.get(s[1]), s[2]) for s in rec["spans"]}
        assert all(s[4] >= s[3] for s in rec["spans"])
    assert ("tauberian.mellin_profile", "accum.compensated_sum") in spans["tau"]
    assert ("tauberian.mellin_profile", "zeta._envelope_constant") in spans["tau"]
    assert ("tauberian.detect_abscissa", "weights.sum_upto") in spans["tau"]
    assert ("sampling.measure_from_weights", "accum.compensated_cumsum") in spans["smp"]
    assert (None, "weights.<import>") in spans["tau"]


def test_importtime_folds_into_layers():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |       numpy",
        "import time:        10 |         60 |     dirichletlab.arithmetic",
        "import time:        30 |         30 |         scipy.optimize._minpack",
        "import time:        20 |         50 |       scipy.optimize._optimize",
        "import time:         5 |         55 |     dirichletlab.zeta",
        "import time:         1 |        116 |   dirichletlab",
        "import time:         4 |        120 | dirichletlab.cli",
    ])
    got = run.parse_importtime(text)
    assert got["arithmetic"] == pytest.approx(60e-6)
    assert got["zeta"] == pytest.approx(55e-6)
    assert got["cli"] == pytest.approx(5e-6)  # the package __init__ is nested under cli
    assert got["other"] == pytest.approx(100e-6)
    assert got["scipy_optimize"] == pytest.approx(50e-6)


def test_oracles_agree_with_closed_forms():
    assert oracles.divisor_summatory(10) == 27  # d(1..10) = 1,2,2,3,2,4,2,4,3,4
    assert oracles.chebyshev_psi([10], 10)[0] == pytest.approx(
        3 * 0.6931471805599453 + 2 * 1.0986122886681098 + 1.6094379124341003
        + 1.9459101090932196)
    assert oracles.mangoldt_by_trial_division(27) == pytest.approx(1.0986122886681098)
    assert oracles.mangoldt_by_trial_division(12) == 0.0
    assert oracles.harmonic_number(1000) == pytest.approx(
        sum(1.0 / n for n in range(1, 1001)), rel=1e-15)
