import filecmp
import json
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

import dirichletlab
from dirichletlab import accum, cli
from dirichletlab import tauberian as T
from dirichletlab import weights as W
from dirichletlab.arithmetic import divisor_count_segments
from dirichletlab.cli import main
from dirichletlab.errors import RangeError
from dirichletlab.zeta import prime_zeta


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def schema(name):
    p = files("dirichletlab").joinpath("schemas", f"{name}.schema.json")
    return json.loads(p.read_text())


def test_weights_default_sums_name_splits_the_file_name_only(tmp_path):
    d = tmp_path / "out.d"
    d.mkdir()
    assert run("weights", "--name", "constant", "--N", 100, "--out", d / "weights") == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.d"]
    assert sorted(p.name for p in d.iterdir()) == ["weights", "weights_sums"]
    _, rows = read_csv(d / "weights_sums")
    assert rows[-1] == ["100", "100"]


def test_weights_divisor_row_count(tmp_path):
    out = tmp_path / "w.csv"
    assert run("weights", "--name", "divisor", "--N", 1000, "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["n", "w_n"]
    assert len(rows) == 1000
    sums = tmp_path / "w_sums.csv"  # derived default name
    _, srows = read_csv(sums)
    assert len(srows) == 1000
    assert float(srows[-1][1]) == sum(float(r[1]) for r in rows)


def test_weights_dgamma_two_is_divisor_count(tmp_path):
    out = tmp_path / "w.csv"
    assert run("weights", "--name", "dgamma", "--gamma", 2, "--N", 100,
               "--out", out, "--sums-out", tmp_path / "s.csv") == 0
    _, rows = read_csv(out)
    d = np.concatenate(list(divisor_count_segments(100)))
    for n_str, w_str in rows:
        assert float(w_str) == float(d[int(n_str)])


def test_weights_usage_errors(tmp_path, capsys):
    assert run("weights", "--N", 100, "--out", tmp_path / "w.csv") == 2
    assert "required" in capsys.readouterr().err
    assert run("weights", "--name", "nonsense", "--N", 100) == 2
    assert run("weights", "--name", "constant", "--N", 1) == 2
    assert run("weights", "--name", "constant", "--N", "inf") == 2


@pytest.mark.parametrize("name, n", [("mccarthy", "1e11"), ("constant", "1e12")])
def test_weights_past_the_budget_is_a_compute_error(name, n, tmp_path, capsys, monkeypatch):
    # the whole table is refused before any N-length array is allocated
    monkeypatch.chdir(tmp_path)
    assert run("weights", "--name", name, "--N", n, "--out", "w.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error:") and err.count("\n") == 1 and "budget" in err
    assert list(tmp_path.iterdir()) == []


def test_sampling_past_the_budget_is_a_compute_error(tmp_path, capsys, monkeypatch):
    # the measure never builds w, so it checks the budget itself, before any
    # N-length array or pass over the weights
    monkeypatch.chdir(tmp_path)
    assert run("sampling", "--name", "constant", "--N", "1e12", "--out", "s.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error:") and err.count("\n") == 1
    assert f"exceeds the budget {W.DEFAULT_BUDGET}" in err
    assert list(tmp_path.iterdir()) == []


def test_sampling_on_segments_off_the_cut_is_a_compute_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    build = W.BUILDERS["constant"]

    def short(limit, params):  # the first segment one entry short
        segs = build(limit, params)
        yield next(segs)[:-1]
        yield from segs

    monkeypatch.setitem(W.BUILDERS, "constant", short)
    assert run("sampling", "--name", "constant", "--N", "12288", "--out", "s.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error:") and err.count("\n") == 1
    assert "the segment at 0 has 4095 entries, not 4096" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (("fit", "--name", "dgamma", "--gamma=-1", "--N", "1000", "--out", "f.json"), "gamma > 0"),
    (("fit", "--name", "kadec", "--blocks", "12", "--N", "1000", "--out", "f.json"),
     "block count 12"),
    (("sampling", "--name", "kadec_spiked", "--blocks", "40", "--N", "1e5",
      "--out", "s.json"), "k=36"),
    # kadec's atoms come without a catalog sequence, and their block count is checked too
    (("sampling", "--name", "kadec", "--blocks", "0", "--out", "s.json"), "at least one block"),
    (("tauberian", "--name", "inv_divisor_pow", "--alpha-param", "0", "--N", "1000",
      "--out", "t.json"), "alpha > 0"),
    (("weights", "--name", "nonsense", "--N", "100"), "unknown weight family 'nonsense'"),
    # every N is checked before the first row is computed
    (("embed", "--name", "kadec", "--blocks", "8", "--alpha", "0", "--N-list", "5000,1000",
      "--out-csv", "e.csv", "--out-json", "e.json"), "block count 8"),
])
def test_catalog_input_errors_are_usage_errors(argv, named, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and named in err
    assert list(tmp_path.iterdir()) == []


MISSING_PARAM_FLAGS = {"log_power": "--alpha-param", "inv_divisor_pow": "--alpha-param",
                       "dgamma": "--gamma", "besov": "--gamma",
                       "kadec": "--blocks", "kadec_spiked": "--blocks"}


@pytest.mark.parametrize("name", sorted(MISSING_PARAM_FLAGS))
def test_missing_family_parameter_is_a_usage_error(name, tmp_path, capsys):
    flag = MISSING_PARAM_FLAGS[name]
    assert run("weights", "--name", name, "--N", 1000, "--out", tmp_path / "w.csv") == 2
    assert flag in capsys.readouterr().err
    # embed checks each --N-list entry where the other commands check --N
    assert run("embed", "--name", name, "--alpha", 0, "--N-list", "1000",
               "--out-csv", tmp_path / "e.csv", "--out-json", tmp_path / "e.json") == 2
    assert flag in capsys.readouterr().err
    assert run("tauberian", "--name", name, "--N", 1000, "--out", tmp_path / "t.json") == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_fit_constant_alpha_near_zero(tmp_path):
    out = tmp_path / "fit.json"
    assert run("--config", "/dev/null/nope", "fit") == 2  # unreadable config
    assert run("fit", "--name", "constant", "--N", 100000, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert abs(blob["alpha_hat"]) <= 0.05
    assert blob["weight"]["name"] == "constant"
    validate(blob, schema("asymptotic_fit"))


def test_fit_degenerate_grids(tmp_path):
    args = ("fit", "--name", "constant", "--N", 100000, "--out", tmp_path / "f.json")
    assert run(*args, "--grid-points", 2) == 2
    assert run(*args, "--grid-lo", 2e4) == 2  # spans < 2 decades
    assert run(*args, "--grid-hi", 2e5) == 2  # past the truncation


def test_fit_inv_divisor_band(tmp_path):
    # the 10^7 run the acceptance table quotes; ~10 s dominated by d(n)
    out = tmp_path / "fit.json"
    assert run("fit", "--name", "inv_divisor_pow", "--alpha-param", 1.0,
               "--N", 1e7, "--grid-lo", 1e4, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert 0.35 <= blob["alpha_hat"] <= 0.65
    validate(blob, schema("asymptotic_fit"))


def test_sums_constant_columns(tmp_path):
    out = tmp_path / "sums.csv"
    assert run("sums", "--name", "constant", "--N", 10000, "--points", 12,
               "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["x", "S", "ratio"]  # expected_alpha known -> ratio column
    for x_str, s_str, _ in rows:
        assert float(s_str) == float(int(float(x_str)))  # S(x) = x here


def test_zeta_abscissas_report(tmp_path):
    out = tmp_path / "abscissas.json"
    assert run("zeta", "--what", "abscissas", "--cross-check-N", 1e4,
               "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["rho_residual"] <= 1e-9
    assert blob["rho1_residual"] <= 1e-9
    assert blob["rho"] == pytest.approx(1.3994333287263299, abs=1e-9)
    assert blob["rho1"] == pytest.approx(1.728647238998184, abs=1e-9)
    assert blob["cross_check_gap"] <= 1e-5  # measured 2.76e-6 at N=1e4
    validate(blob, schema("abscissa_report"))


@pytest.mark.parametrize("N", [10**5, 3 * 4096])
@pytest.mark.parametrize("s", [1.5, 2.0, 3.25])
def test_streamed_prime_sum_is_the_sum_over_the_concatenated_primes(N, s, monkeypatch):
    # 4096-entry segments hold a few hundred primes each: the cross-check's
    # direct sum over them is fsum's over all the primes, bit for bit
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    primes = np.flatnonzero(W.catalog("prime_indicator", N).w)
    got = accum.exact_sum(cli._prime_powers(N, -s))
    assert got.hex() == math.fsum(primes.astype(np.float64) ** -s).hex()


def test_zeta_cross_check_gap_is_the_closed_direct_sum(tmp_path):
    out = tmp_path / "abscissas.json"
    N, s = 10**4, 1.5
    assert run("zeta", "--what", "abscissas", "--cross-check-N", N, "--out", out) == 0
    primes = np.flatnonzero(W.catalog("prime_indicator", N).w)
    L = math.log(N)
    tail = T.log_power_tail(s - 1.0, L, 1.0) - 0.5 * T.log_power_tail(s - 0.5, L, 1.0)
    direct = math.fsum(primes.astype(np.float64) ** -s)
    blob = json.loads(out.read_text())
    assert blob["cross_check_sigma"] == s
    assert blob["cross_check_gap"] == abs(direct + tail - prime_zeta(s).real)


def test_prime_powers_refuse_masks_off_the_cut(monkeypatch):
    monkeypatch.setattr(accum, "_SEGMENT", 4096)
    sieve = cli.prime_segments

    def short(limit):  # the first mask one entry short
        masks = sieve(limit)
        yield next(masks)[:-1]
        yield from masks

    monkeypatch.setattr(cli, "prime_segments", short)
    with pytest.raises(RangeError, match="the segment at 0 has 4095 entries, not 4096"):
        list(cli._prime_powers(3 * 4096, -2.0))


@pytest.mark.parametrize("args, named", [
    (("--cross-check-N", "inf"), "--cross-check-N"),
    (("--cross-check-N", "nan"), "--cross-check-N"),
    (("--cross-check-N", "1"), "--cross-check-N"),
    (("--cross-check-N", "1000", "--sigma", "1"), "--sigma"),
    (("--cross-check-N", "1000", "--sigma", "0.5"), "--sigma"),
    (("--cross-check-N", "1000", "--sigma", "nan"), "--sigma"),
])
def test_zeta_cross_check_input_is_a_usage_error(args, named, tmp_path, capsys):
    out = tmp_path / "z.json"
    assert run("zeta", *args, "--out", out) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_zeta_grid_csv(tmp_path):
    from dirichletlab.zeta import zeta

    out = tmp_path / "zeta.csv"
    assert run("zeta", "--what", "grid", "--sigma-lo", 1.2, "--sigma-hi", 3.0,
               "--points", 10, "--out", out) == 0
    _, rows = read_csv(out)
    assert len(rows) == 10
    for s_str, z_str, _ in rows:
        assert float(z_str) == pytest.approx(zeta(float(s_str)).real, rel=1e-12)
    assert run("zeta", "--what", "grid", "--sigma-lo", 0.9) == 2
    with pytest.raises(SystemExit) as exc:  # argparse rejects the choice itself
        run("zeta", "--what", "everything")
    assert exc.value.code == 2


def test_kernel_csv_roundtrips_values(tmp_path):
    from dirichletlab.zeta import KernelSpec, kernel_eval

    out = tmp_path / "kernel.csv"
    assert run("kernel", "--family", "dalpha", "--param", -1, "--anchor-re", 1,
               "--points", 20, "--out", out) == 0
    spec = KernelSpec(family="dalpha", param=-1.0, anchor=1.0 + 0.0j)
    _, rows = read_csv(out)
    for s_str, t_str, re_str, im_str in rows:
        v = kernel_eval(spec, complex(float(s_str), float(t_str)))
        assert float(re_str) == v.real and float(im_str) == v.imag  # %.17g exact
    assert run("kernel", "--family", "unheard-of", "--out", out) == 2


@pytest.mark.parametrize("args, named", [
    (("--family", "dalpha", "--param", "nan"), "param"),
    (("--family", "dalpha", "--param=-inf"), "param"),
    (("--family", "zeta_power", "--param", "nan"), "param"),
    (("--family", "log_zeta", "--anchor-re", "nan"), "anchor"),
    (("--sigma-hi", "inf"), "--sigma-hi"),
    (("--sigma-lo=-inf",), "--sigma-lo"),
])
def test_kernel_rejects_non_finite_parameters(args, named, tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    assert run("kernel", *args, "--out", out) == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1  # no numpy warning before the error line
    assert not out.exists()


@pytest.mark.parametrize("args, named", [
    (("--sigma-lo", "-0.5"), "sigma=-0.5"),
    (("--t", "nan"), "t=nan"),
    (("--family", "besov", "--param", "1", "--sigma-lo", "0.2"), "sigma=0.2"),
])
def test_kernel_grid_outside_the_region_is_a_usage_error(args, named, tmp_path, capsys):
    # the grid is the user's input: exit 2 before any kernel value is computed
    out = tmp_path / "kernel.csv"
    assert run("kernel", *args, "--out", out) == 2
    err = capsys.readouterr().err
    assert named in err and "outside the kernel's region" in err
    assert not out.exists()


def test_embed_report(tmp_path):
    out_json = tmp_path / "embed.json"
    out_csv = tmp_path / "embed.csv"
    assert run("embed", "--name", "constant", "--alpha", 0.0,
               "--N-list", "100,1000", "--family", "blocks",
               "--out-json", out_json, "--out-csv", out_csv) == 0
    blob = json.loads(out_json.read_text())
    assert [r["N"] for r in blob["rows"]] == [100, 1000]
    assert all(r["constant_estimate"] > 0 for r in blob["rows"])
    validate(blob, schema("embed_report"))
    assert run("embed", "--name", "constant", "--alpha", 1.5,
               "--N-list", "1000", "--family", "blocks",
               "--out-json", out_json, "--out-csv", out_csv) == 0
    validate(json.loads(out_json.read_text()), schema("embed_report"))
    assert run("embed", "--name", "constant", "--alpha", 2.0, "--N-list", "100",
               "--out-json", out_json, "--out-csv", out_csv) == 2  # off the scale
    assert run("embed", "--name", "constant", "--N-list", "100") == 2  # no alpha


@pytest.mark.parametrize("kind, family", [
    ("blocks", {"kind": "blocks", "size": None, "seed": None}),  # --size does not apply
    ("random", {"kind": "random", "size": 3, "seed": 5}),
])
def test_embed_report_family_fields(kind, family, tmp_path):
    out_json = tmp_path / "embed.json"
    assert run("embed", "--name", "constant", "--alpha", -0.5, "--N-list", "300",
               "--family", kind, "--size", 3, "--seed", 5,
               "--out-json", out_json, "--out-csv", tmp_path / "embed.csv") == 0
    blob = json.loads(out_json.read_text())
    validate(blob, schema("embed_report"))
    assert blob["family"] == family
    assert blob["rows"][0]["family_size"] == (5 if kind == "blocks" else 3)


@pytest.mark.parametrize("argv, named", [
    (("embed", "--name", "constant", "--alpha", "0", "--a", "1", "--b", "0"), "a < b"),
    (("embed", "--name", "constant", "--alpha", "0", "--sigma-cap", "0.4"), "sigma_cap"),
    (("embed", "--name", "constant", "--alpha", "3"), "--alpha"),
    (("embed", "--name", "constant", "--alpha", "nan"), "--alpha"),
    (("embed", "--name", "constant", "--alpha=-inf"), "--alpha"),
    (("embed", "--name", "constant", "--alpha", "0", "--family", "random", "--size", "0"),
     "--size"),
    (("sums", "--name", "constant", "--N", "1000", "--eta", "1.5"), "--eta"),
    (("sums", "--name", "constant", "--N", "1000", "--eta", "nan"), "--eta"),
    (("embed", "--name", "constant", "--alpha=-1100", "--N-list", "100"), "-1100"),
    (("embed", "--name", "constant", "--alpha=-1e308", "--N-list", "100"), "-1e+308"),
    # the sigma rule's weights (V/2)^(-alpha) underflow: the estimate would read 0
    (("embed", "--name", "constant", "--alpha=-700", "--N-list", "100"), "--sigma-cap"),
    (("embed", "--name", "constant", "--alpha=-1000", "--N-list", "100"), "alpha = -1000"),
    (("embed", "--name", "constant", "--alpha=-600", "--sigma-cap", "0.75", "--N-list", "100"),
     "sigma_cap = 0.75"),
    # sampling's thresholds and window lengths are finite and positive, beta finite
    (("sampling", "--name", "constant", "--N", "1000", "--eps", "nan"), "--eps"),
    (("sampling", "--name", "constant", "--N", "1000", "--eps", "inf"), "--eps"),
    (("sampling", "--name", "constant", "--N", "1000", "--eps", "0"), "--eps"),
    (("sampling", "--name", "constant", "--N", "1000", "--beta", "nan"), "--beta"),
    (("sampling", "--name", "constant", "--N", "1000", "--beta", "inf"), "--beta"),
    (("sampling", "--name", "constant", "--N", "1000", "--r-list", "nan"), "--r-list"),
    (("sampling", "--name", "constant", "--N", "1000", "--r-list", "0"), "--r-list"),
    (("sampling", "--name", "constant", "--N", "1000", "--lambda-r", "nan"), "--lambda-r"),
    (("sampling", "--name", "constant", "--N", "1000", "--lambda-r=-1"), "--lambda-r"),
    (("sampling", "--name", "constant", "--N", "1000", "--lambda-r", "1",
      "--lambda-delta", "nan"), "--lambda-delta"),
    (("sampling", "--name", "kadec", "--blocks", "50", "--eps", "nan"), "--eps"),
    # grid ends and sums inputs that are not finite, or lie past N
    (("zeta", "--what", "grid", "--sigma-hi", "inf"), "--sigma-hi"),
    (("curves", "--alpha-hi", "inf"), "--alpha-hi"),
    (("curves", "--alpha-lo=-inf"), "--alpha-lo"),
    (("tauberian", "--name", "constant", "--N", "1e4", "--u-hi", "inf"), "--u-hi"),
    (("embed", "--name", "constant", "--alpha", "0", "--sigma-cap", "inf"), "sigma_cap"),
    (("sums", "--name", "constant", "--N", "1e4", "--ratio-alpha", "nan"), "--ratio-alpha"),
    (("sums", "--name", "constant", "--N", "1e4", "--lo", "inf"), "--lo"),
    (("sums", "--name", "constant", "--N", "1e4", "--lo", "1e9"), "--lo"),
    (("sums", "--name", "constant", "--N", "1e4", "--lo", "nan"), "--lo"),
    (("embed", "--name", "constant", "--alpha", "0", "--family", "random", "--seed=-1",
      "--N-list", "100"), "--seed"),
])
def test_embed_and_sums_input_is_a_usage_error(argv, named, tmp_path, capsys, monkeypatch):
    # the input is the user's: exit 2 before any weight is built or file written
    built = []
    monkeypatch.setattr(W, "catalog", lambda *a, **k: built.append(a))
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert built == [] and list(tmp_path.iterdir()) == []


def test_embed_alpha_deep_on_the_scale_still_runs(tmp_path):
    # 2^900, the sigma rule's mass scale at alpha = -900, is a finite float64,
    # and at sigma_cap = 2.5 the factor (V/2)^(-alpha) is 1, so no weight underflows
    assert run("embed", "--name", "constant", "--alpha=-900", "--sigma-cap", "2.5",
               "--N-list", "100", "--out-csv", tmp_path / "e.csv",
               "--out-json", tmp_path / "e.json") == 0
    row = json.loads((tmp_path / "e.json").read_text())["rows"][0]
    assert math.isfinite(row["constant_estimate"]) and row["constant_estimate"] > 0.0


@pytest.mark.parametrize("argv, named", [
    (("fit", "--name", "kadec_spiked", "--blocks", "5", "--N", "1e5", "--out", "f.json"),
     "x = 1000"),
    (("sums", "--name", "kadec_spiked", "--blocks", "5", "--N", "1e5", "--eta", "0.5",
      "--out", "s.csv"), "x = 1441"),
    (("embed", "--name", "kadec_spiked", "--blocks", "6", "--alpha", "0.5", "--family",
      "blocks", "--N-list", "700"), "N = 700"),
    (("embed", "--name", "kadec_spiked", "--blocks", "6", "--alpha", "0", "--family",
      "blocks", "--N-list", "700"), "N = 700"),
])
def test_overflowing_partial_sums_are_a_compute_error(argv, named, tmp_path, capsys,
                                                      monkeypatch):
    # the e^n spikes overflow S(x) or a member's norms to inf: a fit through
    # it, a block sum inf - inf or a ratio inf / inf has no value, so the
    # command refuses instead of writing nan
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error:") and err.count("\n") == 1
    assert named in err
    assert list(tmp_path.iterdir()) == []


def test_sampling_constant_report(tmp_path):
    out = tmp_path / "sampling.json"
    assert run("sampling", "--name", "constant", "--N", 1000, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["atom_count"] == 1000
    assert blob["carleson"]["c_hat"] == 1.5  # window [0,1): masses 1 + 1/2
    assert 0.9 <= blob["carleson"]["c_hat"] <= 1.6
    assert blob["density"]["extrapolated"] > 0.5
    validate(blob, schema("density_report"))


def test_sampling_kadec_report(tmp_path):
    out = tmp_path / "sampling.json"
    assert run("sampling", "--name", "kadec", "--blocks", 50, "--r-list", 10,
               "--lambda-r", 1.0, "--eps", 0.5, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert blob["kadec_max_deviation"] <= 0.2
    assert blob["density"]["extrapolated"] >= 0.85  # 9 atoms per open 10-window
    assert not blob["continuity"]["passed"]  # unit atoms block eps = 0.5
    assert blob["continuity"]["radius"] is None
    assert blob["lambda_points"]
    validate(blob, schema("density_report"))


def _cli_process(tmp_path, *argv):
    """The CLI in a fresh process, so numpy's warnings reach its stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dirichletlab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "dirichletlab.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path)


@pytest.mark.parametrize("argv", [("--name", "constant", "--N", "1000", "--beta=-400"),
                                  ("--name", "kadec", "--blocks", "40", "--beta=-200")])
def test_sampling_beta_past_the_float64_range_is_a_compute_error(argv, tmp_path):
    # (1 + x^2)^beta underflows to 0, so C_hat is inf or nan: one error line
    # naming beta, no numpy warning and no file
    out = _cli_process(tmp_path, "sampling", *argv, "--out", "s.json")
    assert out.returncode == 1
    assert out.stderr.startswith("compute error:") and out.stderr.count("\n") == 1
    assert f"beta = {float(argv[-1].split('=')[1])}" in out.stderr
    assert list(tmp_path.iterdir()) == []


def test_sampling_large_beta_runs_without_warnings(tmp_path):
    # (1 + x^2)^400 overflows to inf far out: the windows there read 0, as before
    out = _cli_process(tmp_path, "sampling", "--name", "constant", "--N", "1000", "--beta", "400",
                       "--lambda-r", "1", "--out", "s.json")
    assert out.returncode == 0 and out.stderr == ""
    blob = json.loads((tmp_path / "s.json").read_text())
    w = W.catalog("constant", 1000)
    pos = np.log(np.arange(1.0, 1001.0))
    cum = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, 1001.0))])
    with np.errstate(over="ignore"):
        anchors = pos[pos <= math.log(w.limit) - 1.0]
        hi = np.searchsorted(pos, anchors + 1.0, side="left")
        q = (cum[hi] - cum[: anchors.size]) / (1.0 + anchors**2) ** 400.0
        ks = np.arange(0.0, math.floor(math.log(1000)))
        mass = cum[np.searchsorted(pos, ks + 1.0)] - cum[np.searchsorted(pos, ks)]
        lam = ks[mass >= 0.5 * (1.0 + ks**2) ** 400.0]
    assert blob["carleson"]["c_hat"] == pytest.approx(q.max(), rel=1e-14)
    assert blob["carleson"]["worst_xi"] == anchors[np.argmax(q)]
    assert blob["lambda_points"] == lam.tolist()


def test_tauberian_u_lo_below_the_resolution_of_sigma0_is_a_usage_error(tmp_path, capsys,
                                                                        monkeypatch):
    # sigma0 + 1e-17 rounds to sigma0: refused before prescan reads any weight
    from dirichletlab import accum
    scans = []
    monkeypatch.setattr(accum, "scan", lambda *a, **k: scans.append(a))
    monkeypatch.chdir(tmp_path)
    assert run("tauberian", "--name", "constant", "--N", "1e4", "--u-lo", "1e-17",
               "--out", "t.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "--u-lo" in err
    assert scans == [] and list(tmp_path.iterdir()) == []


def test_sampling_horizon_violation_exits_one(tmp_path):
    assert run("sampling", "--name", "kadec", "--blocks", 50,
               "--r-list", "900", "--out", tmp_path / "s.json") == 1


def test_tauberian_non_finite_profile_exits_one(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("tauberian", "--name", "kadec_spiked", "--blocks", 6, "--N", 100000,
               "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error:") and "not finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_tauberian_report(tmp_path):
    out = tmp_path / "t.json"
    cmp_out = tmp_path / "t.csv"
    assert run("tauberian", "--name", "constant", "--N", 100000,
               "--out", out, "--compare-out", cmp_out) == 0
    blob = json.loads(out.read_text())
    assert blob["sigma0"] == 1.0
    assert not blob["log_singularity"]
    assert abs(blob["abscissa_hat"] - 1.0) <= 0.01
    validate(blob, schema("singularity_fit"))
    _, rows = read_csv(cmp_out)
    assert len(rows) == 9
    ratios = [float(r[3]) for r in rows]
    assert all(0.9 <= v <= 1.1 for v in ratios)
    assert run("tauberian", "--name", "constant", "--N", 100000,
               "--points", 3, "--out", out) == 2


def test_tauberian_profiles_no_point_past_the_fit_cap(tmp_path, capsys, monkeypatch):
    # fit_singularity reads u <= _U_CAP only: a grid to u = 10^4 used to narrow
    # every moment block for s_max = 10^4 and run for seconds; the profile
    # now stops at the cap and the fit fails as it did, on the same points
    read, profiled = W.read, []
    monkeypatch.setattr(W, "read", lambda w, xs, s_max=None: profiled.append(s_max)
                        or read(w, xs, s_max))
    assert run("tauberian", "--name", "constant", "--N", "1e5", "--u-hi", "1e4",
               "--out", tmp_path / "t.json") == 1
    assert capsys.readouterr().err == "compute error: only 4 usable profile points; need 5\n"
    assert max(s for s in profiled if s is not None) <= 1.0 + T._U_CAP
    # a grid wholly past the cap fails before any weight is read
    profiled.clear()
    assert run("tauberian", "--name", "constant", "--N", "1e5", "--u-lo", "1.3", "--u-hi", "3",
               "--out", tmp_path / "t.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("compute error: only 0 profile points") and profiled == []


@pytest.mark.parametrize("u_hi", ["1.5", "100"])
def test_tauberian_fit_is_the_one_of_the_whole_grid(u_hi, tmp_path, monkeypatch):
    # the capped grid writes the bytes the whole grid wrote
    argv = lambda d: ("tauberian", "--name", "mangoldt", "--N", 10**5, "--u-hi", u_hi,
                      "--out", d / "t.json", "--compare-out", d / "t.csv")
    for d in ("capped", "whole"):
        (tmp_path / d).mkdir()
    assert run(*argv(tmp_path / "capped")) == 0
    monkeypatch.setattr(T, "fit_grid", lambda sigmas, sigma0: sigmas)
    assert run(*argv(tmp_path / "whole")) == 0
    for f in ("t.json", "t.csv"):
        assert filecmp.cmp(tmp_path / "capped" / f, tmp_path / "whole" / f, shallow=False), f


def test_tauberian_log_power_past_alpha_one(tmp_path):
    # expected alpha = 1.5 > 1: the tail needs Gamma(1 - alpha, x) at a negative order
    out = tmp_path / "t.json"
    assert run("tauberian", "--name", "log_power", "--alpha-param", -1.5,
               "--N", 100000, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert not blob["log_singularity"]
    validate(blob, schema("singularity_fit"))


@pytest.mark.parametrize("name", ["divisor", "mangoldt", "prime_indicator"])
def test_tauberian_streamed_equals_whole_array(name, tmp_path, monkeypatch):
    # the job streams its weights; with the catalog array built first it reads
    # views of that array instead, and both write the same bytes
    argv = lambda d: ("tauberian", "--name", name, "--N", 10**6,
                      "--out", d / "t.json", "--compare-out", d / "t.csv")
    made, catalog = [], W.catalog

    def spy(*a, **k):
        made.append(catalog(*a, **k))
        return made[-1]

    def built(*a, **k):
        w = catalog(*a, **k)
        w.w  # the whole array, concatenated from the segments
        return w

    for d in ("s", "w"):
        (tmp_path / d).mkdir()
    monkeypatch.setattr(W, "catalog", spy)
    assert run(*argv(tmp_path / "s")) == 0
    assert made[0]._w is None  # no N-length weight array was built
    monkeypatch.setattr(W, "catalog", built)
    assert run(*argv(tmp_path / "w")) == 0
    for f in ("t.json", "t.csv"):
        assert filecmp.cmp(tmp_path / "s" / f, tmp_path / "w" / f, shallow=False), f


_PEAK_RSS = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "dirichletlab.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_tauberian_memory_does_not_grow_with_n(tmp_path):
    # a child's ru_maxrss counts the process it was forked from, so each job
    # is forked from a small launcher, never from this test process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dirichletlab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    for weight in (("divisor",), ("dgamma", "--gamma", "1.5"), ("constant",),
                   ("log_power", "--alpha-param", "1")):
        peak = {}
        for n in (10**6, 8 * 10**6):  # at 1e5 the divisor fit refuses its short window
            out = subprocess.run(
                [sys.executable, "-c", _PEAK_RSS, "tauberian", "--name", *weight, "--N", str(n),
                 "--out", str(tmp_path / f"t{n}.json")],
                capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
            code, kb = map(int, out.stdout.split())
            assert code == 0
            peak[n] = kb / 1024.0
        # one float64 array of 8e6 entries is 61 MB; the whole-array divisor job
        # grew by 114 MB, the dgamma job on its spf table by 117 MB, the
        # whole-array log_power job by 160 MB and the constant one by 57 MB
        assert peak[8 * 10**6] - peak[10**6] < 64.0, (weight, peak)


def test_curves_values_and_marks(tmp_path):
    csv = tmp_path / "curves.csv"
    svg = tmp_path / "curves.svg"
    assert run("curves", "--csv", csv, "--svg", svg) == 0
    _, rows = read_csv(csv)
    grid = {float(a): float(v) for a, v, _ in rows}
    assert grid[0.0] == 0.0  # crosses the identity
    assert grid[-1.0] == -1.0  # and again here
    vals = [float(v) for _, v, _ in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))  # monotone in alpha
    assert vals[-1] < 1.0  # asymptote from below
    text = svg.read_text()
    assert text.startswith("<svg") and "alpha = -1" in text
    assert run("curves", "--alpha-lo", 0.5, "--csv", csv, "--svg", svg) == 2


def test_config_section_and_flag_precedence(tmp_path):
    assert run("fit", "--name", "constant", "--N", "1e5", "--grid-points", "12",
               "--out", tmp_path / "flags.json") == 0
    cfg = tmp_path / "cfg.json"
    # config values are parsed by the flag's type: strings give the flags' artifact
    for n, points in ((100000, 12), ("1e5", "12")):
        cfg.write_text(json.dumps({
            "fit": {"name": "constant", "N": n, "grid-points": points,
                    "out": str(tmp_path / "a.json")}
        }))
        assert run("--config", cfg, "fit") == 0
        assert len(json.loads((tmp_path / "a.json").read_text())["grid"]) == 12
        assert filecmp.cmp(tmp_path / "a.json", tmp_path / "flags.json", shallow=False)
    # a flag beats the file
    assert run("--config", cfg, "fit", "--grid-points", 10,
               "--out", tmp_path / "b.json") == 0
    assert len(json.loads((tmp_path / "b.json").read_text())["grid"]) == 10


def test_config_flat_form(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"name": "constant", "N": 1000,
                               "out": str(tmp_path / "w.csv")}))
    assert run("--config", cfg, "weights") == 0
    assert (tmp_path / "w.csv").exists()
    cfg.write_text("[1, 2]")
    assert run("--config", cfg, "weights") == 2


@pytest.mark.parametrize("command, section, key", [
    ("embed", {"name": "constant", "alpha": 0, "N_list": "100", "family": "blockz"}, "family"),
    ("zeta", {"what": "x"}, "what"),
])
def test_config_value_outside_the_choices_exits_two(command, section, key, tmp_path, capsys,
                                                    monkeypatch):
    # a config value meets its flag's choices, as the same value given as a flag does
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: section}))
    assert run("--config", cfg, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config value") and f"{key}=" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_malformed_value_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit": {"name": "constant", "N": 100000,
                                       "grid_points": "abc"}}))
    assert run("--config", cfg, "fit", "--out", tmp_path / "f.json") == 2
    assert "grid_points" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_list_flags_parse_by_either_route(tmp_path, capsys):
    # a malformed item is a usage error from a flag and from the config alike
    for argv in (("embed", "--name", "constant", "--alpha", 0.0, "--N-list", "1e3,abc",
                  "--out-csv", tmp_path / "x.csv", "--out-json", tmp_path / "x.json"),
                 ("sampling", "--name", "kadec", "--r-list", "1,x",
                  "--out", tmp_path / "x.json")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "list" in capsys.readouterr().err
    # inf, nan and entries below 2 parse as numbers but name no truncation:
    # --N's message, before any file is written
    for bad, why in (("inf", "finite"), ("nan", "finite"), ("1e3,inf", "finite"),
                     ("1", ">= 2"), ("0.5", ">= 2"), ("100,1", ">= 2")):
        assert run("embed", "--name", "constant", "--alpha", 0.0, "--N-list", bad,
                   "--out-csv", tmp_path / "x.csv", "--out-json", tmp_path / "x.json") == 2
        assert f"--N must be {why}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()
    cfg = tmp_path / "opts.json"
    cfg.write_text(json.dumps({"embed": {"N_list": ["abc"]}}))
    assert run("--config", cfg, "embed", "--name", "constant", "--alpha", 0.0) == 2
    assert "N_list" in capsys.readouterr().err
    # "1e3" means N = 1000 by either route
    base = ("embed", "--name", "constant", "--alpha", 0.0, "--family", "blocks")
    assert run(*base, "--N-list", "1e3", "--out-json", tmp_path / "flag.json",
               "--out-csv", tmp_path / "flag.csv") == 0
    cfg.write_text(json.dumps({"embed": {"N_list": ["1e3"]}}))
    assert run("--config", cfg, *base, "--out-json", tmp_path / "cfg.json",
               "--out-csv", tmp_path / "cfg.csv") == 0
    assert filecmp.cmp(tmp_path / "flag.json", tmp_path / "cfg.json", shallow=False)
    assert [r["N"] for r in json.loads((tmp_path / "cfg.json").read_text())["rows"]] == [1000]


def _rerun_identical(tmp_path, name, argv_of):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    assert run(*argv_of(d1)) == 0
    assert run(*argv_of(d2)) == 0
    for f1 in sorted(d1.iterdir()):
        f2 = d2 / f1.name
        assert filecmp.cmp(f1, f2, shallow=False), f"{name}: {f1.name} differs"


RERUNS = {
    "weights": lambda d: ("weights", "--name", "divisor", "--N", 500,
                          "--out", d / "w.csv", "--sums-out", d / "s.csv"),
    "fit": lambda d: ("fit", "--name", "constant", "--N", 100000,
                      "--out", d / "fit.json"),
    "zeta": lambda d: ("zeta", "--cross-check-N", 1e4, "--out", d / "z.json"),
    "kernel": lambda d: ("kernel", "--points", 16, "--out", d / "k.csv"),
    "embed": lambda d: ("embed", "--name", "constant", "--alpha", 0.0,
                        "--N-list", "100,300", "--family", "random",
                        "--size", 16, "--seed", 20260817,
                        "--out-csv", d / "e.csv", "--out-json", d / "e.json"),
    # past the 4096-term head, so the local norms come from block moments
    "embed_blocks": lambda d: ("embed", "--name", "divisor", "--alpha", 0.5,
                               "--N-list", 20000, "--family", "blocks",
                               "--out-csv", d / "e.csv", "--out-json", d / "e.json"),
    "sampling": lambda d: ("sampling", "--name", "kadec", "--blocks", 30,
                           "--lambda-r", 1.0, "--out", d / "s.json"),
    "tauberian": lambda d: ("tauberian", "--name", "constant", "--N", 100000,
                            "--out", d / "t.json", "--compare-out", d / "t.csv"),
    "curves": lambda d: ("curves", "--csv", d / "c.csv", "--svg", d / "c.svg"),
}


@pytest.mark.parametrize("name", sorted(RERUNS))
def test_rerun_byte_for_byte(name, tmp_path):
    _rerun_identical(tmp_path, name, RERUNS[name])
