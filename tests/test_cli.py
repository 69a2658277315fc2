import filecmp
import json
from importlib.resources import files

import numpy as np
import pytest
from jsonschema import validate

from dirichletlab.arithmetic import divisor_count_table
from dirichletlab.cli import main


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
    d = divisor_count_table(100)
    for n_str, w_str in rows:
        assert float(w_str) == float(d[int(n_str)])


def test_weights_usage_errors(tmp_path, capsys):
    assert run("weights", "--N", 100, "--out", tmp_path / "w.csv") == 2
    assert "required" in capsys.readouterr().err
    assert run("weights", "--name", "nonsense", "--N", 100) == 2
    assert run("weights", "--name", "constant", "--N", 1) == 2


MISSING_PARAM_FLAGS = {"log_power": "--alpha-param", "inv_divisor_pow": "--alpha-param",
                       "dgamma": "--gamma", "besov": "--gamma",
                       "kadec": "--blocks", "kadec_spiked": "--blocks"}


@pytest.mark.parametrize("name", sorted(MISSING_PARAM_FLAGS))
def test_missing_family_parameter_is_a_usage_error(name, tmp_path, capsys):
    flag = MISSING_PARAM_FLAGS[name]
    assert run("weights", "--name", name, "--N", 1000, "--out", tmp_path / "w.csv") == 2
    assert flag in capsys.readouterr().err
    # embed builds its weights through catalog directly, not _load_weight
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
])
def test_kernel_rejects_non_finite_parameters(args, named, tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    assert run("kernel", *args, "--out", out) == 2
    assert named in capsys.readouterr().err
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
               "--out-json", out_json, "--out-csv", out_csv) == 1  # off the scale
    assert run("embed", "--name", "constant", "--N-list", "100") == 2  # no alpha


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


def test_sampling_horizon_violation_exits_one(tmp_path):
    assert run("sampling", "--name", "kadec", "--blocks", 50,
               "--r-list", "900", "--out", tmp_path / "s.json") == 1


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


def test_tauberian_log_power_past_alpha_one(tmp_path):
    # expected alpha = 1.5 > 1: the tail needs Gamma(1 - alpha, x) at a negative order
    out = tmp_path / "t.json"
    assert run("tauberian", "--name", "log_power", "--alpha-param", -1.5,
               "--N", 100000, "--out", out) == 0
    blob = json.loads(out.read_text())
    assert not blob["log_singularity"]
    validate(blob, schema("singularity_fit"))


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
    # inf and nan parse as numbers but name no truncation
    for bad in ("inf", "nan", "1e3,inf"):
        assert run("embed", "--name", "constant", "--alpha", 0.0, "--N-list", bad,
                   "--out-csv", tmp_path / "x.csv", "--out-json", tmp_path / "x.json") == 2
        assert "finite" in capsys.readouterr().err
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
