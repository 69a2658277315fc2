import errno
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import reporting, sampling
from dirichletlab import weights as W
from dirichletlab.arithmetic import build_sieve
from dirichletlab.cli import main


# --- reference: the per-value row formatter the column writer replaced ---------


def ref_fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return "%.17g" % x
    return str(x)


def ref_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(ref_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def ref_csv_of_columns(header, cols) -> str:
    return ref_csv(header, zip(*(np.asarray(c).tolist() for c in cols)))


SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1.8e308, -1.8e308, 0.1, 1e16, 1e17, 2.0**53 + 2]
FLOATS = st.one_of(st.floats(width=64), st.sampled_from(SPECIAL_FLOATS))
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 40))
    cols = []
    for kind in draw(st.lists(st.sampled_from("fi"), min_size=1, max_size=4)):
        values = draw(st.lists(FLOATS if kind == "f" else INTS, min_size=n, max_size=n))
        cols.append(np.array(values, dtype=np.float64 if kind == "f" else np.int64))
    return cols


@settings(max_examples=150, deadline=None)
@given(cols=tables(), block=st.integers(1, 8))
def test_write_csv_matches_reference_formatter(cols, block, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    header = [f"c{i}" for i in range(len(cols))]
    with mock.patch.object(reporting, "_CSV_BLOCK", block):
        reporting.write_csv(str(path), header, cols)
    assert path.read_bytes() == ref_csv_of_columns(header, cols).encode()


def test_negative_nan_and_zero_print_as_before(tmp_path):
    col = np.array([-math.nan, -0.0, 5e-324])
    assert np.signbit(col[0])
    reporting.write_csv(str(tmp_path / "t.csv"), ["x"], [col])
    assert (tmp_path / "t.csv").read_text() == "x\nnan\n-0\n4.9406564584124654e-324\n"


@pytest.mark.parametrize("n", [0, 1, 3, 4, 5, 8, 9])
def test_rows_across_block_boundaries(n, tmp_path):
    cols = [np.arange(n), np.linspace(0.0, 1.0, n)]
    with mock.patch.object(reporting, "_CSV_BLOCK", 4):
        reporting.write_csv(str(tmp_path / "t.csv"), ["i", "x"], cols)
    assert (tmp_path / "t.csv").read_text() == ref_csv_of_columns(["i", "x"], cols)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_rows_at_the_real_block_size(extra, tmp_path):
    n = reporting._CSV_BLOCK + extra
    cols = [np.arange(1, n + 1), np.sqrt(np.arange(n, dtype=np.float64))]
    reporting.write_csv(str(tmp_path / "t.csv"), ["n", "r"], cols)
    text = (tmp_path / "t.csv").read_text()
    assert text == ref_csv_of_columns(["n", "r"], cols)
    assert text.count("\n") == n + 1


def test_zero_length_columns_write_the_header_only(tmp_path):
    reporting.write_csv(str(tmp_path / "t.csv"), ["a", "b"],
                        [np.array([], dtype=np.float64), np.array([], dtype=np.int64)])
    assert (tmp_path / "t.csv").read_text() == "a,b\n"


def test_ragged_and_non_numeric_columns_are_rejected(tmp_path):
    path = str(tmp_path / "t.csv")
    with pytest.raises(ValueError, match="ragged"):
        reporting.write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        reporting.write_csv(path, ["a"], [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        reporting.write_csv(path, ["a", "b"], [np.zeros(3)])
    with pytest.raises(TypeError):
        reporting.write_csv(path, ["a"], [np.array(["x", "y"])])
    with pytest.raises(TypeError):
        reporting.write_csv(path, ["a"], [np.array([1.0, None], dtype=object)])
    assert not os.listdir(tmp_path)


def _leftovers(d):
    return [p for p in os.listdir(d) if p.startswith(".tmp-") and p.endswith("~")]


def test_failed_write_keeps_the_earlier_artifact(tmp_path, monkeypatch):
    path = str(tmp_path / "t.csv")
    reporting.write_csv(path, ["x"], [np.arange(3)])
    before = open(path, "rb").read()
    real_fdopen = os.fdopen

    class DiskFull:
        """A file whose third write fails, as on a full disk."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, s):
            self.writes += 1
            if self.writes > 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(s)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

    monkeypatch.setattr(os, "fdopen", lambda *a, **k: DiskFull(real_fdopen(*a, **k)))
    monkeypatch.setattr(reporting, "_CSV_BLOCK", 2)
    with pytest.raises(OSError, match="No space"):
        reporting.write_csv(path, ["x"], [np.arange(10)])
    assert open(path, "rb").read() == before
    assert _leftovers(tmp_path) == []


def test_failed_format_leaves_no_temp_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        reporting.atomic_write_text(str(tmp_path / "t.txt"), "ok\n\ud800")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mask", [0o022, 0o077])
@pytest.mark.parametrize("writer", ["csv", "json", "text"])
def test_artifacts_get_the_umask_mode(mask, writer, tmp_path):
    path = str(tmp_path / "out")
    old = os.umask(mask)
    try:
        if writer == "csv":
            reporting.write_csv(path, ["x"], [np.arange(2)])
        elif writer == "json":
            reporting.write_json(path, {"a": 1})
        else:
            reporting.atomic_write_text(path, "a\n")
        with open(str(tmp_path / "plain"), "w"):
            pass
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~mask
    assert os.stat(path).st_mode & 0o777 == os.stat(str(tmp_path / "plain")).st_mode & 0o777


# --- the bulk CLI dumps equal the reference formatting of the catalog values ---


def test_weights_dump_matches_reference(tmp_path):
    N = 10**4
    out, sums = tmp_path / "w.csv", tmp_path / "ws.csv"
    assert main(["weights", "--name", "mangoldt", "--N", str(N),
                 "--out", str(out), "--sums-out", str(sums)]) == 0
    w = W.catalog("mangoldt", N, table=build_sieve(N))
    S = W.partial_sums(w)
    ns = range(1, N + 1)
    assert out.read_text() == ref_csv(["n", "w_n"], ((n, float(w.w[n])) for n in ns))
    assert sums.read_text() == ref_csv(["n", "S_n"], ((n, float(S[n])) for n in ns))


def test_sampling_atoms_match_reference(tmp_path):
    N = 10**4
    atoms = tmp_path / "a.csv"
    assert main(["sampling", "--name", "mangoldt", "--N", str(N), "--atoms-out", str(atoms),
                 "--out", str(tmp_path / "s.json")]) == 0
    mu = sampling.measure_from_weights(W.catalog("mangoldt", N, table=build_sieve(N)))
    assert atoms.read_text() == ref_csv(["position", "mass"],
                                        zip(mu.positions.tolist(), mu.masses.tolist()))
