import errno
import math
import os
import tracemalloc
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirichletlab import reporting, sampling
from dirichletlab import weights as W
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


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_a_range_column_writes_as_its_int64_array(n, tmp_path):
    x = np.linspace(0.0, 1.0, n)
    with mock.patch.object(reporting, "_CSV_BLOCK", 4):
        reporting.write_csv(str(tmp_path / "r.csv"), ["n", "x"], [range(1, n + 1), x])
        reporting.write_csv(str(tmp_path / "a.csv"), ["n", "x"], [np.arange(1, n + 1), x])
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    with pytest.raises(ValueError, match="ragged"):
        reporting.write_csv(str(tmp_path / "t.csv"), ["n", "x"], [range(n + 1), x])


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
    w = W.catalog("mangoldt", N)
    S = W.partial_sums(w)
    ns = range(1, N + 1)
    assert out.read_text() == ref_csv(["n", "w_n"], ((n, float(w.w[n])) for n in ns))
    assert sums.read_text() == ref_csv(["n", "S_n"], ((n, float(S[n])) for n in ns))


def test_the_weights_dump_builds_no_row_number_array(tmp_path):
    # w and its prefix sums are 2.0 arrays of 2^19 float64 and the block work
    # the rest (2.80 in all); an int64 column of the row numbers read 3.80
    n = 2**19
    tracemalloc.start()
    try:
        assert main(["weights", "--name", "constant", "--N", str(n),
                     "--out", str(tmp_path / "w.csv"), "--sums-out", str(tmp_path / "s.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert peak < 3.25


def test_sampling_atoms_match_reference(tmp_path):
    N = 10**4
    atoms = tmp_path / "a.csv"
    assert main(["sampling", "--name", "mangoldt", "--N", str(N), "--atoms-out", str(atoms),
                 "--out", str(tmp_path / "s.json")]) == 0
    mu = sampling.measure_from_weights(W.catalog("mangoldt", N))
    assert atoms.read_text() == ref_csv(["position", "mass"],
                                        zip(mu.positions.tolist(), mu.masses.tolist()))


def test_a_two_column_dump_holds_one_block_of_work(tmp_path):
    # the sampling --atoms-out shape at 2^19 rows, each block's work fixed in
    # size: the traced peak read 1.70 arrays of 2^19 float64 with 2^14-row
    # blocks and 0.86 with 2^13
    n = 2**19
    mu = sampling.measure_from_weights(W.catalog("constant", n))
    tracemalloc.start()
    try:
        reporting.write_csv(str(tmp_path / "a.csv"), ["position", "mass"],
                            [mu.positions, mu.masses])
        peak = tracemalloc.get_traced_memory()[1] / (8 * n)
    finally:
        tracemalloc.stop()
    assert peak < 1.25


# --- the vectorised digit kernel prints exactly what % prints ------------------


def percent_csv(header, cols) -> bytes:
    """The CSV that one '%.17g' or '%d' per value writes."""
    fmts = ["%.17g" if c.dtype.kind == "f" else "%d" for c in cols]
    lines = [",".join(header)]
    for row in zip(*(c.tolist() for c in cols)):
        lines.append(",".join(f % v for f, v in zip(fmts, row)))
    return ("\n".join(lines) + "\n").encode()


def assert_prints_as_percent(tmp_path, *cols):
    header = [f"c{i}" for i in range(len(cols))]
    path = tmp_path / "t.csv"
    reporting.write_csv(str(path), header, cols)
    got, want = path.read_bytes().split(b"\n"), percent_csv(header, cols).split(b"\n")
    # name the first differing row, not a megabyte diff
    bad = next(((a, b) for a, b in zip(got, want) if a != b), None)
    assert bad is None, f"wrote {bad[0]!r} where % prints {bad[1]!r}"
    assert len(got) == len(want)


def test_kernel_on_a_million_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_prints_as_percent(tmp_path, bits.view(np.float64))


def test_kernel_next_to_the_powers_of_ten(tmp_path):
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    up1, down1 = np.nextafter(p, np.inf), np.nextafter(p, 0.0)
    up2, down2 = np.nextafter(up1, np.inf), np.nextafter(down1, 0.0)
    x = np.concatenate([p, up1, up2, down1, down2])
    assert_prints_as_percent(tmp_path, np.concatenate([x, -x]))


def exact_ties():
    """Doubles N / 2^q whose exact decimal expansion has 18 significant digits,
    the last a 5: the 17-digit rounding of each is a tie, broken to even."""
    rng = np.random.default_rng(7)
    out = []
    for q in range(1, 57):
        lo, hi = -(-10**17 // 5**q), (10**18 - 1) // 5**q
        hi = min(hi, 2**53 - 1)
        if lo > hi:
            continue
        for N in rng.integers(lo, hi + 1, 60).tolist():
            N |= 1
            if N <= hi:
                out.append(N / 2**q)
    return np.unique(out)


def test_kernel_on_exact_ties_of_the_eighteenth_digit(tmp_path):
    x = exact_ties()
    assert x.size > 1000
    for v in x[::25]:  # exactly 18 significant digits, the last a 5: ties
        digits = Decimal(float(v)).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    x = np.concatenate([x, -x, np.nextafter(x, np.inf), np.nextafter(x, 0.0)])
    assert_prints_as_percent(tmp_path, x)


def test_kernel_on_special_values(tmp_path):
    tiny = np.float64(5e-324)
    x = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, tiny, -tiny,
                  2.2250738585072009e-308, 2.2250738585072014e-308, -2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e-280, 1e280,
                  np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
                  0.5, 1.0, 1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 2.0**53 + 2])
    subnormals = np.arange(1, 2000, dtype=np.uint64).view(np.float64) * 7.0
    assert_prints_as_percent(tmp_path, np.concatenate([x, subnormals, -subnormals]))


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8, np.int16])
def test_kernel_on_integer_extremes(dtype, tmp_path):
    info = np.iinfo(dtype)
    edges = {info.min, info.min + 1, info.max, info.max - 1, 0, 1, 9, 10, 99, 100}
    edges |= {s * 10**k + d for k in range(20) for s in (-1, 1) for d in (-1, 0, 1)}
    v = np.array(sorted(e for e in edges if info.min <= e <= info.max), dtype=dtype)
    assert_prints_as_percent(tmp_path, v, v[::-1].copy())


def test_kernel_on_a_mostly_zero_column_beside_the_row_number(tmp_path):
    # the shape of the mangoldt dump: n, then log p at prime powers and 0 elsewhere
    n = np.arange(1, 3 * reporting._CSV_BLOCK + 7)
    w = np.where(n % 11 == 0, np.log(n.astype(np.float64)), 0.0)
    w[5] = -0.0
    assert_prints_as_percent(tmp_path, n, w)


# --- one workspace per file, one format per run of equal values -----------------


def test_runs_across_block_edges_print_as_percent(tmp_path):
    # runs of every kind, cut by 5-row blocks anywhere along them, and a
    # short last block: -0.0 beside 0.0, nan payloads, %-fallback values
    nan2 = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    values = [0.25, -0.0, 0.0, math.nan, nan2, -math.nan, 5e-324, 1e-300, math.inf,
              -math.inf, 1.7976931348623157e308, 0.1, 0.1 + 2**-56, 3.0]
    lengths = [7, 3, 4, 6, 2, 5, 9, 4, 3, 1, 6, 11, 2, 8]
    x = np.repeat(np.array(values), lengths)
    assert x.size % 5 and np.unique(x.view(np.int64)).size == len(values)
    with mock.patch.object(reporting, "_CSV_BLOCK", 5):
        assert_prints_as_percent(tmp_path, x, np.arange(x.size))
    assert_prints_as_percent(tmp_path, x)


def test_a_run_is_formatted_once(tmp_path, monkeypatch):
    # a step function (S_n between primes) formats one value per run
    x = np.repeat(np.cumsum(np.log(np.arange(2.0, 40.0))), 25)
    formatted = []
    values = reporting._float_values
    monkeypatch.setattr(reporting, "_float_values",
                        lambda v, *a: formatted.append(v.size) or values(v, *a))
    assert_prints_as_percent(tmp_path, x)
    assert sum(formatted) == 38


def test_an_int_field_that_widens_between_blocks(tmp_path):
    # the field is sized for the whole column; narrower blocks hide the slots
    v = np.array([1, -2, 3, 4, 10**12, -5, 6, 7, 8, 9, -(2**63), 0, 2**63 - 1], np.int64)
    with mock.patch.object(reporting, "_CSV_BLOCK", 4):
        assert_prints_as_percent(tmp_path, v, v.astype(np.float64))
        assert_prints_as_percent(tmp_path, np.arange(1, 6, dtype=np.uint64), -np.arange(5))
    r = tmp_path / "r.csv"
    with mock.patch.object(reporting, "_CSV_BLOCK", 3):
        reporting.write_csv(str(r), ["n", "m"], [range(-7, 12, 3), range(99, 92, -1)])
    assert r.read_bytes() == percent_csv(["n", "m"], [np.arange(-7, 12, 3),
                                                      np.arange(99, 92, -1)])


def test_the_blocks_of_a_file_share_one_workspace(tmp_path, monkeypatch):
    seen = []
    block = reporting._csv_block

    def spy(cols, widths, buf, keep):
        seen.append((buf.shape[0], buf.ctypes.data, keep.ctypes.data))
        return block(cols, widths, buf, keep)

    monkeypatch.setattr(reporting, "_csv_block", spy)
    n = 3 * reporting._CSV_BLOCK + 5
    reporting.write_csv(str(tmp_path / "t.csv"), ["n", "x"],
                        [range(1, n + 1), np.sqrt(np.arange(n, dtype=np.float64))])
    assert [rows for rows, _, _ in seen] == [reporting._CSV_BLOCK] * 3 + [5]
    assert len({(b, k) for _, b, k in seen}) == 1
