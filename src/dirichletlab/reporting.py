"""Deterministic file emission: CSV, JSON, and single-curve SVG.

Every writer goes through one atomic temp+rename (`_atomic_open`): a
failed run leaves no half-written file and keeps any earlier artifact, and
a new file gets the mode a plain ``open(path, "w")`` would give it (0o666
less the umask).  The CSV writer is column-wise and streamed: `write_csv`
takes equal-length 1-D columns, builds one row format from their dtypes
(``%.17g`` for floats, ``%d`` for integers) and formats fixed blocks of rows
straight into the temp file.  Every float is printed with 17 significant
digits ('.' decimal, no locale), so a re-run with the same inputs is
byte-identical and values round-trip exactly through float64.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_json",
    "curve_svg",
]

_CSV_BLOCK = 1 << 16  # rows formatted per write


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that replaces `path` only if the block exits cleanly."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    # mode 0o666 less the umask, as open(path, "w") would create it;
    # tempfile.mkstemp forces 0o600, and os.replace keeps the mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _column_format(col: np.ndarray) -> str:
    if col.dtype.kind == "f":
        return "%.17g"
    if col.dtype.kind in "iu":
        return "%d"
    raise TypeError(f"CSV columns must be float or integer arrays, got dtype {col.dtype}")


def write_csv(path: str, header: Sequence[str], columns: Iterable) -> None:
    """One header line, then row i of the equal-length 1-D `columns` per line."""
    cols = [np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} columns")
    if any(c.ndim != 1 for c in cols):
        raise ValueError("CSV columns must be 1-D")
    n = cols[0].size if cols else 0
    if any(c.size != n for c in cols):
        raise ValueError(f"ragged CSV columns: lengths {[c.size for c in cols]}")
    fmt = ",".join(map(_column_format, cols)) + "\n"
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for a in range(0, n, _CSV_BLOCK):
            rows = zip(*(c[a:a + _CSV_BLOCK].tolist() for c in cols))
            fh.write("".join(map(fmt.__mod__, rows)))


def _jsonable(obj):
    # normalize numpy scalars/containers so json sees plain python types
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return obj.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: str, obj) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
    atomic_write_text(path, text + "\n")


# --- SVG -------------------------------------------------------------------

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 62, 18, 28, 46  # plot margins


def _fmt(v: float) -> str:
    return "%.4f" % v


def curve_svg(
    path: str,
    x: Sequence[float],
    series: Sequence[tuple],
    marks: Sequence[tuple] = (),
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """One plot, several (label, ys, color) polylines, dots at `marks`.

    Static vector output only; consumers are scripts and documents, so the
    file carries no interactivity and is rendered identically on re-runs.
    """
    xs = [float(v) for v in x]
    ally = [float(v) for _, ys, _ in series for v in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ally), max(ally)
    if x1 == x0 or y1 == y0:
        raise ValueError("degenerate axis range")
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * iw

    def py(v):
        return _MT + (y1 - v) / (y1 - y0) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" '
        'stroke="#444" stroke-width="1"/>',
    ]
    # 5 ticks per axis, value labels in the fixed 4-decimal format
    for i in range(5):
        tx = x0 + i * (x1 - x0) / 4
        ty = y0 + i * (y1 - y0) / 4
        out.append(
            f'<line x1="{_fmt(px(tx))}" y1="{_H - _MB}" x2="{_fmt(px(tx))}" '
            f'y2="{_H - _MB + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_fmt(px(tx))}" y="{_H - _MB + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(tx)}</text>'
        )
        out.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(py(ty))}" x2="{_ML}" '
            f'y2="{_fmt(py(ty))}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(py(ty) + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(ty)}</text>'
        )
    for label, ys, color in series:
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for i, (label, ys, color) in enumerate(series):
        out.append(
            f'<text x="{_ML + 10}" y="{_MT + 16 + 15 * i}" font-size="12" '
            f'fill="{color}" font-family="sans-serif">{label}</text>'
        )
    for mx, my, mlabel in marks:
        out.append(
            f'<circle cx="{_fmt(px(mx))}" cy="{_fmt(py(my))}" r="4" '
            'fill="#c0392b"/>'
        )
        out.append(
            f'<text x="{_fmt(px(mx) + 7)}" y="{_fmt(py(my) - 7)}" font-size="11" '
            f'font-family="sans-serif">{mlabel}</text>'
        )
    if title:
        out.append(
            f'<text x="{_W / 2:.1f}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_W / 2:.1f}" y="{_H - 8}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="14" y="{_H / 2:.1f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 14 {_H / 2:.1f})">{ylabel}</text>'
        )
    out.append("</svg>")
    atomic_write_text(path, "\n".join(out) + "\n")
