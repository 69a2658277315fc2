"""Deterministic file emission: CSV, JSON, and single-curve SVG.

Every writer goes through one atomic temp+rename (`_atomic_open`): a
failed run leaves no half-written file and keeps any earlier artifact, and
a new file gets the mode a plain ``open(path, "w")`` would give it (0o666
less the umask).  The CSV writer is column-wise and streamed: `write_csv`
takes equal-length 1-D columns and writes fixed blocks of rows straight
into the temp file.  The bytes are exactly those of ``'%.17g' %`` per float
and ``'%d' %`` per integer: 17 significant digits ('.' decimal, no locale),
so a re-run with the same inputs is byte-identical and values round-trip
exactly through float64.

A numpy kernel builds each block's bytes at once.  Floats: the correctly
rounded 17-digit significand comes from a double-double product (Dekker's
TwoProduct) of |x| with 10^(16-k); a value within 1e-6 of a rounding tie,
nan, +-inf, or outside [1e-280, 1e280] takes the ``%`` call instead, one
value at a time.  Digits come four at a time from a table of 0..9999.
Each column gets a fixed-width field per row and a keep mask of the bytes
its %g (or %d) layout shows; one boolean compaction per block yields the
CSV text.  The fields and masks of a file's blocks live in one workspace,
allocated once per file (an integer field is as wide as its column's
largest magnitude), and a run of bit-equal float values is formatted once
and copied down the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from typing import Iterable, Sequence

import numpy as np

_CSV_BLOCK = 1 << 13  # rows per block: the kernel's 8-byte temporaries stay at 64 KB


@contextlib.contextmanager
def _atomic_open(path: str):
    """A binary file that replaces `path` only if the block exits cleanly."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    # mode 0o666 less the umask, as open(path, "w") would create it;
    # tempfile.mkstemp forces 0o600, and os.replace keeps the mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
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
        fh.write(text.encode("utf-8"))


# --- CSV kernel: floats -------------------------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_TIE_MARGIN = 1e-6  # in units of the 17th digit: closer to a tie goes to %
_FAST_LO, _FAST_HI = 1e-280, 1e280  # every double-double product stays normal here
_U = np.uint64
_POW10 = np.array([10**j for j in range(20)], np.uint64)


@functools.lru_cache(maxsize=None)
def _pow10_dd(p: int) -> tuple:
    """10^p as a double-double (hi, lo): hi correctly rounded, lo the rounded rest."""
    if p >= 0:
        e = 10**p
        hi = float(e)
        return hi, float(e - int(hi))
    q = 10**-p
    hi = 1 / q  # int / int is correctly rounded
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


def _split(a: np.ndarray) -> tuple:
    c = a * _SPLIT
    ah = c - (c - a)
    return ah, a - ah


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple:
    """a * 10^(16 - k) as a double-double (hi, lo), by Dekker's TwoProduct."""
    p = 16 - k
    p0 = int(p.min())
    ph, pl = np.array([_pow10_dd(q) for q in range(p0, int(p.max()) + 1)]).T
    ph, pl = np.take(ph, p - p0), np.take(pl, p - p0)
    hi = a * ph
    ah, al = _split(a)
    bh, bl = _split(ph)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl + a * pl


def _significand17(a: np.ndarray) -> tuple:
    """(D, X, ok): D * 10^(X - 16) is the 17-digit correct rounding of each a
    in [1e-280, 1e280], 10^16 <= D < 10^17, unless ok is False: a lies within
    _TIE_MARGIN of a rounding tie, where D may be off by one."""
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    # log10 can miss the decade next to a power of ten: both tests read the
    # first estimate, and each value moves at most once, to k - 1 or k + 1
    for step, wrong in ((-1, (hi - 1e16) + lo < 0.0), (1, (hi - 1e17) + lo >= 0.0)):
        j = np.flatnonzero(wrong)
        if j.size:
            k[j] += step
            hi[j], lo[j] = _scaled(a[j], k[j])
    r = np.rint(hi)
    f = (hi - r) + lo  # hi - r is exact (Sterbenz)
    g = np.rint(f)
    ok = np.abs(f - g) < 0.5 - _TIE_MARGIN
    D = (r.astype(np.int64) + g.astype(np.int64)).astype(np.uint64)
    top = D == 10**17  # rounded up into the next decade
    D[top] = 10**16
    k[top] += 1
    ok &= (D >= 10**16) & (D < 10**17)
    return D, k, ok


@functools.lru_cache(maxsize=None)
def _digit_table() -> np.ndarray:
    """The 4 ASCII digits of 0..9999 as one uint32 each, in memory order."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), np.uint8)
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs
    return quads.view(np.uint32).ravel()


def _digits(v: np.ndarray, groups: int) -> np.ndarray:
    """(n, 4 * groups) ASCII digits of each uint64 v < 10^(4 * groups), leading zeros kept."""
    table = _digit_table()
    out = np.empty((v.size, groups), np.uint32)
    for g in range(groups - 1, 0, -1):
        q = v // _U(10000)
        out[:, g] = np.take(table, v - q * _U(10000))
        v = q
    out[:, 0] = np.take(table, v)
    return out.view(np.uint8)


def _decimal_trailing_zeros(v: np.ndarray) -> np.ndarray:
    """How many times 10 divides each positive uint64 v < 10^17."""
    t = np.zeros(v.size, np.int64)
    for s in (16, 8, 4, 2, 1):
        p = _U(10**s)
        q = v // p
        hit = q * p == v
        v = np.where(hit, q, v)
        t += s * hit
    return t


# A float field is _F_WIDTH bytes before its separator:
#   sign | lead (5) | A (17) | '.' | B (16) | e (1), exponent sign (1), 3 digits
# The 17 digits D of the value split at the decimal point: A holds the
# integer part right-aligned and B the fraction left-aligned, so the shown
# "A tail . B head" is one run of bytes whatever the point's place.  Layout
# classes, by the decimal exponent X of the rounded value:
#   0..16      fixed form, X >= 0: X + 1 digits in A, the rest in B;
#   17 + z     fixed form "0." + z zeros + D, X = -1 - z, z = 0..3: the
#              "0." and zeros are the tail of the lead, D is all in A;
#   21, 22     exponent form, X < -4 or X > 16: one digit in A, 16 in B,
#              then "e+dd" (21) or "e+ddd" (22).
# Only the trailing zeros of the fraction are dropped, as %g drops them.
_LEAD, _A, _DOT, _B, _E = 1, 6, 23, 24, 40
_F_WIDTH = 45
_SMALL, _EXP = 17, 21
_X_MAX = 300  # lead and exponent bytes are tabulated for |X| <= _X_MAX


@functools.lru_cache(maxsize=None)
def _float_tables() -> tuple:
    """(keep, xbytes): keep[18 * layout class + shown digits] is a float
    field's keep mask, sign aside; xbytes[X + _X_MAX] its lead and exponent."""
    keep = np.zeros((23, 18, _F_WIDTH), bool)
    for thr in range(1, 18):
        for X in range(17):
            keep[X, thr, _A + 16 - X:_DOT] = True
            keep[X, thr, _DOT:_B + thr - X - 1] = thr > X + 1
        for z in range(4):
            keep[_SMALL + z, thr, _LEAD + 3 - z:_A + thr] = True
        for c, e in ((_EXP, 2), (_EXP + 1, 3)):
            keep[c, thr, _DOT - 1] = True
            keep[c, thr, _DOT:_B + thr - 1] = thr > 1
            keep[c, thr, _E:_E + 2] = True
            keep[c, thr, _E + 5 - e:_E + 5] = True
    text = "".join(("0" * (4 + X) + "0." + "0" * (-1 - X) if -4 <= X < 0 else "00000")
                   + "e%+04d" % X for X in range(-_X_MAX, _X_MAX + 1))
    xbytes = np.frombuffer(text.encode(), np.uint8).reshape(2 * _X_MAX + 1, 10)
    return keep.reshape(23 * 18, _F_WIDTH), xbytes


def _float_rows(a: np.ndarray, buf: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Fill buf's rows with the %.17g bytes of each a in [1e-280, 1e280] and
    keep with the bytes shown, sign aside; return False where a needs %."""
    D, X, ok = _significand17(a)
    m = np.full(a.size, 17)  # digits left after the trailing zeros
    j = np.flatnonzero(D // _U(10) * _U(10) == D)  # uint64 % costs twice //
    m[j] -= _decimal_trailing_zeros(D[j])
    expo = (X < -4) | (X > 16)
    small = ~expo & (X < 0)
    cls = np.where(expo, _EXP + (np.abs(X) >= 100), np.where(small, _SMALL - 1 - X, X))
    thr = np.where(expo | small, m, np.maximum(m, X + 1))  # digits 0..thr-1 are shown
    split = np.where(expo, 0, np.where(small, 16, X))  # digits 0..split go to A
    unit = _POW10[16 - split]
    L = D // unit
    keep_table, xbytes = _float_tables()

    na = min(len(str(int(L.max()))), 17)  # A's slots that can hold a shown digit
    buf[:, _DOT - na:_DOT] = _digits(L, -(-na // 4))[:, -na:]
    buf[:, _DOT] = ord(".")
    buf[:, _B:_E] = _digits((D - L * unit) * _POW10[split], 4)
    if (expo | small).any():
        xb = np.take(xbytes, X + _X_MAX, axis=0)
        buf[:, _LEAD:_A] = xb[:, :5]
        buf[:, _E:] = xb[:, 5:]
    keep[:] = np.take(keep_table, 18 * cls + thr, axis=0)
    return ok


def _float_values(x: np.ndarray, buf: np.ndarray, keep: np.ndarray) -> None:
    """Fill buf's rows (_F_WIDTH wide) with %.17g of the float64 x and keep with the bytes shown."""
    ax = np.abs(x)
    fast = (ax >= _FAST_LO) & (ax <= _FAST_HI)
    slow = ~fast & (ax != 0.0)  # nan, inf, and the outskirts of the range
    rows = np.flatnonzero(fast)
    # zeros print as "0" or "-0"; a column of mostly zeros formats only the rest
    buf[:, _DOT - 1] = ord("0")
    keep[:] = False
    keep[:, _DOT - 1] = True
    if rows.size == x.size:
        slow[~_float_rows(ax, buf, keep)] = True
    elif rows.size:
        b = np.empty((rows.size, _F_WIDTH), np.uint8)
        k = np.empty(b.shape, bool)
        slow[rows[~_float_rows(ax[rows], b, k)]] = True
        buf[rows] = b
        keep[rows] = k
    buf[:, 0] = ord("-")
    keep[:, 0] = np.signbit(x)

    rows = np.flatnonzero(slow)
    if rows.size:  # the % fallback, one value at a time
        text = ["%.17g" % v for v in x[rows].tolist()]
        buf[rows] = np.array(text, dtype=f"S{_F_WIDTH}").view(np.uint8).reshape(rows.size, -1)
        keep[rows] = np.arange(_F_WIDTH) < np.array([len(s) for s in text])[:, None]


def _float_field(x: np.ndarray, buf: np.ndarray, keep: np.ndarray) -> None:
    """Fill buf's rows (_F_WIDTH wide) with %.17g of x and keep with the bytes shown.

    A run of bit-equal consecutive values (S_n between the weights' support)
    is formatted once and its row copied down the run; bits, not ==, so that
    -0.0 and 0.0 and the nan payloads stay apart.  A zero costs next to
    nothing on its own path, so a block takes the runs only when they
    format at most half of its nonzero values.  Per 8192-row block on a
    2-vCPU Xeon: a formatted nonzero value costs ~110 ns, finding the runs
    ~7 ns a row and copying ~14 ns a row, so runs win while they format
    up to ~80 % of a column without zeros; half leaves the margin for
    columns with zeros, where the copy is paid on every row.
    """
    x = x.astype(np.float64, copy=False)
    bits = x.view(np.int64)
    head = np.empty(x.size, bool)  # the first row of each run
    head[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=head[1:])
    nonzero = x != 0.0
    if 2 * np.count_nonzero(head & nonzero) > np.count_nonzero(nonzero):
        _float_values(x, buf, keep)
        return
    b = np.empty((np.count_nonzero(head), _F_WIDTH), np.uint8)
    k = np.empty(b.shape, bool)
    _float_values(x[head], b, k)
    run = np.cumsum(head) - 1
    row = f"V{_F_WIDTH}"  # a field as one item: np.take copies it whole
    for src, dst in ((b, buf), (k, keep)):
        dst.view(row)[:, 0] = np.take(src.view(row)[:, 0], run)


# --- CSV kernel: integers and blocks --------------------------------------------


def _field_width(c) -> int:
    """Bytes of a column's field: _F_WIDTH for floats; for integers a sign
    slot and the digits of the column's largest magnitude, so that every
    block of the column fits (a block's unused leading slots are hidden)."""
    if isinstance(c, range):
        ends = [c[0], c[-1]] if len(c) else [0]
    elif c.dtype.kind == "f":
        return _F_WIDTH
    else:
        ends = [int(c.min()), int(c.max())] if c.size else [0]
    return 1 + len(str(max(abs(e) for e in ends)))


@functools.lru_cache(maxsize=None)
def _int_keep_table(nd: int) -> np.ndarray:
    """Row d: which of nd right-aligned digit slots a d-digit integer shows."""
    return np.arange(nd) >= nd - np.arange(nd + 1)[:, None]


def _int_field(v: np.ndarray, nd: int, buf: np.ndarray, keep: np.ndarray) -> None:
    """Fill buf's rows (sign, then nd digit slots) with %d of v and keep with the bytes shown."""
    if v.dtype.kind == "u":
        mag = v.astype(np.uint64)
        neg = np.zeros(v.size, bool)
    else:
        v = v.astype(np.int64, copy=False)
        neg = v < 0
        mag = v.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)  # two's complement: exact down to -2^63
    ndig = np.searchsorted(_POW10[1:], mag, side="right") + 1
    buf[:, 0] = ord("-")
    buf[:, 1:] = _digits(mag, -(-nd // 4))[:, -nd:]
    keep[:, 0] = neg
    row = f"V{nd}"  # a mask as one item: np.take copies it whole
    keep[:, 1:].view(row)[:, 0] = np.take(_int_keep_table(nd).view(row)[:, 0], ndig)


def _csv_block(cols: list, widths: list, buf: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The CSV bytes of one block of rows, as a uint8 array, formatted in
    buf and keep: one row per CSV row, the fields `widths` wide."""
    a = 0
    for c, w in zip(cols, widths):
        if c.dtype.kind == "f":
            _float_field(c, buf[:, a:a + w], keep[:, a:a + w])
        else:
            _int_field(c, w - 1, buf[:, a:a + w], keep[:, a:a + w])
        buf[:, a + w] = ord(",")
        keep[:, a + w] = True
        a += w + 1
    buf[:, -1] = ord("\n")
    return buf[keep]


def write_csv(path: str, header: Sequence[str], columns: Iterable) -> None:
    """One header line, then row i of the equal-length 1-D `columns` per line.

    A column may be a range, written as int64 one block at a time and never
    built whole.  The blocks of _CSV_BLOCK rows are formatted in one
    workspace, allocated once per file; an integer field is as wide as the
    column's largest magnitude needs.
    """
    cols = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} columns")
    arrays = [c for c in cols if not isinstance(c, range)]
    if any(c.ndim != 1 for c in arrays):
        raise ValueError("CSV columns must be 1-D")
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError(f"ragged CSV columns: lengths {[len(c) for c in cols]}")
    for c in arrays:
        if c.dtype.kind not in "fiu":
            raise TypeError(f"CSV columns must be float or integer arrays, got dtype {c.dtype}")
    widths = [_field_width(c) for c in cols]
    buf = np.empty((min(n, _CSV_BLOCK), sum(widths) + len(cols)), np.uint8)
    keep = np.empty(buf.shape, bool)
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for a in range(0, n, _CSV_BLOCK):
            m = min(_CSV_BLOCK, n - a)
            fh.write(_csv_block([_rows(c[a:a + m]) for c in cols], widths, buf[:m], keep[:m]))


def _rows(block):
    if isinstance(block, range):
        return np.arange(block.start, block.stop, block.step, dtype=np.int64)
    return block


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
