"""The one reader behind every CSV file the package reads, and the block
writer behind its long text bodies.

A table is one header line, compared with spaces removed, then one data
row per line; blank lines and lines starting with ``#`` are skipped.  Each
field converts by its column's type letter, under the rules of ``float()``
and ``int()``: ``s`` text, ``i`` integer, ``f`` float.  Float fields must be
finite.  The reader takes :data:`BLOCK_ROWS` lines at a time from its
stream and converts their rows together; only a block that fails is
converted again row by row, to find and word its bad rows.  So it holds one
block of lines, one (rows, floats) array of the float columns and one array
per other column, never the whole text, and a table with bad rows is read in
the memory of a clean one.  Callers take their float columns as views of
that one array.

The writer emits exactly the bytes of ``row % (label, *fields)``, with the
fields formatted as arrays, :data:`BLOCK_VALUES` at a time; Python's ``%``
formats only the values :func:`_format_g` cannot prove.
"""

from __future__ import annotations

import re
from itertools import compress, cycle, islice

import numpy as np

from .errors import ValidationError

#: A row's problem code indexes this tuple: 0 is a good row, the others are
#: the row problems in per-row precedence order.
PROBLEMS = ("", "expected {} columns, got {}", "non-numeric field",
            "non-finite field")

#: Lines the reader takes from its stream at a time, so it holds one block
#: of lines and fields, not the whole text.
BLOCK_ROWS = 512

#: Values a writer formats at a time (at least one row), so it holds one
#: block of text, not the whole body.
BLOCK_VALUES = 4096

#: The relative error bound of a ``longdouble`` rounding, which sets the tie
#: margin of :func:`_format_g`: where ``longdouble`` is ``double``, more
#: values fall back to Python's ``%`` and none is formatted differently.
_TIE_EPS = np.finfo(np.longdouble).eps

#: Byte i of "0.000" leads a fixed-notation value of exponent e <= _LEAD_E[i].
_LEAD_E = np.array([[-1], [-1], [-2], [-3], [-4]])
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None]

_DTYPES = {"s": object, "i": np.int64}  # "f" columns convert together


def _convert(lines: list[str], types: str) -> list[np.ndarray]:
    """The (rows, floats) block of the float fields of ``lines``, one row
    each, then every other column; raises ``ValueError`` or
    ``OverflowError`` if a field does not convert."""
    fields = ",".join(lines).split(",") if lines else []
    floats = list(compress(fields, cycle([t == "f" for t in types])))
    return [np.array(floats, dtype=float).reshape(-1, types.count("f")),
            *(np.array(fields[j::len(types)], dtype=_DTYPES[t])
              for j, t in enumerate(types) if t != "f")]


def read_table(file, header: str, types: str, what: str, error=ValidationError):
    """Read the table of ``file`` whose header must be ``header``.

    A wrong header raises ``error``, naming the file kind ``what``; nothing
    else raises.  Returns ``(columns, problem, explain)``: the (rows, floats)
    block of the ``f`` columns in their order, then one array per other
    column (a bad row holds placeholder fields); each row's problem code
    (see :data:`PROBLEMS`); and a function mapping row indices to ``(file
    line, problem text)`` pairs, with empty text for a good row.  The file
    is read :data:`BLOCK_ROWS` lines at a time and no line is kept:
    ``explain`` reads the rows' line numbers from an array.
    """
    got = file.readline().strip().replace(" ", "")
    if got != header:
        raise error(f"{what}: expected header {header!r}, got {got!r}")
    width, filler = len(types), ",".join("0" * len(types))
    blocks, start = [], 2  # per block: its columns, comma counts, problems, lines
    while True:
        rows = list(map(str.strip, islice(file, BLOCK_ROWS)))
        numbers, start = np.arange(start, start + len(rows)), start + len(rows)
        last = len(rows) < BLOCK_ROWS
        if min(rows, default="$") < "$":  # blank and "#" lines sort below "$"
            keep = [s != "" and s[0] != "#" for s in rows]
            rows, numbers = list(compress(rows, keep)), numbers[keep]
        count = np.array([s.count(",") for s in rows], dtype=np.int64) + 1
        problem = (count != width).astype(np.int8)
        if problem.any():
            rows = [filler if p else s for s, p in zip(rows, problem.tolist())]
        try:
            parts = _convert(rows, types)
        except (ValueError, OverflowError):  # again row by row: a row that
            for r, s in enumerate(rows):     # fails gets problem 2 and zeros
                try:
                    _convert([s], types)
                except (ValueError, OverflowError):
                    problem[r], rows[r] = 2, filler
            parts = _convert(rows, types)
        blocks.append((*parts, count, problem, numbers))
        if last:
            break
    # Joined column by column, each column's blocks freed once it is joined.
    blocks = list(zip(*blocks))
    *columns, count, problem, numbers = (
        np.concatenate(blocks.pop(0)) for _ in range(len(blocks)))
    problem[(problem == 0) & ~np.all(np.isfinite(columns[0]), axis=1)] = 3

    def explain(rows):
        return [(n, PROBLEMS[problem[r]].format(width, count[r]))
                for n, r in zip(numbers[rows].tolist(), rows)]

    return columns, problem, explain


def _format_g(v: np.ndarray, p: int) -> np.ndarray:
    """The bytes of ``"%.{p}g" % x`` for the floats ``x`` of ``v``, NUL-padded
    in the columns of a (p + 7, len(v)) uint8 array.  |x| times an exact
    power of ten rounds, in ``longdouble``, to the p digits of fixed notation.
    Python's ``%`` formats the rest: non-finite values, exponents e < -4 or
    e >= p, a ``log10`` exponent estimate that was off or a rounding carry
    (the scaled value falls outside [10**(p-1), 10**p)), and values on a
    rounding tie, or within ``10**p * _TIE_EPS`` of one if that exceeds 1/2."""
    pow10 = np.full(p + 4, 10, np.longdouble).cumprod() / 10
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    e[a == 0] = 0
    fixed = (e >= -4) & (e < p)
    e = np.where(fixed, e, 0).astype(np.int64)
    s = np.where(fixed, a, 0).astype(np.longdouble) * pow10[p - 1 - e]
    n = np.rint(s)
    # Up to 1/2 every tie is a longdouble, which the rounding of s may reach, never cross.
    margin = pow10[p] * _TIE_EPS if pow10[p] * _TIE_EPS > 0.5 else 0
    ok = (fixed & ((s >= pow10[p - 1]) | (a == 0)) & (n < pow10[p])
          & (np.abs((s - n).astype(float)) < 0.5 - margin))
    n, q = np.where(ok, n, 0).astype(np.uint64), np.empty(len(v), np.uint64)
    del a, s
    digits = np.empty((p, len(v)), np.uint8)
    for j in range(p - 1, -1, -1):
        np.floor_divide(n, 10, out=q)
        np.subtract(n, q * 10, out=digits[j], casting="unsafe")
        n, q = q, n
    c = np.arange(p + 1)[:, None]
    # Digits up to the last nonzero one.  A uint8 counts them: above p = 18
    # every value falls back, and its digits are zeros.
    kept = ((digits != 0) * c[1:].astype(np.uint8)).max(axis=0)
    digits += 48
    digits *= c[:p] < np.maximum(kept, e + 1)
    out = np.zeros((p + 7, len(v)), np.uint8)
    out[0] = np.signbit(v) * ord("-")
    out[1:6] = (e <= _LEAD_E) * _LEAD
    out[7:] = digits  # digit j in row 7 + j, after the point,
    whole = out[6:6 + p]  # or in row 6 + j, before it
    whole += (digits - whole) * (c[:p] <= e)
    dot = out[6:]
    dot += ((kept > e + 1) * np.uint8(46) - dot) * (c == np.where(e >= 0, e + 1, -1))
    bad = np.flatnonzero(~ok)
    if bad.size:
        out[:, bad] = np.array(["%.*g" % (p, f) for f in v[bad].tolist()],
                               f"S{p + 7}").view(np.uint8).reshape(-1, p + 7).T
    return out


def write_rows(file, row: str, columns, labels=None) -> None:
    """Write ``row % (label, *fields)`` per row, ``fields`` from the 1-D or 2-D
    ``columns`` side by side, without ``label`` if ``labels`` is None.

    The ``%.Ng`` conversions of ``row`` share one precision, and neither
    ``row`` nor a label holds a NUL.  A block of :data:`BLOCK_VALUES` values
    is one byte array, each value in a NUL-padded slot that
    :func:`_format_g` fills, and is written with the NULs dropped.
    """
    parts = re.split(r"%(s|\.\d+g)", row)  # literal, conversion, literal, ...
    (p,) = {max(int(c[1:-1]), 1) for c in parts[1::2] if c != "s"}
    if labels is not None:
        tags, index = np.unique(np.asarray(labels, dtype=str), return_inverse=True)
        tags = np.char.encode(tags)
    line, slots = b"", []
    for lit, c in zip(parts[::2], parts[1::2]):
        line += lit.encode()
        width = tags.itemsize if c == "s" else p + 7
        slots.append(np.arange(len(line), len(line) + width))
        line += bytes(width)
    line = np.frombuffer(line + parts[-1].encode(), np.uint8)
    at = np.array(slots[labels is not None:])  # the fields' slots
    step = max(1, BLOCK_VALUES // len(at))
    for lo in range(0, len(columns[0]), step):
        part = slice(lo, lo + step)
        values = np.column_stack([np.asarray(c[part], dtype=float) for c in columns])
        block = np.repeat(line[:, None], len(values), axis=1)  # a column per row
        block[at] = _format_g(values.T.ravel(), p).reshape(
            p + 7, len(at), -1).swapaxes(0, 1)
        if labels is not None:
            block[slots[0]] = tags[index[part]].view(np.uint8).reshape(len(values), -1).T
        text = block.T.tobytes().translate(None, b"\0").decode()
        del values, block
        file.write(text)


def reject_first(bad, explain, what: str, default: str = "") -> None:
    """Raise a :class:`ValidationError` naming the file line of the first
    row flagged in the mask ``bad`` and its problem; a row without a table
    problem reports ``default``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        [(line, text)] = explain(rows[:1])
        raise ValidationError(f"{what} line {line}: {text or default}")
