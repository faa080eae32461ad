"""The one reader behind every CSV file the package reads, and the block
writer behind its long text bodies.

A table is one header line, compared with spaces removed, then one data
row per line; blank lines and lines starting with ``#`` are skipped.  Each
field converts by its column's type letter, under the rules of ``float()``
and ``int()``: ``s`` text, ``i`` integer, ``f`` float.  Float fields must be
finite.  Rows convert :data:`BLOCK_ROWS` at a time, and only a block that
fails is converted again row by row, to find and word its bad rows; so a
table with bad rows is read in the memory of a clean one.
"""

from __future__ import annotations

from itertools import compress, cycle

import numpy as np

from .errors import ValidationError

#: A row's problem code indexes this tuple: 0 is a good row, the others are
#: the row problems in per-row precedence order.
PROBLEMS = ("", "expected {} columns, got {}", "non-numeric field",
            "non-finite field")

#: Rows the reader converts, or a writer formats, at a time, so it holds one
#: block of fields or text, not the whole table.
BLOCK_ROWS = 512

_DTYPES = {"s": object, "i": np.int64}  # "f" columns convert together


def _convert(lines: list[str], types: str) -> list[np.ndarray]:
    """The (rows, floats) block of the float fields of ``lines``, one row
    each, then every other column; raises ``ValueError`` or
    ``OverflowError`` if a field does not convert."""
    fields = ",".join(lines).split(",")
    floats = list(compress(fields, cycle([t == "f" for t in types])))
    return [np.array(floats, dtype=float).reshape(-1, types.count("f")),
            *(np.array(fields[j::len(types)], dtype=_DTYPES[t])
              for j, t in enumerate(types) if t != "f")]


def read_table(file, header: str, types: str, what: str, error=ValidationError):
    """Read the table of ``file`` whose header must be ``header``.

    A wrong header raises ``error``, naming the file kind ``what``; nothing
    else raises.  Returns ``(columns, problem, explain)``: one array per
    column (a bad row holds placeholder fields), each row's problem code
    (see :data:`PROBLEMS`), and a function mapping row indices to ``(file
    line, problem text)`` pairs, with empty text for a good row.
    """
    got = file.readline().strip().replace(" ", "")
    if got != header:
        raise error(f"{what}: expected header {header!r}, got {got!r}")
    raw = list(map(str.strip, file.read().split("\n")))
    lines = [s for s in raw if s and s[0] != "#"]
    width, filler = len(types), ",".join("0" * len(types))
    count = np.array([s.count(",") for s in lines], dtype=np.int64) + 1
    problem = (count != width).astype(np.int8)
    if problem.any():
        lines = [filler if p else s for s, p in zip(lines, problem.tolist())]
    out = [np.empty((len(lines), types.count("f"))),
           *(np.empty(len(lines), _DTYPES[t]) for t in types if t != "f")]
    for lo in range(0, len(lines), BLOCK_ROWS):
        rows = lines[lo:lo + BLOCK_ROWS]
        try:
            parts = _convert(rows, types)
        except (ValueError, OverflowError):  # again row by row: a row that
            for r, s in enumerate(rows):     # fails gets problem 2 and zeros
                try:
                    _convert([s], types)
                except (ValueError, OverflowError):
                    problem[lo + r], rows[r] = 2, filler
            parts = _convert(rows, types)
        for whole, part in zip(out, parts):
            whole[lo:lo + len(rows)] = part
    block, *other = out
    problem[(problem == 0) & ~np.all(np.isfinite(block), axis=1)] = 3
    floats, other = iter(block.T), iter(other)
    columns = [next(floats) if t == "f" else next(other) for t in types]

    def explain(rows):
        numbers = [n for n, s in enumerate(raw, start=2) if s and s[0] != "#"]
        return [(numbers[r], PROBLEMS[problem[r]].format(width, count[r]))
                for r in rows]

    return columns, problem, explain


def write_rows(file, row: str, columns, labels=None) -> None:
    """Write ``row % (label, *fields)`` per row, ``fields`` from the 1-D or 2-D
    ``columns`` side by side, without ``label`` if ``labels`` is None."""
    for lo in range(0, len(columns[0]), BLOCK_ROWS):
        part = slice(lo, lo + BLOCK_ROWS)
        nums = np.column_stack([c[part] for c in columns]).tolist()
        file.write("".join(row % tuple(r) for r in nums) if labels is None else
                   "".join(row % (k, *r) for k, r in zip(labels[part].tolist(), nums)))


def reject_first(bad, explain, what: str, default: str = "") -> None:
    """Raise a :class:`ValidationError` naming the file line of the first
    row flagged in the mask ``bad`` and its problem; a row without a table
    problem reports ``default``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        [(line, text)] = explain(rows[:1])
        raise ValidationError(f"{what} line {line}: {text or default}")
