"""The one reader behind every CSV file the package reads.

A table is one header line, compared with spaces removed, then one data
row per line; blank lines and lines starting with ``#`` are skipped.  Each
field converts by its column's type letter: ``s`` text, ``i`` integer,
``f`` float.  Float fields must be finite.
"""

from __future__ import annotations

from itertools import compress, cycle

import numpy as np

from .errors import ValidationError

#: A row's problem code indexes this tuple: 0 is a good row, the others are
#: the row problems in per-row precedence order.
PROBLEMS = ("", "expected {} columns, got {}", "non-numeric field",
            "non-finite field")

_DTYPES = {"s": object, "i": np.int64}  # "f" columns convert together


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
    width = len(types)
    count = np.array([s.count(",") for s in lines], dtype=np.int64) + 1
    problem = (count != width).astype(np.int8)
    if problem.any():
        filler = ",".join("0" * width)
        lines = [filler if p else s for s, p in zip(lines, problem.tolist())]
    fields = ",".join(lines).split(",") if lines else []

    def convert(fields):  # every float field in one call, the rest per column
        floats = list(compress(fields, cycle([t == "f" for t in types])))
        block = np.array(floats, dtype=float).reshape(-1, types.count("f"))
        rest = iter(block.T)
        return [next(rest) if t == "f" else np.array(fields[j::width], dtype=_DTYPES[t])
                for j, t in enumerate(types)], block

    try:
        columns, block = convert(fields)
    except (ValueError, OverflowError):
        bad = [(0, len(lines))]  # bisect spans known to hold a bad field
        while bad:
            lo, hi = bad.pop()
            if hi - lo == 1:
                problem[lo] = 2
                fields[lo * width:hi * width] = ["0"] * width
                continue
            for half in ((lo + hi) // 2, hi), (lo, (lo + hi) // 2):
                try:
                    convert(fields[half[0] * width:half[1] * width])
                except (ValueError, OverflowError):
                    bad.append(half)
        columns, block = convert(fields)
    problem[(problem == 0) & ~np.all(np.isfinite(block), axis=1)] = 3

    def explain(rows):
        numbers = [n for n, s in enumerate(raw, start=2) if s and s[0] != "#"]
        return [(numbers[r], PROBLEMS[problem[r]].format(width, count[r]))
                for r in rows]

    return columns, problem, explain


def reject_first(bad, explain, what: str, default: str = "") -> None:
    """Raise a :class:`ValidationError` naming the file line of the first
    row flagged in the mask ``bad`` and its problem; a row without a table
    problem reports ``default``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        [(line, text)] = explain(rows[:1])
        raise ValidationError(f"{what} line {line}: {text or default}")

