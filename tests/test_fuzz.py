"""Property-based checks of the error contract for every file the package
reads: a reader returns or raises an ``HdrpcalError``, and the CLI exits
with 0, 1, 2 or 64 without letting an exception escape.

Inputs are arbitrary text, truncated valid documents, valid documents with
arbitrary text spliced in and, for line-based formats, rows of typical and
edge-case tokens, all capped near 2 kB.  Fast paths are checked against
their reference paths too: the bulk .cube read against the line walk, the
.cube writer against per-value formatting, and the sample batch against
the sample CSV reader.  Example generation is derandomized, so every run
tries the same inputs.
"""

import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from hdrpcal.cli import _load_sweeps, main
from hdrpcal.cubelut import (CubeLUT, KnotGrid, _separable_outputs, _walk_rows,
                             default_knot_grid, parse_cube, serialize_cube)
from hdrpcal.display import (AchromaticDisplay, load_achromatic_csv, load_chromatic_csv,
                             load_display, save_display)
from hdrpcal.errors import HdrpcalError, SampleFormatError, ValidationError
from hdrpcal.harness import (SAMPLE_CSV_HEADER, SampleBatch, _CSV_ROW, _ROW_FIELDS,
                             generate_samples, load_samples, save_samples)

MAX_SIZE = 2000

fuzz = settings(derandomize=True, deadline=None, max_examples=100, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _text(write) -> str:
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


SAMPLES = _text(lambda fh: save_samples(generate_samples(3, seed=1), fh))
KNOTS = _text(default_knot_grid().to_csv)
TINY_KNOTS = "index,u\n1,0.5\n2,1.5\n"  # a 2-knot grid, matching TINY_CUBE
TINY_CUBE = "LUT_3D_SIZE 2\n" + "0 0 0\n" * 7 + "1 1 1\n"
SWEEPS = "m,u,t\n" + "".join(f"{m},{u},{u / 4}\n" for m in (3, 4, 5)
                             for u in (0.1, 0.2, 0.3))
ACHROMATIC = "v,L\n0,2\n0.25,6.7\n0.5,23\n0.75,55\n1,100\n"
CHROMATIC = "v_r,v_g,v_b,X,Y,Z\n0,0,0,1,1,1\n1,0,0,42,22,3\n0,1,0,36,72,12\n"
DISPLAY = _text(lambda fh: save_display(AchromaticDisplay(l0=2.0, l1=98.0,
                                                          gamma=2.2), fh))

TOKENS = st.sampled_from(["0", "1", "2", "-2", "3", "32", "257", "0.5", "1e9",
                          "1e999", "nan", "-inf", "x", "", "lambertian"])


def damaged(valid: str):
    """Arbitrary text, ``valid`` cut short, or ``valid`` with arbitrary text
    spliced in at some position."""
    cut = st.integers(0, len(valid)).map(lambda k: valid[:k])
    spliced = st.tuples(st.integers(0, len(valid)), st.text(max_size=40)).map(
        lambda p: valid[:p[0]] + p[1] + valid[p[0]:])
    return st.one_of(st.text(max_size=MAX_SIZE), cut, spliced)


def tabular(valid: str, sep: str = ","):
    """:func:`damaged` text, or the first line of ``valid`` followed by rows
    of about as many fields as its last line, drawn from typical and
    edge-case tokens."""
    head, width = valid.split("\n")[0], valid.strip().split("\n")[-1].count(sep) + 1
    row = st.integers(width - 1, width + 1).flatmap(
        lambda n: st.lists(TOKENS, min_size=n, max_size=n)).map(sep.join)
    rows = st.lists(row, max_size=8).map(lambda r: "\n".join([head, *r]) + "\n")
    return damaged(valid) | rows


def _load_sweeps_text(text: str):
    fh = tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False)
    with fh:
        fh.write(text)
    try:
        return _load_sweeps(fh.name)
    finally:
        Path(fh.name).unlink()


READERS = [
    ("samples", lambda t: load_samples(io.StringIO(t)), tabular(SAMPLES)),
    ("knots", lambda t: KnotGrid.from_csv(io.StringIO(t)), tabular(KNOTS)),
    ("sweeps", _load_sweeps_text, tabular(SWEEPS)),
    ("achromatic", lambda t: load_achromatic_csv(io.StringIO(t)), tabular(ACHROMATIC)),
    ("chromatic", lambda t: load_chromatic_csv(io.StringIO(t)), tabular(CHROMATIC)),
    ("display", lambda t: load_display(io.StringIO(t)), damaged(DISPLAY)),
    ("cube", parse_cube, tabular(TINY_CUBE, sep=" ")),
]


@pytest.mark.parametrize("read,inputs", [r[1:] for r in READERS],
                         ids=[r[0] for r in READERS])
def test_reader_raises_only_hdrpcal_errors(read, inputs):
    @fuzz
    @given(inputs)
    def check(text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                read(text)
            except HdrpcalError:
                pass
    check()


def _outcome(read):
    """What ``read()`` returns, or the type, text and place of its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return read()
        except HdrpcalError as exc:
            return (type(exc), str(exc), getattr(exc, "line", None),
                    getattr(exc, "column", None))


def _walked_cube(text: str):
    """The parsed cube's fields from the line-by-line walk alone."""
    keys = {"title": None, "domain_min": np.zeros(3), "domain_max": np.ones(3)}
    data = _walk_rows(text.splitlines(), keys)
    n = keys["size"]
    outputs = np.clip(data, 0.0, 1.0).reshape(n, n, n, 3).transpose(2, 1, 0, 3)
    return (outputs.tobytes(), keys["title"], keys["domain_min"].tobytes(),
            keys["domain_max"].tobytes())


# TINY_CUBE-sized files that mostly parse: eight rows of three numbers in
# varied whitespace, with up to two other lines (comment, blank, TITLE or a
# bad row) inserted or put in place of a row, and LF or CRLF line ends.
CUBE_ROW = st.builds(str.join, st.sampled_from([" ", "  ", "\t", " \t"]), st.lists(
    st.sampled_from(["0", "1", "0.5", "-0", "1e-3", ".5", "1.2"]), min_size=3, max_size=3))
CUBE_EXTRA = st.tuples(
    st.integers(0, 8),
    st.sampled_from(["", "# c", 'TITLE "t"', "1 0", "0 x 1", "nan 0 0", "0 1e999 0",
                     "1_0 0 0", "0 0 0 # c"]),
    st.booleans())


def _cube_layout(rows, extra, end):
    lines = list(rows)
    for at, line, replace in extra:
        lines[at:at + replace] = [line]  # replace row ``at``, or insert before it
    return end.join(["LUT_3D_SIZE 2", *lines])


CUBE_LAYOUTS = st.builds(_cube_layout, st.lists(CUBE_ROW, min_size=8, max_size=8),
                         st.lists(CUBE_EXTRA, max_size=2),
                         st.sampled_from(["\n", "\r\n"]))


@fuzz
@given(tabular(TINY_CUBE, sep=" ") | CUBE_LAYOUTS)
@example(TINY_CUBE.replace("1 1 1", "1 nan 1"))  # bulk-readable, but not finite
@example(TINY_CUBE.replace("1 1 1", "1 1e999 1"))
@example(TINY_CUBE.replace("1 1 1", "1_0 1 1"))  # float() reads it, loadtxt does not
@example(TINY_CUBE + "# end\n")
def test_cube_bulk_parse_matches_ordered_walk(text):
    def parsed():
        lut = parse_cube(text)
        return (lut.outputs.tobytes(), lut.title, lut.domain_min.tobytes(),
                lut.domain_max.tobytes())
    assert _outcome(parsed) == _outcome(lambda: _walked_cube(text))


def _cube_lines_per_value(lut: CubeLUT) -> list[str]:
    """The .cube text lines of ``lut`` written one value at a time, red
    fastest (a list, so a failure names the first differing line)."""
    rows = lut.outputs.transpose(2, 1, 0, 3).reshape(-1, 3).tolist()
    return [f"LUT_3D_SIZE {lut.size}",
            *(" ".join(format(x, ".8g") for x in row) for row in rows), ""]


CURVE_VALUES = (st.sampled_from([0.0, -0.0, 1.0, 1.657e-9])
                | st.integers(10_000_001, 99_999_999).map(lambda k: k / 1e8))


@settings(fuzz, max_examples=25)  # a 33^3 cube is written three times
@given(st.integers(2, 33).flatmap(lambda n: st.tuples(
    st.lists(st.lists(CURVE_VALUES, min_size=n, max_size=n), min_size=3, max_size=3),
    st.tuples(*[st.integers(1, max(n - 2, 1))] * 3), st.integers(0, 2))))
def test_separable_cube_text_matches_per_value_text(drawn):
    """Both serialize paths write ``format(v, ".8g")`` per value: a separable
    cube, and the same cube with one interior cell set to -0.0."""
    curves, cell, channel = drawn
    outputs = _separable_outputs([np.array(c) for c in curves])
    lut = CubeLUT(outputs)
    assert lut.separable_channels() is not None
    assert serialize_cube(lut).split("\n") == _cube_lines_per_value(lut)
    if lut.size > 2:
        flipped = outputs.copy()
        before = flipped[(*cell, channel)]
        flipped[(*cell, channel)] = -0.0
        lut = CubeLUT(flipped)
        assert serialize_cube(lut).split("\n") == _cube_lines_per_value(lut)
        still = np.signbit(before) and before == 0.0
        assert (lut.separable_channels() is not None) == still


@settings(fuzz, max_examples=25)
@example(3, [-0.0, 0.0, 0.12345678], 0)
@given(st.integers(2, 17), st.lists(CURVE_VALUES, min_size=2, max_size=6),
       st.integers(0, 2**32 - 1))
def test_general_cube_text_matches_per_value_text(n, palette, seed):
    """The cell path writes ``format(v, ".8g")`` per value: cubes whose
    cells are drawn from a few values, signed zeros among them."""
    pick = np.random.default_rng(seed).integers(0, len(palette), (n, n, n, 3))
    lut = CubeLUT(np.array(palette)[pick])
    assume(lut.separable_channels() is None)
    assert serialize_cube(lut).split("\n") == _cube_lines_per_value(lut)


MIXED = generate_samples(4, seed=2) + generate_samples(2, seed=3, kind="unlit")
NUDGES = [1e-7, -3e-7, 9e-7, 2e-6, -1e-5, -1.0, 1.0]


@fuzz
@given(st.integers(0, len(MIXED) - 1), st.sampled_from(_ROW_FIELDS), st.integers(0, 2),
       st.floats(allow_nan=False, allow_infinity=False).map(lambda x: (0.0, x))
       | st.sampled_from(NUDGES).map(lambda d: (1.0, d)))
@example(1, "i_a", 0, (0.0, -5.0))
@example(0, "v", 1, (0.0, 7.0))
@example(5, "n", 2, (0.0, 1e200))  # an unlit row: no norm rule, no overflow error
def test_batch_contract_is_the_sample_csv_contract(row, name, k, edit):
    """A batch rejects one changed field exactly when the sample reader
    rejects it in text, with the same problem."""
    columns = {col: np.array(getattr(MIXED, col)) for col in ("lambertian", *_ROW_FIELDS)}
    column = columns[name]
    at = (row, k) if column.ndim == 2 else row
    keep, value = edit
    column[at] = keep * column[at] + value
    nums = np.column_stack([columns[col] for col in _ROW_FIELDS])
    text = SAMPLE_CSV_HEADER + "\n" + "".join(
        _CSV_ROW % (kind, *r) for kind, r in zip(MIXED.kinds.tolist(), nums.tolist()))
    try:
        SampleBatch(**columns)
        problem = None
    except ValidationError as exc:
        prefix, problem = str(exc).split(": ", 1)
        assert prefix == f"sample {row}"
    try:
        load_samples(io.StringIO(text))
        assert problem is None
    except SampleFormatError as exc:
        line = row + 2
        assert str(exc) == f"rejected 1 sample row(s): line {line}: {problem} [rows: {line}]"


# (name, argv with {fuzzed} for the fuzzed file and {name} for fixed files,
# fuzzed file contents)
COMMANDS = [
    ("simulate-tonemap", ["simulate", "--samples", "10", "--tonemap", "{fuzzed}",
                          "--knots", "{tiny_knots}"], tabular(TINY_CUBE, sep=" ")),
    ("simulate-knots", ["simulate", "--samples", "10", "--tonemap", "{tiny_cube}",
                        "--knots", "{fuzzed}"], tabular(TINY_KNOTS)),
    ("fit-c", ["fit-c", "--in", "{fuzzed}"], tabular(SAMPLES)),
    ("estimate-knots-delta", ["estimate-knots", "--mode", "delta", "--in",
                              "{fuzzed}"], tabular(SWEEPS)),
    ("estimate-knots-optimize", ["estimate-knots", "--mode", "optimize", "--in",
                                 "{fuzzed}", "--cube", "{tiny_cube}", "--init",
                                 "{tiny_knots}"], tabular(SAMPLES)),
    ("fit-display-achromatic", ["fit-display", "--mode", "achromatic", "--in",
                                "{fuzzed}"], tabular(ACHROMATIC)),
    ("fit-display-chromatic", ["fit-display", "--mode", "chromatic", "--in",
                               "{fuzzed}"], tabular(CHROMATIC)),
    ("make-cube-display", ["make-cube", "--display", "{fuzzed}", "--knots",
                           "{tiny_knots}"], damaged(DISPLAY)),
    ("make-cube-knots", ["make-cube", "--display", "{display}", "--knots",
                         "{fuzzed}"], tabular(TINY_KNOTS)),
    ("validate", ["validate", "--in", "{fuzzed}"], tabular(SAMPLES)),
]


@pytest.mark.parametrize("argv,inputs", [c[1:] for c in COMMANDS],
                         ids=[c[0] for c in COMMANDS])
def test_cli_exit_codes(tmp_path_factory, argv, inputs):
    work = tmp_path_factory.mktemp("fuzz")
    files = {"tiny_knots": work / "knots.csv", "tiny_cube": work / "tiny.cube",
             "display": work / "display.json", "fuzzed": work / "fuzzed.txt"}
    files["tiny_knots"].write_text(TINY_KNOTS)
    files["tiny_cube"].write_text(TINY_CUBE)
    files["display"].write_text(DISPLAY)
    args = ["--quiet", *(a.format(**files) for a in argv), "--out",
            str(work / "out.txt")]

    @fuzz
    @given(inputs)
    def check(text):
        files["fuzzed"].write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) in (0, 1, 2, 64)
    check()
