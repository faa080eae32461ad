"""Property-based checks of the error contract for every file the package
reads: a reader returns or raises an ``HdrpcalError``, and the CLI exits
with 0, 1, 2 or 64 without letting an exception escape.

Inputs are arbitrary text, truncated valid documents, valid documents with
arbitrary text spliced in and, for line-based formats, rows of typical and
edge-case tokens, all capped near 2 kB.  Example generation is
derandomized, so every run tries the same inputs.
"""

import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hdrpcal.cli import _load_sweeps, main
from hdrpcal.cubelut import KnotGrid, _walk_rows, default_knot_grid, parse_cube
from hdrpcal.display import (AchromaticDisplay, load_achromatic_csv, load_chromatic_csv,
                             load_display, save_display)
from hdrpcal.errors import HdrpcalError
from hdrpcal.harness import generate_samples, load_samples, save_samples

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
def test_cube_bulk_parse_matches_ordered_walk(text):
    def parsed():
        lut = parse_cube(text)
        return (lut.outputs.tobytes(), lut.title, lut.domain_min.tobytes(),
                lut.domain_max.tobytes())
    assert _outcome(parsed) == _outcome(lambda: _walked_cube(text))


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
