"""Property-based checks of the error contract for every file the package
reads: a reader returns or raises an ``HdrpcalError``, and the CLI exits
with 0, 1, 2 or 64 without letting an exception escape.

Inputs are arbitrary text, truncated valid documents, valid documents with
arbitrary text spliced in and, for line-based formats, rows of typical and
edge-case tokens, all capped near 2 kB.  Fast paths are checked against
their reference paths too: the bulk and layered .cube reads against the
line walk, the block-wise CSV read against a read one row at a time, the
.cube writer against per-value formatting, a cube made from its curves
against the cube made from their grid, and the sample batch against the
sample CSV reader.
Each writer is checked against its reader: what a constructor accepts is
written and read back equal.  Example generation is derandomized, so every
run tries the same inputs.
"""

import io
import warnings
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from hdrpcal import _table, cubelut
from hdrpcal._table import BLOCK_ROWS
from hdrpcal.calibrate import load_sweeps
from hdrpcal.cli import main
from hdrpcal.cubelut import (MAX_GRID_SIZE, CubeLUT, KnotGrid, _separable_outputs,
                             _walk_rows, default_knot_grid, parse_cube, serialize_cube)
from hdrpcal.display import (AchromaticDisplay, ChromaticDisplay, load_achromatic_csv,
                             load_chromatic_csv, load_display, save_display)
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

# "1_0" and "\uff11" (a full-width 1) are numbers under the float() and int()
# rules that the CSV readers follow, and "\x1c1" is not; "3.0" is a float but
# not an int.  np.loadtxt, which the .cube reader tries first, reads each of
# the first three the other way round.
TOKENS = st.sampled_from(["0", "1", "2", "-2", "3", "32", "257", "0.5", "1e9",
                          "1e999", "nan", "-inf", "x", "", "lambertian", "1_0",
                          "\uff11", "\x1c1", "3.0"])


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
    edge-case tokens, with blank and comment lines among them."""
    head, width = valid.split("\n")[0], valid.strip().split("\n")[-1].count(sep) + 1
    row = st.integers(width - 1, width + 1).flatmap(
        lambda n: st.lists(TOKENS, min_size=n, max_size=n)).map(sep.join)
    rows = st.lists(row | st.sampled_from(["", "# c"]), max_size=8).map(
        lambda r: "\n".join([head, *r]) + "\n")
    return damaged(valid) | rows


READERS = [
    ("samples", lambda t: load_samples(io.StringIO(t)), tabular(SAMPLES)),
    ("knots", lambda t: KnotGrid.from_csv(io.StringIO(t)), tabular(KNOTS)),
    ("sweeps", lambda t: load_sweeps(io.StringIO(t)), tabular(SWEEPS)),
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


def _state(value):
    """``value`` in a form ``==`` compares bit for bit: arrays as dtype,
    shape and bytes (object arrays as lists), dataclasses field by field."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape,
                value.tolist() if value.dtype == object else value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_state(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return (type(value), [_state(getattr(value, f.name)) for f in fields(value)])
    return value


# The readers that share the CSV table reader, which takes a block of lines at
# a time, skips its blank and comment lines, converts its rows together and
# a failing block again row by row.
TABLES = [r for r in READERS if r[0] in ("samples", "knots", "sweeps", "achromatic",
                                         "chromatic")]


@pytest.mark.parametrize("read,inputs", [r[1:] for r in TABLES], ids=[r[0] for r in TABLES])
def test_block_csv_read_matches_row_by_row_read(read, inputs):
    @fuzz
    @given(inputs)
    def check(text):
        blocks = _outcome(lambda: _state(read(text)))
        with mock.patch.object(_table, "BLOCK_ROWS", 1):
            assert _outcome(lambda: _state(read(text))) == blocks
    check()


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


def _parsed_with_warnings(text: str):
    """parse_cube's fields as bits, or its error and place; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lut = parse_cube(text)
            result = (lut.outputs.tobytes(), lut.title, lut.domain_min.tobytes(),
                      lut.domain_max.tobytes())
        except HdrpcalError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None),
                      getattr(exc, "column", None))
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


# Values of small cubes: signed zeros, values the parse clamps, and others.
LAYER_VALUES = (st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.25, 1.5, 1e-9, 0.1 + 0.2])
                | st.floats(-2.0, 2.0))
LAYER_EDITS = {
    "field": ["0", "1", "-0", "0.5", "2", "x", "nan", "1e999", "1_0", "", "0 0"],
    "separator": ["\t", "  ", " \t", "\xa0"],
    "line end": ["\r\n", "\r", "\x0b", "\x85", "\u2028", "\n\n", "\n# c\n", ""],
}


@st.composite
def layered_cubes(draw):
    """The text of a small separable cube as serialize_cube lays it out (one
    value at a time, which gives the same bytes), or of the same cube with
    one cell changed, with at most one field, separator or line end edited;
    and whether it is left unchanged."""
    n = draw(st.integers(2, 4))
    outputs = _separable_outputs([np.array(draw(st.lists(LAYER_VALUES, min_size=n,
                                                         max_size=n))) for _ in range(3)])
    separable = draw(st.booleans())
    if not separable:
        outputs = outputs.copy()
        outputs[draw(st.tuples(*[st.integers(0, n - 1)] * 3, st.integers(0, 2)))] = \
            draw(LAYER_VALUES)
    rows = [[format(x, ".8g") for x in row]
            for row in outputs.transpose(2, 1, 0, 3).reshape(-1, 3).tolist()]
    kind = draw(st.sampled_from([None, *LAYER_EDITS]))
    replacement = draw(st.sampled_from(LAYER_EDITS.get(kind, [""])))
    k = draw(st.integers(0, 999))
    if kind == "field":
        rows[k // 3 % len(rows)][k % 3] = replacement
    text = draw(st.sampled_from(["", 'TITLE "t"\n', "# c\n"])) + f"LUT_3D_SIZE {n}\n" + \
        "".join(" ".join(row) + "\n" for row in rows)
    if kind in ("separator", "line end"):  # the (k % count)-th space or line break
        sep = " " if kind == "separator" else "\n"
        at = [i for i, c in enumerate(text) if c == sep][k % text.count(sep)]
        text = text[:at] + replacement + text[at + 1:]
    return text, separable and kind is None


@fuzz
@given(layered_cubes())
def test_layered_cube_read_matches_line_walk(drawn):
    """The layered read of a separable cube's text with every value in [0, 1],
    and its decline on any other text, give the line walk's bits and warnings,
    or its error."""
    text, unchanged = drawn
    values = text.split("LUT_3D_SIZE")[1].split()[1:]
    if unchanged and all(0.0 <= float(x) <= 1.0 for x in values):
        assert cubelut._read_layers(text, {}) is not None
    with mock.patch.object(cubelut, "_read_layers", return_value=None), \
            mock.patch.object(np, "loadtxt", side_effect=ValueError):
        walked = _parsed_with_warnings(text)
    assert _parsed_with_warnings(text) == walked


IN_RANGE = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-9, 0.1 + 0.2]) | st.floats(0.0, 1.0)


@fuzz
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(IN_RANGE, min_size=n, max_size=n),
                                                    min_size=3, max_size=3)),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 99),
                          st.sampled_from([-0.25, 1.5, -0.0, np.nan, -np.inf, "long"])),
                max_size=2))
@example([[0.5, 1.0]] * 3, [(2, 1, np.nan)])
@example([[0.5, 1.0]] * 3, [(0, 1, 1.5), (2, 1, -0.25)])
def test_cube_from_curves_matches_cube_from_grid(curves, edits):
    """A cube made from its curves and one made from their grid raise the same
    error, or give the same curves, text, tonemap, parse and outputs, as bits;
    the curves may hold values outside [0, 1] or an extra value."""
    curves = [list(c) for c in curves]
    for channel, k, value in edits:
        if value == "long":
            curves[channel].append(0.25)
        else:
            curves[channel][k % len(curves[channel])] = value
    arrays = [np.array(c) for c in curves]

    def made(make):
        try:
            lut = make()
        except ValidationError as exc:
            return str(exc)
        grid = KnotGrid(np.cumsum(np.full(lut.size, 0.5)), active_start=1)
        u = np.linspace(0.0, lut.size / 2 + 1, 21).reshape(7, 3)
        text = serialize_cube(lut)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = parse_cube(text)
        return (np.array(lut.separable_channels()).tobytes(), text,
                cubelut.CubeTonemap(grid, lut).apply(u).tobytes(),
                np.array(back.separable_channels()).tobytes(), back.outputs.tobytes(),
                lut.outputs.tobytes())
    from_curves = made(lambda: CubeLUT._from_curves(arrays))
    assert from_curves == made(lambda: CubeLUT(_separable_outputs(arrays)))


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
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# One field edit (keep, add): the field becomes keep * field + add.
EDITS = FINITE.map(lambda x: (0.0, x)) | st.sampled_from(NUDGES).map(lambda d: (1.0, d))


@fuzz
@given(st.integers(0, len(MIXED) - 1), st.sampled_from(_ROW_FIELDS), st.integers(0, 2),
       EDITS)
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


@st.composite
def sample_columns(draw):
    """SampleBatch arguments: generated rows, on both sides of one write
    block, some turned unlit with arbitrary finite vectors, and a few
    fields edited as in :data:`EDITS`."""
    n = draw(st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS]))
    base = generate_samples(n, seed=draw(st.integers(0, 2**16)))
    columns = {name: np.array(getattr(base, name)) for name in ("lambertian", *_ROW_FIELDS)}
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        columns["lambertian"][row] = False
        for name in ("n", "d", "l", "a"):
            columns[name][row] = draw(st.lists(FINITE, min_size=3, max_size=3))
    for row, name, k, (keep, add) in draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.sampled_from(_ROW_FIELDS), st.integers(0, 2), EDITS),
            max_size=2)):
        at = (row, k) if columns[name].ndim == 2 else row
        columns[name][at] = keep * columns[name][at] + add
    return columns


def _same_samples(batch, back):
    """Bit for bit, but for the documented renormalization: the reader
    rescales a Lambertian row's normal or light direction that is further
    than 1e-12 from unit norm."""
    expected = {name: np.array(getattr(batch, name)) for name in ("lambertian", *_ROW_FIELDS)}
    lam = expected["lambertian"]
    for vec in (expected["n"], expected["l"]):
        norm = np.linalg.norm(vec[lam], axis=1)
        off = np.abs(norm - 1.0) > 1e-12
        vec[np.flatnonzero(lam)[off]] /= norm[off, None]
    return all(_state(expected[name]) == _state(getattr(back, name)) for name in expected)


def _knot_text_values(values):
    """The active knots as the knot CSV holds them: 10 significant digits,
    or 17 where 10 would not read back as strictly increasing finite knots."""
    ten = np.array([float(f"{v:.10g}") for v in values])
    return ten if np.isfinite(ten).all() and np.all(np.diff(ten) > 0) else values


def _same_knots(grid, back):
    return ((back.size, back.active_start) == (grid.size, grid.active_start)
            and _state(back.active_values) == _state(_knot_text_values(grid.active_values)))


def _same_cube(lut, back):
    """Outputs as ``%.8g`` text holds them; title and domain equal."""
    eight = np.array([float("%.8g" % v) for v in lut.outputs.ravel()])
    return (_state(back.outputs.ravel()) == _state(eight) and back.title == lut.title
            and np.array_equal(back.domain_min, lut.domain_min)
            and np.array_equal(back.domain_max, lut.domain_max))


def _same_display(display, back):
    def values(d):
        return [_state(np.float64(getattr(d, f.name))) for f in fields(d)]
    return type(back) is type(display) and values(back) == values(display)


@st.composite
def knot_arguments(draw):
    """KnotGrid arguments: sizes on both sides of the largest grid,
    nonnegative active knots (sorted or not, some closer than 10 digits tell
    apart), inactive entries NaN or finite."""
    size = draw(st.sampled_from([2, 3, 32, MAX_GRID_SIZE, MAX_GRID_SIZE + 1]))
    start = draw(st.integers(max(1, size - 40), size - 1))
    active = draw(st.lists(st.floats(0.0, allow_infinity=False) | st.sampled_from(
        [1.0, 1.0 + 1e-12, 1.7976931348623157e308]), min_size=size - start + 1,
        max_size=size - start + 1, unique=True))
    if draw(st.booleans()):
        active = sorted(active)
    inactive = draw(st.lists(FINITE | st.just(np.nan), min_size=start - 1,
                             max_size=start - 1))
    return {"values": inactive + active, "active_start": start}


def _bounds(pair):
    lo, hi = np.minimum(*pair), np.maximum(*pair)
    return {"domain_min": lo, "domain_max": hi}


@st.composite
def cube_arguments(draw):
    """CubeLUT arguments: sizes 0 to 9 (a cube above the largest size would
    take 400 MB), outputs from a few values (signed zeros and values outside
    [0, 1] among them), any title, and a domain of arbitrary, nearly equal
    or default bounds."""
    n = draw(st.integers(0, 9))
    palette = draw(st.lists(CURVE_VALUES | st.sampled_from([5e-324, 0.123456789123, 1.5]),
                            min_size=1, max_size=5))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, len(palette), (n, n, n, 3))
    args = {"outputs": np.array(palette)[pick],
            "title": draw(st.none() | st.text(max_size=20))}
    bound = st.lists(FINITE, min_size=3, max_size=3).map(np.array)
    domain = draw(st.none() | st.tuples(bound, bound).map(_bounds)
                  | bound.map(lambda lo: _bounds((lo, np.nextafter(lo, np.inf)))))
    return args | (domain or {})


VECTOR = st.lists(FINITE, min_size=3, max_size=3)
# An achromatic display field: a Python or numpy float, any int or a bool.
DISPLAY_NUMBER = (FINITE | FINITE.map(np.float64) | st.floats(width=32).map(np.float32)
                  | st.integers() | st.sampled_from([2**64, 2**1024]) | st.booleans())
# most chromatic displays need positive primary Y components and gammas
POSITIVE = st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                    min_size=3, max_size=3)

# (name, constructor argument strategy, constructor, writer, reader, equality)
WRITERS = [
    ("samples", sample_columns(), SampleBatch, save_samples, load_samples, _same_samples),
    ("knots", knot_arguments(), KnotGrid, KnotGrid.to_csv, KnotGrid.from_csv, _same_knots),
    ("cube", cube_arguments(), CubeLUT, serialize_cube, parse_cube, _same_cube),
    ("achromatic", st.fixed_dictionaries({name: DISPLAY_NUMBER for name in ("l0", "l1",
                                                                          "gamma")}),
     AchromaticDisplay, save_display, load_display, _same_display),
    ("chromatic", st.fixed_dictionaries({f.name: VECTOR | POSITIVE
                                         for f in fields(ChromaticDisplay)}),
     ChromaticDisplay, save_display, load_display, _same_display),
]


@pytest.mark.parametrize("arguments,make,write,read,same", [w[1:] for w in WRITERS],
                         ids=[w[0] for w in WRITERS])
def test_writer_output_reads_back(arguments, make, write, read, same):
    """What a constructor accepts, its writer writes and its reader reads
    back equal; the constructor raises nothing but ValidationError."""
    @settings(fuzz, max_examples=40)
    @given(arguments)
    def check(kwargs):
        try:
            value = make(**kwargs)
        except ValidationError:
            return
        buf = io.StringIO()
        write(value, buf)
        buf.seek(0)
        assert same(value, read(buf))
    check()


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
