import contextlib
import hashlib
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from hdrpcal import cubelut
from hdrpcal.calibrate import (GammaCorrectionSpec, build_correction_cube,
                               estimate_knots_optimize)
from hdrpcal.cli import main
from hdrpcal.colorspace import srgb_encode3
from hdrpcal.cubelut import (CubeLUT, CubeRangeWarning, CubeTonemap,
                             DELTA_KNOTS, KnotGrid, OPTIMIZED_KNOTS,
                             _interpolate, default_knot_grid,
                             make_delta_cube, parse_cube, separable_cube,
                             serialize_cube)
from hdrpcal.display import AchromaticDisplay, save_display
from hdrpcal.errors import (CubeFormatError, CubeTruncationError,
                            UnsupportedCubeError, ValidationError)
from hdrpcal.harness import generate_samples
from hdrpcal.scene import post_process
from test_calibrate import make_chromatic_display

MINIMAL_CUBE = """\
# comment line
LUT_3D_SIZE 2
0 0 0
1 0 0
0 1 0
1 1 0
0 0 1
1 0 1
0 1 1
1 1 1
"""


def random_lut(rng, size):
    return CubeLUT(rng.uniform(0, 1, (size, size, size, 3)))


class TestParse:
    def test_minimal(self):
        lut = parse_cube(MINIMAL_CUBE)
        assert lut.size == 2

    def test_red_fastest_ordering(self):
        # data row index = i + n*j + n^2*k; encode the indices in the values
        n = 3
        lines = [f"LUT_3D_SIZE {n}"]
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    lines.append(f"{i / 10} {j / 10} {k / 10}")
        lut = parse_cube("\n".join(lines))
        for i, j, k in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
            assert lut.outputs[i, j, k] == pytest.approx([i / 10, j / 10, k / 10])

    def test_title_and_domain(self):
        text = ('TITLE "demo"\nDOMAIN_MIN 0 0 0\nDOMAIN_MAX 2 2 2\n'
                + MINIMAL_CUBE.split("\n", 1)[1])
        lut = parse_cube(text)
        assert lut.title == "demo"
        assert np.array_equal(lut.domain_max, [2, 2, 2])

    def test_missing_size(self):
        with pytest.raises(CubeFormatError, match="LUT_3D_SIZE"):
            parse_cube("0 0 0\n")

    @pytest.mark.parametrize("size", ["2.5", "257"])
    def test_size_not_an_integer_in_range(self, size):
        with pytest.raises(CubeFormatError, match=r"^LUT_3D_SIZE must be an integer in "
                           rf"2\.\.256, got {float(size)} \(line 1\)$"):
            parse_cube(f"LUT_3D_SIZE {size}\n")

    def test_truncated(self):
        text = "\n".join(MINIMAL_CUBE.splitlines()[:-1]) + "\n"
        with pytest.raises(CubeTruncationError, match="found 7"):
            parse_cube(text)

    def test_extra_rows(self):
        with pytest.raises(CubeTruncationError):
            parse_cube(MINIMAL_CUBE + "0.5 0.5 0.5\n")

    def test_non_numeric_token_has_location(self):
        text = MINIMAL_CUBE.replace("1 0 1", "1 oops 1")
        with pytest.raises(CubeFormatError) as info:
            parse_cube(text)
        assert info.value.line == 8
        assert info.value.column == 3

    @pytest.mark.parametrize("text, line, column", [
        ("LUT_3D_SIZE 2\nDOMAIN_MIN 0 D 0\n" + "0 0 0\n" * 8, 2, 14),
        ("LUT_3D_SIZE S\n", 1, 13),
        ("LUT_3D_SIZE 2\n" + "0 0 0\n" * 7 + "1e5 e5 0\n", 9, 5),
    ], ids=["domain", "size", "data row"])
    def test_column_is_where_the_token_was_split(self, text, line, column):
        """The token's own column, not that of the first earlier text it
        also matches."""
        with pytest.raises(CubeFormatError, match="non-numeric token") as info:
            parse_cube(text)
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("token", ["nan", "-nan", "inf", "-inf"])
    def test_non_finite_value_has_location(self, token):
        text = MINIMAL_CUBE.replace("1 0 1", f"1 {token} 1")
        with pytest.raises(CubeFormatError, match="non-finite value") as info:
            parse_cube(text)
        assert info.value.line == 8

    def test_wrong_component_count(self):
        text = MINIMAL_CUBE.replace("1 0 1", "1 0")
        with pytest.raises(CubeFormatError, match="expected 3"):
            parse_cube(text)

    def test_1d_variant_rejected(self):
        with pytest.raises(UnsupportedCubeError):
            parse_cube("LUT_1D_SIZE 4096\n")

    def test_unknown_keyword(self):
        with pytest.raises(CubeFormatError, match="unknown keyword"):
            parse_cube("LUT_3D_SIZE 2\nSHAPER_LUT x\n")

    def test_unquoted_title(self):
        with pytest.raises(CubeFormatError, match="quoted"):
            parse_cube("TITLE demo\n" + MINIMAL_CUBE)

    def test_out_of_range_clamped_with_warning(self):
        text = MINIMAL_CUBE.replace("1 1 1", "1.2 1 1")
        with pytest.warns(CubeRangeWarning):
            lut = parse_cube(text)
        assert lut.outputs.max() <= 1.0

    def test_accepts_stream(self):
        lut = parse_cube(io.StringIO(MINIMAL_CUBE))
        assert lut.size == 2

    @pytest.mark.parametrize("text", [
        MINIMAL_CUBE + 'TITLE "late"\n',
        MINIMAL_CUBE.replace(" ", "\t"),
        MINIMAL_CUBE.replace(" ", "   "),
        MINIMAL_CUBE.replace("\n0 1 1", "\n# between rows\n\n0 1 1"),
    ], ids=["title-after-data", "tabs", "spaces", "comment-between-rows"])
    def test_irregular_layout_parses_the_same(self, text):
        lut = parse_cube(text)
        assert np.array_equal(lut.outputs, parse_cube(MINIMAL_CUBE).outputs)
        assert lut.title == ("late" if "TITLE" in text else None)

    def test_trailing_comment_line_keeps_bulk_read(self, monkeypatch):
        def walk(lines, keys):
            raise AssertionError("line walk used")
        monkeypatch.setattr("hdrpcal.cubelut._walk_rows", walk)
        lut = parse_cube(serialize_cube(make_delta_cube(5)) + "# end\n\n")
        assert np.array_equal(lut.outputs, make_delta_cube(5).outputs)

    def test_trailing_comment_on_data_row(self):
        text = MINIMAL_CUBE.replace("1 0 1", "1 0 1 # note")
        with pytest.raises(CubeFormatError, match="expected 3 numbers, got 5") as info:
            parse_cube(text)
        assert info.value.line == 8

    def test_size_without_data_rows(self, recwarn):
        with pytest.raises(CubeTruncationError, match="found 0"):
            parse_cube("LUT_3D_SIZE 2\n")
        assert not recwarn.list

    def test_first_error_in_file_order(self):
        lines = MINIMAL_CUBE.splitlines()
        lines[4] = "0 1 x"
        lines.insert(8, "SHAPER_LUT 4")
        with pytest.raises(CubeFormatError, match="non-numeric token 'x'") as info:
            parse_cube("\n".join(lines))
        assert (info.value.line, info.value.column) == (5, 5)


def layered(r, g, b, head="LUT_3D_SIZE {n}\n"):
    """.cube text of the separable cube with these red, green and blue field
    texts, in the layout serialize_cube writes: layer k is every "r g "
    prefix, red fastest, followed by b[k]."""
    prefixes = [f"{x} {y} " for y in g for x in r]
    return head.format(n=len(r)) + "".join(f"{z}\n".join(prefixes) + f"{z}\n" for z in b)


def outcome(parse):
    """The bits and keyword fields ``parse()`` returns, or its error and place."""
    try:
        lut = parse()
    except CubeFormatError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return (lut.outputs.view(np.uint64).tobytes(), lut.title,
            lut.domain_min.view(np.uint64).tobytes(), lut.domain_max.view(np.uint64).tobytes())


def warned_parse(text):
    """``outcome`` of parse_cube and the class, text, file and line of each warning."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = outcome(lambda: parse_cube(text))
    return got, [(w.category, str(w.message), w.filename, w.lineno) for w in seen]


def line_parse(text):
    """parse_cube with the layered read declined: the split-lines path."""
    with mock.patch("hdrpcal.cubelut._read_layers", return_value=None):
        return outcome(lambda: parse_cube(text))


@contextlib.contextmanager
def layers_only():
    """The split-lines path fails inside, so a parse succeeds only by the layered read."""
    used = AssertionError("split-lines path used")
    with mock.patch.object(np, "loadtxt", side_effect=used), \
            mock.patch("hdrpcal.cubelut._walk_rows", side_effect=used):
        yield


BASE = layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "1", "0"])
BASE_ROWS = BASE.split("\n")  # LUT_3D_SIZE 3, the 27 rows, ""


def replace_row(k, row):
    """BASE with line ``k`` (1-based) replaced."""
    return "\n".join(BASE_ROWS[:k - 1] + [row] + BASE_ROWS[k:])


def break_before(k, sep):
    """BASE with the line break before line ``k`` (1-based) replaced by ``sep``."""
    return "\n".join(BASE_ROWS[:k - 1]) + sep + "\n".join(BASE_ROWS[k - 1:])


BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLayeredRead:
    def test_gen_delta_cubes_read_by_layers(self, tmp_path):
        assert main(["--quiet", "gen-delta-cubes", "--out", str(tmp_path)]) == 0
        texts = [(tmp_path / f"delta_{m:02d}.cube").read_text() for m in range(1, 33)]
        with layers_only():
            for m, text in enumerate(texts, start=1):
                lut = parse_cube(io.StringIO(text))
                assert np.array_equal(lut.outputs.view(np.uint64),
                                      make_delta_cube(m).outputs.view(np.uint64))
                assert lut.title == f"delta_{m:02d}"

    def test_refined_correction_cube_read_by_layers(self, tmp_path):
        display = tmp_path / "display.json"
        with open(display, "w") as fh:
            save_display(AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2), fh)
        out = tmp_path / "corr.cube"
        assert main(["--quiet", "make-cube", "--display", str(display), "--r", "1.111",
                     "--refine", "--out", str(out)]) == 0
        text = out.read_text()
        expected = line_parse(text)
        assert isinstance(expected[0], bytes)  # parsed, not an error
        with layers_only():
            assert outcome(lambda: parse_cube(text)) == expected

    def test_title_and_domain_read_by_layers(self):
        lut = CubeLUT(make_delta_cube(3, size=5).outputs * 0.5, title="a b",
                      domain_min=[0.0, 0.25, 1e-3], domain_max=[1.0, 2.0, 0.1 + 0.2])
        text = serialize_cube(lut)
        assert text.count("DOMAIN_M") == 2 and text.startswith('TITLE "a b"\n')
        with layers_only():
            back = parse_cube(text)
        assert np.array_equal(back.outputs.view(np.uint64), lut.outputs.view(np.uint64))
        assert back.title == "a b"
        assert np.array_equal(back.domain_min, lut.domain_min)
        assert np.array_equal(back.domain_max, lut.domain_max)

    def test_layers_with_signed_zero_and_clamped_values(self):
        text = layered(["-0", "1.5"], ["0", "-0.25"], ["1", "-0"])
        assert cubelut._read_layers(text, {}) is None  # outside [0, 1]: the line path clamps
        with pytest.warns(CubeRangeWarning, match=r"^8 cube components "
                          r"outside \[0, 1\] \(worst excess 0.5\); clamping$"):
            lut = parse_cube(text)
        assert np.signbit(lut.outputs[0, 0, 0, 0]) and np.signbit(lut.outputs[1, 1, 1, 2])
        assert lut.outputs[1, 0, 0, 0] == 1.0 and lut.outputs[0, 1, 0, 1] == 0.0
        got = warned_parse(text)
        with mock.patch("hdrpcal.cubelut._read_layers", return_value=None):
            assert warned_parse(text) == got

    def test_minimal_cube_is_layered(self):
        assert cubelut._read_layers(MINIMAL_CUBE, {}) is not None
        assert cubelut._read_layers(BASE, {}) is not None

    @pytest.mark.parametrize("text", [
        serialize_cube(random_lut(np.random.default_rng(3), 3)),
        replace_row(3, "0.25 0.5 0"),  # one blue field in layer 0
        replace_row(12, "0.25 0.5 0"),  # ... in layer 1
        replace_row(2, "0.5 0.5 0.125"),  # a red field in layer 0
        replace_row(28, "0.25 0.75 0"),  # a red field in the last layer
        replace_row(28, "1 0.75 0.5"),  # the last blue field
        replace_row(15, "0.25\t-0 1"),
        replace_row(15, "0.25  -0 1"),
        replace_row(15, "0.25 -0 1 "),
        replace_row(15, " 0.25 -0 1"),
        BASE.replace("\n", "\r\n"),
        *(break_before(20, sep) for sep in BREAKS),
        "LUT_3D_SIZE 3\x0c\n" + BASE.split("\n", 1)[1],
        BASE + "# end\n",
        BASE + "\n",
        BASE + 'TITLE "late"\n',
        BASE.replace("0 0.75 1\n", "0 0.75 1\n# c\n"),
        layered(["0", "0.25", "1"], ["0.5", "x", "0.75"], ["0.125", "1", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "nan", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "1", "1e999"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "0x1", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "1", "0"],
                head="LUT_3D_SIZE 2\n"),
        layered(["0", "0.25"], ["0.5", "-0"], ["0.125", "1", "0"], head="LUT_3D_SIZE 2\n"),
        layered(["0", "0.25"], ["0.5", "-0"], ["1", "1", "1"], head="LUT_3D_SIZE 2\n"),
        BASE[:-1],
        BASE.rsplit("\n", 2)[0] + "\n",
        BASE + BASE_ROWS[27] + "\n",
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "1 0", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "\t1", "0"]),
        layered(["0", "0.25", "1"], ["0.5", "-0", "0.75"], ["0.125", "\x1c1", "0"]),
    ], ids=["non-separable", "blue in layer 0", "blue in layer 1", "red in layer 0",
            "red in last layer", "last blue", "tab", "two spaces", "trailing space", "leading space",
            "CRLF", *(f"break {sep!r}" for sep in BREAKS),
            "break in header", "comment after data", "blank line after data",
            "TITLE after data", "comment between layers", "bad token", "nan", "overflow",
            "hex", "size below layers", "size above layers", "extra equal layer", "no final newline",
            "row missing", "row extra", "two blue fields", "empty blue field",
            "tab in blue field", "line break in blue field"])
    def test_declines_and_parses_as_split_lines(self, text):
        assert cubelut._read_layers(text, {}) is None
        assert outcome(lambda: parse_cube(text)) == line_parse(text)


class TestSerialize:
    def test_data_line_count(self):
        lut = parse_cube(MINIMAL_CUBE)
        text = serialize_cube(lut)
        data_lines = [ln for ln in text.splitlines()
                      if ln and not ln[0].isalpha() and not ln.startswith("#")]
        assert len(data_lines) == 8

    def test_round_trip_small(self):
        rng = np.random.default_rng(0)
        lut = random_lut(rng, 2)
        back = parse_cube(serialize_cube(lut))
        assert np.max(np.abs(back.outputs - lut.outputs)) < 1e-6

    def test_round_trip_title(self):
        lut = CubeLUT(np.zeros((2, 2, 2, 3)), title="roundtrip me")
        assert parse_cube(serialize_cube(lut)).title == "roundtrip me"

    def test_identity_round_trip_32(self):
        grid = default_knot_grid()
        lut = separable_cube(grid, lambda x: np.clip(x, 0, 1))
        back = parse_cube(serialize_cube(lut))
        assert np.max(np.abs(back.outputs - lut.outputs)) < 1e-6


def cross_channel_cube():
    """A fixed non-separable cube: every output channel mixes the axes."""
    axis = np.linspace(0.0, 1.0, 9)
    x, y, z = np.meshgrid(axis, np.sqrt(axis), axis ** 2, indexing="ij")
    outputs = np.stack([0.6 * x + 0.3 * y * z + 0.1 * z,
                        0.2 * x * y + 0.7 * y + 0.1 * z,
                        0.1 * x + 0.2 * y + 0.7 * z * x], axis=-1)
    return CubeLUT(outputs, title="cross-channel", domain_min=[0.0, 0.25, 0.0],
                   domain_max=[1.0, 2.0, 0.5])


class TestSerializeGoldenBytes:
    """Pins the exact bytes the serializer writes, so a faster formatter
    can be checked against them."""

    def check(self, lut, sha256):
        text = serialize_cube(lut)
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_delta_cube(self):
        self.check(make_delta_cube(17), "306e1af1064fc004333b606e5b870fe3"
                                         "2cd118f266f8a5d656a4bb173a7527d5")

    def test_refined_correction_cube(self):
        spec = GammaCorrectionSpec(AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2),
                                   input_range=float(DELTA_KNOTS[16]))
        lut = build_correction_cube(spec, default_knot_grid(), refine=True)
        self.check(lut, "3066a7fca7d133da098aebe6ce146945"
                        "b46937ea3149412d0e8d422bd1ccb0e3")

    def test_refined_chromatic_correction_cube(self):
        spec = GammaCorrectionSpec(make_chromatic_display(),
                                   input_range=float(DELTA_KNOTS[16]))
        lut = build_correction_cube(spec, default_knot_grid(), refine=True)
        self.check(lut, "c5510b13b1ba5e1cc5aacbb9a7435352"
                        "f2e2258018248f1e511f1239eb0dca87")

    def test_signed_zeros(self):
        outputs = np.zeros((2, 2, 2, 3))
        outputs[0, 0, 0] = [-0.0, 0.0, 0.0]
        outputs[1, 0, 0] = [0.5, -0.0, 1.0]
        outputs[1, 1, 1] = [0.0, -0.0, -0.0]
        text = serialize_cube(CubeLUT(outputs))
        assert text == ("LUT_3D_SIZE 2\n-0 0 0\n0.5 -0 1\n" + "0 0 0\n" * 5
                        + "0 -0 -0\n")

    def test_cross_channel_cube(self):
        lut = cross_channel_cube()
        assert lut.separable_channels() is None
        self.check(lut, "d8179eb67353bcf4bc6ef3ab94f78443"
                        "25b69c733441de396a654b7f217b4aad")


class TestKnotGrid:
    def test_default_values_delta(self):
        grid = default_knot_grid()
        assert grid.size == 32
        assert grid.values[2] == pytest.approx(0.0002606)
        assert grid.values[15] == pytest.approx(0.4406)
        assert grid.values[31] == pytest.approx(58.90)

    def test_default_values_optimized(self):
        grid = KnotGrid.from_active(OPTIMIZED_KNOTS)
        assert grid.values[31] == pytest.approx(57.66)

    @pytest.mark.parametrize("kind,table", [
        ("delta", [0.0002606, 0.003104, 0.007305, 0.01288, 0.02056,
                   0.03061, 0.04468, 0.06393, 0.09056, 0.1245,
                   0.1711, 0.2354, 0.3236, 0.4406, 0.5938,
                   0.8165, 1.111, 1.498, 2.039, 2.776,
                   3.780, 5.094, 6.935, 9.441, 12.72,
                   17.32, 23.35, 31.78, 43.27, 58.90]),
        ("optimized", [1.657e-9, 0.002830, 0.007137, 0.01269, 0.02051,
                       0.03086, 0.04479, 0.06444, 0.08989, 0.1252,
                       0.1726, 0.2370, 0.3253, 0.4422, 0.6039,
                       0.8207, 1.104, 1.495, 2.032, 2.756,
                       3.738, 5.083, 6.864, 9.347, 12.62,
                       17.18, 23.24, 31.48, 42.75, 57.66])])
    def test_table_pinned_in_full(self, kind, table):
        # Every entry of both built-in tables, exactly, so that an edit to
        # any one knot fails.
        knots = {"delta": DELTA_KNOTS, "optimized": OPTIMIZED_KNOTS}[kind]
        assert knots.tolist() == table
        grid = default_knot_grid() if kind == "delta" else KnotGrid.from_active(knots)
        assert grid.active_values.tolist() == table

    def test_both_tables_strictly_increasing(self):
        assert np.all(np.diff(DELTA_KNOTS) > 0)
        assert np.all(np.diff(OPTIMIZED_KNOTS) > 0)

    def test_inactive_entries_are_nan(self):
        grid = default_knot_grid()
        assert np.all(np.isnan(grid.values[:2]))
        assert grid.active_values.size == 30

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError):
            KnotGrid.from_active(np.concatenate([[0.5], DELTA_KNOTS[1:]]))

    @pytest.mark.parametrize("active_start", [0, -1])
    def test_active_start_below_1_rejected(self, active_start):
        with pytest.raises(ValidationError, match="active_start"):
            KnotGrid(np.linspace(0.1, 1.0, 8), active_start=active_start)

    def test_csv_round_trip(self):
        grid = default_knot_grid()
        buf = io.StringIO()
        grid.to_csv(buf)
        buf.seek(0)
        back = KnotGrid.from_csv(buf)
        assert np.allclose(back.active_values, grid.active_values, rtol=1e-9)
        assert back.active_start == 3


class TestDeltaCube:
    def test_structure(self):
        lut = make_delta_cube(16)
        red = lut.outputs[..., 0]
        assert np.array_equal(red[15], np.ones((32, 32)))
        assert red.sum() == 32 * 32

    def test_channel_sum_any_m(self):
        for m in (1, 7, 32):
            lut = make_delta_cube(m)
            for c in range(3):
                assert lut.outputs[..., c].sum() == 32 * 32

    def test_index_range(self):
        with pytest.raises(ValidationError):
            make_delta_cube(0)
        with pytest.raises(ValidationError):
            make_delta_cube(33)

    def test_inactive_delta_never_responds(self):
        grid = default_knot_grid()
        tm = CubeTonemap(grid, make_delta_cube(1))
        xs = np.geomspace(grid.active_values[0], 100, 200)
        out = tm.apply(np.column_stack([xs, xs, xs]))
        assert np.max(out) == 0.0


class TestApplyTonemap:
    def test_identity_clamps(self):
        # tonemap None is the identity, clamped to [0, 1] before encoding
        out = post_process(np.array([[0.5, 1.5, 0.0], [2.0, 0.25, 1.0]]), None)
        assert np.array_equal(out, srgb_encode3([[0.5, 1.0, 0.0], [1.0, 0.25, 1.0]]))

    def test_reproduces_knot_values_exactly(self):
        rng = np.random.default_rng(1)
        grid = default_knot_grid()
        lut = random_lut(rng, 32)
        tm = CubeTonemap(grid, lut)
        active = grid.active_values
        idx = rng.integers(0, 30, (60, 3))
        pts = active[idx]
        out = tm.apply(pts)
        expected = lut.outputs[idx[:, 0] + 2, idx[:, 1] + 2, idx[:, 2] + 2]
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_piecewise_linear_along_axes(self):
        rng = np.random.default_rng(2)
        grid = default_knot_grid()
        tm = CubeTonemap(grid, random_lut(rng, 32))
        active = grid.active_values
        for _ in range(40):
            i = rng.integers(0, 29)
            other = active[rng.integers(0, 30, 2)]
            axis = rng.integers(0, 3)

            def point(x):
                p = np.empty(3)
                p[axis] = x
                p[(axis + 1) % 3], p[(axis + 2) % 3] = other
                return p

            lo, hi = active[i], active[i + 1]
            mid = (lo + hi) / 2
            interp = (tm.apply(point(lo)) + tm.apply(point(hi))) / 2
            assert tm.apply(point(mid)) == pytest.approx(interp, abs=1e-12)

    def test_monotone_cube_gives_monotone_tonemap(self):
        grid = default_knot_grid()
        lut = separable_cube(grid, lambda x: np.clip(x / 60.0, 0, 1))
        tm = CubeTonemap(grid, lut)
        xs = np.geomspace(1e-4, 80, 300)
        out = tm.apply(np.column_stack([xs, xs, xs]))
        assert np.all(np.diff(out[:, 0]) >= -1e-15)

    def test_delta_16_triangle(self):
        grid = default_knot_grid()
        tm = CubeTonemap(grid, make_delta_cube(16))

        def scalar(x):
            out = tm.apply(np.array([x, x, x]))
            # all three channels peak together on the diagonal, which pins
            # down the red-fastest data ordering
            assert np.ptp(out) < 1e-15
            return out[0]

        assert scalar(0.4406) == pytest.approx(1.0, abs=1e-12)
        assert scalar(0.3236) == pytest.approx(0.0, abs=1e-12)
        assert scalar(0.5938) == pytest.approx(0.0, abs=1e-12)
        mid_left = (0.3236 + 0.4406) / 2
        assert scalar(mid_left) == pytest.approx(0.5, abs=1e-9)

    def test_delta_triangles_all_active_knots(self):
        grid = default_knot_grid()
        active = grid.active_values
        for m in range(3, 33):
            tm = CubeTonemap(grid, make_delta_cube(m))
            apex = active[m - 3]
            assert tm.apply(np.full(3, apex))[0] == pytest.approx(1.0, abs=1e-12)

    def test_clamp_above_range(self):
        rng = np.random.default_rng(3)
        grid = default_knot_grid()
        tm = CubeTonemap(grid, random_lut(rng, 32))
        top = grid.active_values[-1]
        assert np.array_equal(tm.apply(np.full(3, 100.0)), tm.apply(np.full(3, top)))

    def test_clamp_below_active_range(self):
        rng = np.random.default_rng(4)
        grid = default_knot_grid()
        tm = CubeTonemap(grid, random_lut(rng, 32))
        bottom = grid.active_values[0]
        assert np.array_equal(tm.apply(np.full(3, 1e-7)), tm.apply(np.full(3, bottom)))

    def test_size_mismatch_rejected(self):
        grid = default_knot_grid()
        with pytest.raises(ValidationError):
            CubeTonemap(grid, CubeLUT(np.zeros((2, 2, 2, 3))))

    def test_negative_input_rejected(self):
        grid = default_knot_grid()
        tm = CubeTonemap(grid, make_delta_cube(5))
        with pytest.raises(ValidationError):
            tm.apply(np.array([-0.1, 0.5, 0.5]))

    def test_any_leading_shape(self):
        tm = CubeTonemap(default_knot_grid(), make_delta_cube(16))
        grid_in = np.random.default_rng(4).uniform(0.0, 1.0, (2, 2, 3))
        flat = tm.apply(grid_in.reshape(4, 3))
        assert np.array_equal(tm.apply(grid_in), flat.reshape(2, 2, 3))
        assert np.array_equal(post_process(grid_in, tm),
                              post_process(grid_in.reshape(4, 3), tm).reshape(2, 2, 3))
        assert tm.apply(grid_in[0, 0]).shape == (3,)
        with pytest.raises(ValidationError):
            tm.apply(np.zeros((2, 2)))


    def test_general_matches_grid_interpolator(self):
        # an independent trilinear reference over the active subgrid
        rng = np.random.default_rng(3)
        grid = default_knot_grid()
        lut = random_lut(rng, 32)
        k = grid.active_values
        u = np.exp(rng.uniform(-11, 4.6, (5000, 3)))  # 1.7e-5 .. 99
        assert np.any(u < k[0]) and np.any(u > k[-1])
        reference = RegularGridInterpolator((k, k, k), lut.outputs[2:, 2:, 2:])
        out = CubeTonemap(grid, lut).apply(u)
        assert np.max(np.abs(out - reference(np.clip(u, k[0], k[-1])))) <= 1e-15

    def test_general_output_pinned(self):
        # the bytes of a general-cube tonemap, corners summed in a fixed order
        rng = np.random.default_rng(13)
        lut = random_lut(rng, 32)
        u = np.exp(rng.uniform(-11, 4.6, (20000, 3)))
        out = CubeTonemap(default_knot_grid(), lut).apply(u)
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "3f8dbe8f2e3f8dc7daace68c7dd4109414771c4c3b35b0f8c4377fe1e4975e92")


class TestSeparable:
    def test_separable_channels_detected(self):
        grid = default_knot_grid()
        lut = separable_cube(grid, (lambda x: np.clip(x, 0, 1),
                                    lambda x: np.clip(np.sqrt(x / 60), 0, 1),
                                    lambda x: np.clip(x / 60, 0, 1) ** 2))
        curves = lut.separable_channels()
        assert curves is not None

    def test_non_separable_returns_none(self):
        rng = np.random.default_rng(5)
        assert random_lut(rng, 4).separable_channels() is None

    def test_separable_matches_1d_interp(self):
        grid = default_knot_grid()
        lut = separable_cube(grid, lambda x: np.clip(x / 60.0, 0, 1))
        tm = CubeTonemap(grid, lut)
        curves = lut.separable_channels()
        active = grid.active_values
        rng = np.random.default_rng(6)
        u = rng.uniform(0, 70, (200, 3))
        expected = np.column_stack([
            np.interp(u[:, k], active, curves[k][2:]) for k in range(3)])
        assert tm.apply(u) == pytest.approx(expected, abs=1e-12)

    def test_signed_zero_cell_is_not_separable(self):
        outputs = make_delta_cube(7).outputs.copy()
        outputs[5, 9, 3, 0] = -0.0
        lut = CubeLUT(outputs)
        assert lut.separable_channels() is None
        rows = serialize_cube(lut).splitlines()
        assert rows[1 + 5 + 32 * 9 + 32 ** 2 * 3] == "-0 0 0"
        assert sum("-0" in row for row in rows) == 1

    def test_separable_path_matches_trilinear(self, monkeypatch):
        grid = default_knot_grid()
        lut = separable_cube(grid, (lambda x: np.clip(x / 60.0, 0, 1),
                                    lambda x: np.clip(np.sqrt(x / 60), 0, 1),
                                    lambda x: np.clip(x / 3.0, 0, 1) ** 2))
        knots = grid.active_values
        u = np.random.default_rng(7).uniform(0, 70, (2000, 3))
        assert lut.separable_channels() is not None
        separable = _interpolate(knots, lut, u)
        # the same cells through the general path: the 8 corners summed
        monkeypatch.setattr(CubeLUT, "separable_channels", lambda self: None)
        assert np.max(np.abs(separable - _interpolate(knots, lut, u))) <= 1e-15


def bits(arrays) -> list[bytes]:
    """The bit patterns of each array of ``arrays``."""
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


CURVES = [
    (np.array([0.0, -0.0, 0.25, 1.0, 0.5]), np.array([1.0, 0.125, -0.0, 0.0, 0.75]),
     np.array([0.1 + 0.2, 0.0, 1.0, 1e-9, -0.0])),
    (np.eye(4)[2],) * 3,  # an impulse cube
    build_correction_cube(GammaCorrectionSpec(make_chromatic_display(), input_range=1.111),
                          default_knot_grid(), refine=True).separable_channels(),
    ([-0.0, 1.0], [0.5, 0.0], [1.0, 0.75]),
]


class TestCurveCubes:
    """A cube made from its curves is the cube made from their grid."""

    @pytest.mark.parametrize("curves", CURVES, ids=["signed zeros", "impulse",
                                                    "chromatic correction", "size 2"])
    def test_curve_cube_matches_its_grid_cube(self, curves):
        keys = {"title": "t", "domain_min": [0.0, 0.5, 0.0], "domain_max": [1.0, 2.0, 1e-3]}
        made = CubeLUT._from_curves(curves, **keys)
        dense = CubeLUT(cubelut._separable_outputs(curves), **keys)
        assert made.size == dense.size and made.title == dense.title
        assert bits([made.domain_min, made.domain_max]) == bits([dense.domain_min,
                                                                 dense.domain_max])
        assert bits(made.separable_channels()) == bits(dense.separable_channels())
        text = serialize_cube(made)
        assert text == serialize_cube(dense)
        grid = KnotGrid(np.geomspace(0.01, 10.0, made.size), active_start=1)
        u = np.random.default_rng(8).uniform(0.0, 12.0, (500, 3))
        assert bits([CubeTonemap(grid, made).apply(u)]) == bits([CubeTonemap(grid, dense)
                                                                 .apply(u)])
        assert "outputs" not in vars(made)  # none of the above built the grid
        back = parse_cube(text)
        assert "outputs" not in vars(back)  # read as its curves
        assert outcome(lambda: back) == line_parse(text)  # either's text, one parse
        assert bits([made.outputs]) == bits([dense.outputs])
        assert made.outputs is made.outputs and not made.outputs.flags.writeable

    @pytest.mark.parametrize("curves", [
        ([0.0, 1.5], [0.0, 0.0], [0.0, -0.25]),  # the grid holds b[1] before r[1]
        ([0.0, 1.5], [0.0, 2.0], [0.0, 0.5]),  # g[1] before r[1]
        ([0.0, 0.5], [-1.0, 0.0], [3.0, 0.5]),  # g[0] before b[0]
        ([0.0, 0.5], [0.0, np.nan], [0.0, 7.0]),
    ], ids=["b before r", "g before r", "g before b", "nan"])
    def test_bad_curve_value_named_as_the_grid_check_names_it(self, curves):
        with pytest.raises(ValidationError) as made:
            CubeLUT._from_curves(curves)
        with pytest.raises(ValidationError) as dense:
            CubeLUT(cubelut._separable_outputs(curves))
        assert str(made.value) == str(dense.value)

    def test_signed_zero_in_a_curve_stays(self):
        made = CubeLUT._from_curves(([-0.0, 1.0], [0.0, 0.5], [1.0, -0.0]))
        text = serialize_cube(made)
        assert text.splitlines()[1:3] == ["-0 0 1", "1 0 1"]
        r, g, b = parse_cube(text).separable_channels()
        assert np.signbit(r[0]) and not np.signbit(g[0]) and np.signbit(b[1])
        assert np.signbit(made.outputs[0, 1, 0, 0]) and np.signbit(made.outputs[1, 1, 1, 2])

    def test_curves_are_private_and_read_only(self):
        r = np.array([0.0, 0.5, 1.0])
        made = CubeLUT._from_curves((r, r, r))
        r[0] = 1.0
        assert made.separable_channels()[0][0] == 0.0 and r.flags.writeable
        with pytest.raises(ValueError):
            made.separable_channels()[0][0] = 0.5

    @pytest.mark.parametrize("prefixes", [
        ["0 0 ", "0.5 0 ", "0.25 1 ", "1 1 "],  # red varies with j
        ["0 0 ", "1 0.25 ", "0 1 ", "1 1 "],  # green varies with i
        ["0 0 ", "1 -0 ", "0 1 ", "1 1 "],  # ... by the sign of a zero
    ], ids=["red", "green", "signed zero"])
    def test_layered_file_with_joint_red_green_reads_as_dense_bits(self, prefixes):
        text = "LUT_3D_SIZE 2\n" + "".join(f"{z}\n".join(prefixes) + f"{z}\n"
                                           for z in ["0.125", "1"])
        assert cubelut._read_layers(text, {}) is None  # not the rows of any three curves
        assert outcome(lambda: parse_cube(text)) == line_parse(text)
        assert parse_cube(text).separable_channels() is None

    @pytest.mark.parametrize("text", [
        layered(["0", "1.5"], ["0.5", "0.25"], ["1", "0"]),
        layered(["-0", "1.5"], ["0", "-0.25"], ["1", "-0"]),
        layered(["0", "1", "0.5"], ["0.5", "0.25", "1"], ["1", "-1e-3", "0"]),
    ], ids=["red", "red, green and signed zeros", "blue"])
    def test_out_of_range_layers_warn_as_the_line_walk(self, text):
        assert cubelut._read_layers(text, {}) is None  # declined: the line path clamps
        with mock.patch("hdrpcal.cubelut._read_layers", return_value=None):
            walked = warned_parse(text)
        got = warned_parse(text)
        assert got == walked
        [(category, _, filename, _)] = got[1]
        assert category is CubeRangeWarning and filename == __file__

    def test_separable_round_trips_build_no_grid(self):
        """make, serialize, parse and apply an impulse or a gamma cube on its
        3n curve values alone: the grid builder and the dense constructor fail."""
        built = AssertionError("an n^3 grid was built")
        spec = GammaCorrectionSpec(make_chromatic_display(), input_range=1.111)
        u = np.random.default_rng(9).uniform(0.0, 70.0, (300, 3))
        with mock.patch("hdrpcal.cubelut._separable_outputs", side_effect=built), \
                mock.patch.object(CubeLUT, "__post_init__", side_effect=built):
            cubes = [make_delta_cube(m) for m in (1, 16, 32)] + [
                build_correction_cube(spec, default_knot_grid(), refine=True),
                separable_cube(default_knot_grid(), lambda x: np.clip(x / 60.0, 0, 1))]
            backs = [parse_cube(io.StringIO(serialize_cube(lut))) for lut in cubes]
            applied = [CubeTonemap(default_knot_grid(), lut).apply(u) for lut in backs]
            # the knot fit's normal equations read the training cubes' curves
            estimate_knots_optimize([(generate_samples(
                200, seed=seed, tonemap=CubeTonemap(default_knot_grid(), lut), quantize=True,
                exposure_choices=(-4.0, 0.0, 4.0)), lut) for seed, lut in enumerate(backs[3:])],
                default_knot_grid())
        assert not any("outputs" in vars(lut) for lut in cubes + backs)
        for lut, back, out in zip(cubes, backs, applied):
            assert outcome(lambda: back) == line_parse(serialize_cube(lut))
            assert bits([out]) == bits([CubeTonemap(default_knot_grid(),
                                                    CubeLUT(back.outputs)).apply(u)])
