import hashlib
import io

import numpy as np
import pytest

from hdrpcal.calibrate import GammaCorrectionSpec, build_correction_cube
from hdrpcal.colorspace import srgb_encode3
from hdrpcal.cubelut import (CubeLUT, CubeRangeWarning, CubeTonemap,
                             DELTA_KNOTS, KnotGrid, OPTIMIZED_KNOTS,
                             _interpolate, _trilinear, default_knot_grid,
                             make_delta_cube, parse_cube, separable_cube,
                             serialize_cube)
from hdrpcal.display import AchromaticDisplay
from hdrpcal.errors import (CubeFormatError, CubeTruncationError,
                            UnsupportedCubeError, ValidationError)
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
        grid = default_knot_grid("delta")
        assert grid.size == 32
        assert grid.values[2] == pytest.approx(0.0002606)
        assert grid.values[15] == pytest.approx(0.4406)
        assert grid.values[31] == pytest.approx(58.90)

    def test_default_values_optimized(self):
        grid = default_knot_grid("optimized")
        assert grid.values[31] == pytest.approx(57.66)

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

    def test_unknown_source(self):
        with pytest.raises(ValidationError):
            default_knot_grid("guessed")


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

    def test_separable_path_matches_trilinear(self):
        grid = default_knot_grid()
        lut = separable_cube(grid, (lambda x: np.clip(x / 60.0, 0, 1),
                                    lambda x: np.clip(np.sqrt(x / 60), 0, 1),
                                    lambda x: np.clip(x / 3.0, 0, 1) ** 2))
        knots = grid.active_values
        u = np.random.default_rng(7).uniform(0, 70, (2000, 3))
        trilinear = _trilinear(knots, lut.outputs[2:, 2:, 2:],
                               np.clip(u, knots[0], knots[-1]))
        assert lut.separable_channels() is not None
        assert np.max(np.abs(_interpolate(knots, lut, u) - trilinear)) <= 1e-15
