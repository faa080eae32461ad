import hashlib
import io
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from hdrpcal.calibrate import (GammaCorrectionSpec, build_correction_cube,
                               estimate_knots_optimize)
from hdrpcal.cubelut import (CubeTonemap, DELTA_KNOTS, default_knot_grid,
                             make_delta_cube, separable_cube)
from hdrpcal.display import AchromaticDisplay, ChromaticDisplay
from hdrpcal.errors import SampleFormatError, ValidationError
from hdrpcal.harness import (CAMERA_DIRECTION, SAMPLE_CSV_HEADER, SampleBatch,
                             generate_samples, load_samples, predict_values,
                             save_samples, simulate_characterization,
                             validate_model)

COLUMNS = ("lambertian", "m", "n", "d", "i_d", "l", "a", "i_a", "e", "v")


def assert_batches_identical(a, b):
    assert len(a) == len(b)
    for name in COLUMNS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def cube_tonemap():
    grid = default_knot_grid()
    lut = separable_cube(grid, lambda x: np.clip(x / 60.0, 0, 1))
    return CubeTonemap(grid, lut)


class TestGeneration:
    def test_deterministic(self):
        a = generate_samples(25, seed=42)
        b = generate_samples(25, seed=42)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.n, b.n)

    def test_counter_based_prefix_property(self):
        # the first k samples do not depend on the requested count
        long = generate_samples(20, seed=9)
        short = generate_samples(8, seed=9)
        assert np.array_equal(short.m, long.m[:8])
        assert np.array_equal(short.l, long.l[:8])

    def test_seed_changes_output(self):
        a = generate_samples(5, seed=1)
        b = generate_samples(5, seed=2)
        assert not np.array_equal(a.m[0], b.m[0])

    def test_unlit_ignores_lighting_fields(self):
        samples = generate_samples(10, seed=3, kind="unlit")
        assert samples.kinds.tolist() == ["unlit"] * 10
        assert np.array_equal(samples.n, np.zeros((10, 3)))
        assert np.all(samples.i_d == 0.0)
        assert np.allclose(samples.v, samples.m, atol=1e-12)

    def test_normals_face_camera(self):
        samples = generate_samples(200, seed=4)
        assert np.all(samples.n @ CAMERA_DIRECTION >= 0)

    def test_unit_vectors(self):
        samples = generate_samples(100, seed=5)
        assert np.all(np.abs(np.linalg.norm(samples.n, axis=1) - 1) < 1e-9)
        assert np.all(np.abs(np.linalg.norm(samples.l, axis=1) - 1) < 1e-9)

    def test_ranges_respected(self):
        samples = generate_samples(300, seed=6,
                                   directional_intensity_range=(0.5, 1.5),
                                   ambient_intensity_range=(0.0, 0.25),
                                   ambient_color_max=2.0,
                                   exposure_choices=(-1.0, 3.0))
        assert np.all((0.5 <= samples.i_d) & (samples.i_d <= 1.5))
        assert np.all((0.0 <= samples.i_a) & (samples.i_a <= 0.25))
        assert np.all(samples.a <= 2.0)
        assert np.all(np.isin(samples.e, (-1.0, 3.0)))

    def test_invalid_ranges(self):
        with pytest.raises(ValidationError):
            generate_samples(10, seed=0, directional_intensity_range=(2.0, 1.0))
        with pytest.raises(ValidationError):
            generate_samples(0, seed=0)

    def test_prefix_property_every_column(self):
        tm = cube_tonemap()
        for kind in ("lambertian", "unlit"):
            long = generate_samples(20, seed=9, kind=kind, tonemap=tm,
                                    exposure_choices=(-2.0, 0.0, 5.0))
            short = generate_samples(8, seed=9, kind=kind, tonemap=tm,
                                     exposure_choices=(-2.0, 0.0, 5.0))
            assert_batches_identical(long[:8], short)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            generate_samples(3, seed=seed)

    def test_quantized_values_on_grid(self):
        samples = generate_samples(50, seed=7, quantize=True)
        v = samples.v * 255
        assert np.allclose(v, np.round(v), atol=1e-9)


class TestSampleBatch:
    def test_indexing_and_iteration(self):
        batch = generate_samples(6, seed=21)
        part = batch[1:3]
        assert isinstance(part, SampleBatch) and len(part) == 2
        for name in COLUMNS:
            assert np.array_equal(getattr(part, name), getattr(batch, name)[1:3])
        mask = np.array([True, False] * 3)
        assert_batches_identical(batch[mask], batch[0::2])

    def test_no_integer_index_or_iteration(self):
        batch = generate_samples(3, seed=0)
        with pytest.raises(TypeError, match="slice or boolean mask"):
            batch[0]
        with pytest.raises(TypeError, match="slice or boolean mask"):
            batch[np.int64(-1)]
        with pytest.raises(TypeError, match="not iterable"):
            list(batch)

    def test_concatenation(self):
        a = generate_samples(4, seed=22)
        b = generate_samples(3, seed=23, kind="unlit")
        both = a + b
        assert len(both) == 7
        assert both.kinds.tolist() == ["lambertian"] * 4 + ["unlit"] * 3
        assert_batches_identical(both[4:], b)

    def test_columns_read_only(self):
        batch = generate_samples(3, seed=24)
        with pytest.raises(ValueError):
            batch.m[0, 0] = 0.5

    def test_rows_validated_on_entry(self):
        batch = generate_samples(1, seed=25)
        with pytest.raises(ValidationError, match="finite"):
            replace(batch, e=[float("nan")])
        with pytest.raises(ValidationError, match="shape"):
            replace(batch, v=np.zeros((1, 2)))

    def test_negative_ambient_intensity_rejected(self):
        # Accepted, such a row would predict a negative u and a silent v = 0.
        batch = generate_samples(3, seed=25)
        with pytest.raises(ValidationError,
                           match="^sample 1: negative light parameters$"):
            replace(batch, i_a=[0.5, -5.0, 0.5])

    def test_value_outside_unit_range_never_reaches_validation(self):
        # Accepted, such a batch would score a median error of about 1750/255.
        batch = generate_samples(3, seed=25)
        with pytest.raises(ValidationError, match=re.escape(
                "sample 0: post-processed value outside [0, 1]")):
            validate_model(replace(batch, v=np.full((3, 3), 7.0)))


GAIN_CALLS = {
    "predict_values": lambda batch, c: predict_values(batch, scale_constant=c),
    "generate_samples": lambda batch, c: generate_samples(4, seed=0, scale_constant=c),
    "validate_model": lambda batch, c: validate_model(batch, scale_constant=c),
    "estimate_knots_optimize": lambda batch, c: estimate_knots_optimize(
        [(batch, make_delta_cube(8)), (batch, make_delta_cube(9))],
        default_knot_grid(), scale_constant=c),
}


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("call", GAIN_CALLS.values(), ids=list(GAIN_CALLS))
def test_bad_scale_constant_rejected(call, c):
    batch = generate_samples(20, seed=28)
    with pytest.raises(ValidationError, match="^scale constant must be > 0$"):
        call(batch, c)


class TestSampleCsv:
    def test_round_trip(self):
        samples = generate_samples(40, seed=8) + generate_samples(10, seed=9,
                                                                  kind="unlit")
        buf = io.StringIO()
        save_samples(samples, buf)
        buf.seek(0)
        back = load_samples(buf)
        assert len(back) == len(samples)
        assert np.array_equal(back.kinds, samples.kinds)
        assert back.v == pytest.approx(samples.v, abs=1e-9)
        assert back.n == pytest.approx(samples.n, abs=1e-9)
        assert np.array_equal(back.e, samples.e)

    def test_round_trip_bit_exact(self):
        samples = (generate_samples(30, seed=8, quantize=True,
                                    exposure_choices=(-3.0, 0.0, 7.0))
                   + generate_samples(10, seed=9, kind="unlit"))
        buf = io.StringIO()
        save_samples(samples, buf)
        back = load_samples(io.StringIO(buf.getvalue()))
        assert_batches_identical(back, samples)
        again = io.StringIO()
        save_samples(back, again)
        assert again.getvalue() == buf.getvalue()

    def test_csv_matches_row_writer(self):
        samples = (generate_samples(12, seed=32, quantize=True,
                                    exposure_choices=(-1.5, 4.0))
                   + generate_samples(3, seed=33, kind="unlit"))
        reference = [SAMPLE_CSV_HEADER + "\n"]
        for i, kind in enumerate(samples.kinds):
            fields = np.concatenate([
                samples.m[i], samples.n[i], samples.d[i], [samples.i_d[i]],
                samples.l[i], samples.a[i], [samples.i_a[i]], [samples.e[i]],
                samples.v[i]])
            reference.append(kind + "," + ",".join(f"{x:.17g}" for x in fields)
                             + "\n")
        buf = io.StringIO()
        save_samples(samples, buf)
        assert buf.getvalue() == "".join(reference)

    # One edit per row and the message the row-by-row reader gave for it,
    # in that reader's per-row precedence.
    BAD_ROWS = [
        ({2: "1.5"}, "material color outside [0, 1]"),
        ({22: "1"}, "expected 22 columns, got 23"),
        ({0: "phong"}, "unknown kind 'phong'"),
        ({19: "nan"}, "non-finite field"),
        ({20: "-0.1"}, "post-processed value outside [0, 1]"),
        ({5: "0.5"}, "non-unit normal"),
        ({12: "0.2"}, "non-unit light direction"),
        ({7: "1.2"}, "light color outside [0, 1]"),
        ({14: "-1"}, "negative light parameters"),
        ({10: "-1"}, "negative light parameters"),
        ({17: "-1"}, "negative light parameters"),
        ({5: "x"}, "non-numeric field"),
        ({0: "phong", 3: "oops"}, "non-numeric field"),
        ({2: "2", 5: "0.4"}, "material color outside [0, 1]"),
        ({19: "inf", 20: "2"}, "non-finite field"),
        ({5: "0.4", 8: "3"}, "non-unit normal"),
    ]

    @staticmethod
    def _edited(line, edit):
        parts = line.split(",")
        for k, value in edit.items():
            if k < len(parts):
                parts[k] = value
            else:
                parts.append(value)
        return ",".join(parts)

    def test_bad_rows_reported_in_line_order(self):
        samples = generate_samples(len(self.BAD_ROWS) + 2, seed=26)
        buf = io.StringIO()
        save_samples(samples, buf)
        lines = buf.getvalue().splitlines()
        for i, (edit, _) in enumerate(self.BAD_ROWS):
            lines[i + 2] = self._edited(lines[i + 2], edit)
        lines.insert(3, "# a comment")
        lines.insert(5, "")
        with pytest.raises(SampleFormatError) as info:
            load_samples(io.StringIO("\n".join(lines) + "\n"))
        rows = (3, 5) + tuple(range(7, 7 + len(self.BAD_ROWS) - 2))
        assert info.value.rows == rows
        detail = "; ".join(f"line {ln}: {msg}" for ln, (_, msg)
                           in zip(rows[:5], self.BAD_ROWS))
        assert str(info.value) == (
            f"rejected {len(self.BAD_ROWS)} sample row(s): {detail} "
            f"[rows: {', '.join(str(r) for r in rows)}]")

    @pytest.mark.parametrize("edit,message", BAD_ROWS)
    def test_single_bad_row_message(self, edit, message):
        buf = io.StringIO()
        save_samples(generate_samples(1, seed=27), buf)
        line = self._edited(buf.getvalue().splitlines()[1], edit)
        with pytest.raises(SampleFormatError) as info:
            load_samples(io.StringIO(f"{SAMPLE_CSV_HEADER}\n{line}\n"))
        assert str(info.value) == (
            f"rejected 1 sample row(s): line 2: {message} [rows: 2]")

    def test_bad_fields_in_a_long_table(self):
        # The reader bisects a table whose fields fail to convert; every bad
        # row is still found, at either end and side by side in the middle.
        buf = io.StringIO()
        save_samples(generate_samples(3000, seed=34), buf)
        lines = buf.getvalue().splitlines()
        for i, edit in ((1, {1: "x"}), (1500, {19: "0.5.5"}), (1501, {4: "--1"}),
                        (2000, {22: "1"}), (3000, {21: "x"})):
            lines[i] = self._edited(lines[i], edit)
        with pytest.raises(SampleFormatError) as info:
            load_samples(io.StringIO("\n".join(lines) + "\n"))
        assert str(info.value) == (
            "rejected 5 sample row(s): line 2: non-numeric field; "
            "line 1501: non-numeric field; line 1502: non-numeric field; "
            "line 2001: expected 22 columns, got 23; line 3001: non-numeric "
            "field [rows: 2, 1501, 1502, 2001, 3001]")

    def test_unlit_rows_skip_lighting_checks(self):
        buf = io.StringIO()
        save_samples(generate_samples(1, seed=28, kind="unlit"), buf)
        line = self._edited(buf.getvalue().splitlines()[1], {4: "7", 14: "-1"})
        back = load_samples(io.StringIO(f"{SAMPLE_CSV_HEADER}\n{line}\n"))
        assert back.kinds.tolist() == ["unlit"]
        assert back.n[0, 0] == 7.0

    def test_bad_normal_rejected_with_row(self):
        samples = generate_samples(3, seed=10)
        buf = io.StringIO()
        save_samples(samples, buf)
        lines = buf.getvalue().splitlines()
        parts = lines[2].split(",")
        parts[4:7] = ["0", "0", "0.9"]
        lines[2] = ",".join(parts)
        with pytest.raises(SampleFormatError) as info:
            load_samples(io.StringIO("\n".join(lines) + "\n"))
        assert info.value.rows == (3,)

    def test_non_numeric_field(self):
        samples = generate_samples(2, seed=11)
        buf = io.StringIO()
        save_samples(samples, buf)
        text = buf.getvalue().replace(f"{samples.e[1]:.17g}", "oops", 1)
        with pytest.raises(SampleFormatError):
            load_samples(io.StringIO(text))

    def test_header_mismatch(self):
        with pytest.raises(SampleFormatError, match="header"):
            load_samples(io.StringIO("kind,m_r\nlambertian,0\n"))

    def test_empty_data_section(self):
        buf = io.StringIO()
        save_samples(generate_samples(1, seed=0)[:0], buf)
        buf.seek(0)
        assert len(load_samples(buf)) == 0

    def test_ingest_tolerance_renormalizes(self):
        samples = generate_samples(1, seed=12)
        buf = io.StringIO()
        save_samples(samples, buf)
        lines = buf.getvalue().splitlines()
        parts = lines[1].split(",")
        n = samples.n[0] * (1 + 5e-7)  # within the 1e-6 ingest tolerance
        parts[4:7] = [f"{x:.17g}" for x in n]
        back = load_samples(io.StringIO("\n".join([lines[0], ",".join(parts)]) + "\n"))
        assert abs(np.linalg.norm(back.n[0]) - 1.0) < 1e-12


class TestValidateModel:
    def test_oracle_self_consistency_identity(self):
        samples = generate_samples(300, seed=13)
        report = validate_model(samples)
        assert report.median_abs_255 <= 1e-9 * 255

    def test_oracle_self_consistency_with_cube(self):
        tm = cube_tonemap()
        samples = generate_samples(300, seed=14, tonemap=tm)
        report = validate_model(samples, tonemap=tm)
        assert report.median_abs_255 <= 1e-9 * 255

    def test_tonemap_output_outside_unit_range_rejected(self):
        class Broken:
            def apply(self, u):
                return np.full_like(u, 1.5)

        with pytest.raises(ValidationError, match="tonemap output"):
            validate_model(generate_samples(5, seed=29), tonemap=Broken())

    def test_oracle_self_consistency_unlit(self):
        samples = generate_samples(200, seed=15, kind="unlit")
        assert validate_model(samples).median_abs_255 <= 1e-9 * 255

    def test_quantization_envelope(self):
        samples = generate_samples(400, seed=16, quantize=True)
        report = validate_model(samples)
        assert np.max(np.abs(report.errors)) <= 0.5 / 255 + 1e-12
        assert report.median_abs_255 <= 0.5

    def test_quantize_assumption_matches_generation(self):
        samples = generate_samples(200, seed=28, quantize=True)
        report = validate_model(samples, quantize=True)
        assert report.median_abs_255 == 0.0

    def test_median_definition(self):
        samples = generate_samples(1, seed=17, kind="unlit")
        errs = np.array([1.0, 2.0, 3.0]) / 255.0
        doctored = replace(samples, v=np.clip(samples.v - errs, 0, 1))
        report = validate_model(doctored)
        assert report.median_abs_255 == pytest.approx(2.0, abs=1e-6)

    def test_material_filter_counts(self):
        samples = generate_samples(500, seed=18)
        report = validate_model(samples, material_floor=0.2)
        med_m = samples.m.min(axis=1)
        assert report.n_excluded == int(np.sum(med_m < 0.2))

    def test_association_table_covers_all_channels(self):
        samples = generate_samples(300, seed=27, quantize=True)
        report = validate_model(samples)
        assert report.association.shape == (10, 4)
        assert report.association[0, 0] == 0.0
        assert report.association[-1, 1] == 1.0
        assert int(report.association[:, 2].sum()) == 3 * len(samples)

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            validate_model(generate_samples(1, seed=0)[:0])

    def test_csv_summary_lines(self):
        samples = generate_samples(20, seed=19)
        report = validate_model(samples)
        buf = io.StringIO()
        report.to_csv(buf)
        text = buf.getvalue()
        assert "# median_abs_error_255" in text
        assert text.count("\n") == 1 + len(samples) + 4

    def test_csv_matches_row_writer(self):
        samples = generate_samples(12, seed=29, quantize=True) + \
            generate_samples(3, seed=30, kind="unlit")
        report = validate_model(samples, material_floor=0.3)
        reference = io.StringIO()
        reference.write("kind,pred_r,pred_g,pred_b,actual_r,actual_g,actual_b,"
                        "err_r,err_g,err_b\n")
        for kind, pred, act, err in zip(report.kinds, report.predicted,
                                        report.actual, report.errors):
            nums = np.concatenate([pred, act, err])
            reference.write(kind + "," + ",".join(f"{x:.10g}" for x in nums)
                            + "\n")
        reference.write(f"# median_abs_error_255 = {report.median_abs_255:.10g}\n")
        reference.write(f"# filtered_median_abs_error_255 = "
                        f"{report.filtered_median_abs_255:.10g}\n")
        reference.write(f"# excluded_by_material_floor = {report.n_excluded}\n")
        reference.write(f"# material_floor = {report.material_floor:.10g}\n")
        buf = io.StringIO()
        report.to_csv(buf)
        assert buf.getvalue() == reference.getvalue()

    def test_svg_well_formed(self):
        samples = generate_samples(30, seed=20, quantize=True)
        report = validate_model(samples)
        buf = io.StringIO()
        report.to_svg(buf)
        root = ET.fromstring(buf.getvalue())
        assert root.tag.endswith("svg")
        assert len(list(root.iter())) > 40

    def test_svg_golden_bytes(self):
        # Pins the point formatting, which runs on whole coordinate arrays.
        report = validate_model(generate_samples(30, seed=20, quantize=True))
        buf = io.StringIO()
        report.to_svg(buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "b9054282d5795858376048b402f755c78b76bdf5226159fb402667c9d2aabe9c")


class TestSimulateCharacterization:
    def test_identity_composition(self):
        disp = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        levels = np.linspace(0, 1, 11)
        u, v, lum = simulate_characterization(disp, levels)
        assert np.array_equal(u, np.repeat(levels[:, None], 3, axis=1))
        assert lum.shape == (11,)
        for v_i, lum_i in zip(v, lum):
            assert lum_i == pytest.approx(disp.luminance(v_i[0]), rel=1e-12)

    def test_correction_cube_linearizes_luminance(self):
        disp = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        r = float(DELTA_KNOTS[16])
        spec = GammaCorrectionSpec(disp, input_range=r)
        grid = default_knot_grid()
        tm = CubeTonemap(grid, build_correction_cube(spec, grid, refine=True))
        levels = np.geomspace(0.02, 1.0, 120)
        _, _, lum = simulate_characterization(disp, levels, tonemap=tm)
        target = (disp.l0 + disp.l1) * levels / r
        assert np.max(np.abs(lum - target)) / (disp.l0 + disp.l1) <= 0.005

    def test_chromatic_ramps_linear_coefficients(self):
        pr = np.array([41.24, 21.26, 1.93])
        pg = np.array([35.76, 71.52, 11.92])
        pb = np.array([18.05, 7.22, 95.03])
        w = np.array([0.01, 0.02, 0.03])
        disp = ChromaticDisplay(primary_r=pr, primary_g=pg, primary_b=pb,
                                background=w[0] * pr + w[1] * pg + w[2] * pb,
                                gammas=np.array([1.8, 2.2, 2.6]), weights=w)
        r = float(DELTA_KNOTS[16])
        spec = GammaCorrectionSpec(disp, input_range=r)
        grid = default_knot_grid()
        tm = CubeTonemap(grid, build_correction_cube(spec, grid, refine=True))
        levels = np.linspace(0.05, 1.0, 60)
        u_all, _, xyz = simulate_characterization(disp, levels, tonemap=tm,
                                                  mode="chromatic")
        assert xyz.shape == (3 * levels.size, 3)
        matrix = disp.primaries
        for k in range(3):
            rows = u_all[:, k] > 0
            coef = np.linalg.solve(matrix, (xyz[rows] - disp.background).T)[k] \
                + disp.weights[k]
            u = u_all[rows, k]
            target = (1 + disp.weights[k]) * u / r
            scale = (1 + disp.weights[k]) / r
            assert np.max(np.abs(coef - target)) / scale <= 0.01

    def test_unknown_mode(self):
        disp = AchromaticDisplay(l0=1.0, l1=10.0, gamma=2.0)
        with pytest.raises(ValidationError):
            simulate_characterization(disp, [0.5], mode="spectral")
