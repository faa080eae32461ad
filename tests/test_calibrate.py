import io
import re
from dataclasses import replace

import numpy as np
import pytest

from hdrpcal import calibrate
from hdrpcal.calibrate import (HOLDOUT_FRACTION, DeltaSweep, GammaCorrectionSpec,
                               _knot_jacobian, _knots_from_log_gaps, _predict,
                               _sweep_apex, build_correction_cube, estimate_knots_delta,
                               estimate_knots_optimize, estimate_scale_constant,
                               gamma_tonemap, load_sweeps)
from hdrpcal.colorspace import srgb_decode, srgb_encode, srgb_encode3
from hdrpcal.cubelut import (CubeLUT, CubeTonemap, DELTA_KNOTS, KnotGrid,
                             default_knot_grid, make_delta_cube, parse_cube,
                             separable_cube, serialize_cube)
from hdrpcal.display import AchromaticDisplay, ChromaticDisplay
from hdrpcal.errors import FitError, ValidationError
from hdrpcal.harness import MATERIAL_FLOOR, generate_samples, predict_unprocessed

DISPLAY = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)


def make_chromatic_display():
    pr = np.array([41.24, 21.26, 1.93])
    pg = np.array([35.76, 71.52, 11.92])
    pb = np.array([18.05, 7.22, 95.03])
    w = np.array([0.01, 0.02, 0.03])
    return ChromaticDisplay(primary_r=pr, primary_g=pg, primary_b=pb,
                            background=w[0] * pr + w[1] * pg + w[2] * pb,
                            gammas=np.array([1.8, 2.2, 2.6]), weights=w)


class TestGammaTonemapAchromatic:
    def test_zero_and_range_endpoints(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        assert spec.channel_tonemaps()[0](0.0) == 0.0
        assert type(spec.channel_tonemaps()[0](0.5)) is float
        assert spec.channel_tonemaps()[0](1.0) == pytest.approx(1.0, abs=1e-15)

    def test_above_range_clamps(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        assert spec.channel_tonemaps()[0](7.0) == pytest.approx(1.0, abs=1e-15)

    def test_reduces_to_srgb_for_trivial_display(self):
        # w = 0 and gamma = 1 leave f = s
        spec = GammaCorrectionSpec(AchromaticDisplay(l0=0.0, l1=100.0, gamma=1.0))
        assert spec.channel_tonemaps()[0](0.5) == pytest.approx(
            0.21404114048223255, abs=1e-15)

    def test_cutoff_location(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        # w = 2/98 makes r*w/(1+w) exactly 0.02
        assert spec.cutoffs == pytest.approx(np.full(3, 0.02), abs=1e-15)

    def test_flat_below_cutoff(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        u = np.linspace(0, 0.0199, 64)
        assert np.all(spec.channel_tonemaps()[0](u) == 0.0)

    def test_exact_proportionality(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        u = np.linspace(0.02, 1.0, 512)
        lum = DISPLAY.luminance(srgb_encode(spec.channel_tonemaps()[0](u)))
        assert np.max(np.abs(lum - 100.0 * u) / (100.0 * u)) < 1e-9

    def test_flat_region_luminance(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        u = np.linspace(0, 0.0199, 64)
        lum = DISPLAY.luminance(srgb_encode(spec.channel_tonemaps()[0](u)))
        assert np.all(lum == DISPLAY.l0)

    def test_triplets_match_channel_callables_bitwise(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=float(DELTA_KNOTS[16]))
        u = np.random.default_rng(3).uniform(0.0, 1.2, (40, 5, 3))
        out = gamma_tonemap(spec, u)
        for k, f in enumerate(spec.channel_tonemaps()):
            assert np.array_equal(out[..., k].view(np.uint64),
                                  f(u[..., k]).view(np.uint64))


class TestGammaTonemapChromatic:
    def test_endpoints(self):
        spec = GammaCorrectionSpec(make_chromatic_display())
        assert np.array_equal(gamma_tonemap(spec, np.zeros(3)), np.zeros(3))
        assert gamma_tonemap(spec, np.ones(3)) == pytest.approx(
            np.ones(3), abs=1e-15)

    def test_one_triplet_matches_its_row_in_a_batch_bitwise(self):
        spec = GammaCorrectionSpec(make_chromatic_display(), input_range=1.111)
        u = np.random.default_rng(4).uniform(0.0, 1.2, (200, 3))
        out = gamma_tonemap(spec, u)
        for row, expected in zip(u, out):
            assert np.array_equal(gamma_tonemap(spec, row).view(np.uint64),
                                  expected.view(np.uint64))

    def test_rejects_non_triplets(self):
        spec = GammaCorrectionSpec(make_chromatic_display())
        with pytest.raises(ValidationError):
            gamma_tonemap(spec, np.zeros((4, 2)))

    def test_reduces_to_achromatic_form(self):
        pr, pg, pb = np.eye(3) * 50 + 1
        disp = ChromaticDisplay(primary_r=pr, primary_g=pg, primary_b=pb,
                                background=np.zeros(3), gammas=np.ones(3),
                                weights=np.zeros(3))
        spec = GammaCorrectionSpec(disp)
        u = np.full(3, 0.5)
        assert gamma_tonemap(spec, u) == pytest.approx(
            srgb_decode(u), abs=1e-15)

    def test_channel_proportionality(self):
        # h_k(v_k) + w_k is proportional to u_k above the cutoff
        disp = make_chromatic_display()
        spec = GammaCorrectionSpec(disp)
        u = np.linspace(0.05, 1.0, 200)
        for k in range(3):
            stim = np.zeros((u.size, 3))
            stim[:, k] = u
            v = srgb_encode3(gamma_tonemap(spec, stim))
            coef = v[:, k] ** disp.gammas[k] + disp.weights[k]
            expected = (1 + disp.weights[k]) * u
            assert np.max(np.abs(coef - expected) / expected) < 1e-9

    def test_negative_weights_rejected(self):
        disp = make_chromatic_display()
        bad = ChromaticDisplay(primary_r=disp.primary_r, primary_g=disp.primary_g,
                               primary_b=disp.primary_b, background=disp.background,
                               gammas=disp.gammas,
                               weights=np.array([-0.01, 0.02, 0.03]))
        with pytest.raises(ValidationError):
            GammaCorrectionSpec(bad)


@pytest.mark.parametrize("chromatic", [False, True])
def test_channel_tonemap_scalar_matches_its_array_element_bitwise(chromatic):
    spec = GammaCorrectionSpec(make_chromatic_display() if chromatic else DISPLAY)
    u = np.random.default_rng(4).uniform(0.0, 1.0, 2000)
    for f in spec.channel_tonemaps():
        scalars = [f(float(x)) for x in u]
        assert all(type(y) is float for y in scalars)
        assert np.array_equal(np.array(scalars).view(np.uint64), f(u).view(np.uint64))


class TestBuildCorrectionCube:
    def test_point_construction_at_knot(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        lut = build_correction_cube(spec, refine=False)
        expected = spec.channel_tonemaps()[0](0.4406)
        assert lut.outputs[15, 0, 0, 0] == pytest.approx(expected, abs=1e-12)
        assert lut.outputs[0, 15, 0, 1] == pytest.approx(expected, abs=1e-12)

    def test_achromatic_is_three_equal_channels(self):
        chrom = make_chromatic_display()
        equal = replace(chrom, gammas=np.full(3, DISPLAY.gamma),
                        weights=np.full(3, DISPLAY.w))
        for refine in (False, True):
            cubes = [build_correction_cube(GammaCorrectionSpec(d, float(DELTA_KNOTS[16])),
                                           refine=refine).outputs
                     for d in (DISPLAY, equal)]
            assert np.array_equal(*cubes)

    def test_trivial_display_point_value_is_srgb(self):
        # w = 0 and gamma = 1 make f = s, so the unrefined output at knot 16
        # is s(0.4406), evaluated independently
        spec = GammaCorrectionSpec(AchromaticDisplay(l0=0.0, l1=100.0, gamma=1.0),
                                   input_range=1.0)
        lut = build_correction_cube(spec, refine=False)
        assert lut.outputs[15, 0, 0, 0] == pytest.approx(0.16312075067075207,
                                                         abs=1e-12)

    def test_separable_red_depends_only_on_i(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        lut = build_correction_cube(spec, refine=False)
        assert lut.separable_channels() is not None

    def test_inactive_knots_copy_first_active(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1.0)
        lut = build_correction_cube(spec, refine=False)
        assert lut.outputs[0, 0, 0, 0] == lut.outputs[2, 0, 0, 0]
        assert lut.outputs[1, 0, 0, 1] == lut.outputs[0, 2, 0, 1]

    def test_refinement_never_worse_on_dense_grid(self):
        grid = default_knot_grid()
        spec = GammaCorrectionSpec(DISPLAY, input_range=float(DELTA_KNOTS[16]))
        point = build_correction_cube(spec, grid, refine=False)
        refined = build_correction_cube(spec, grid, refine=True)
        xs = np.unique(np.concatenate(
            [[0.0, spec.input_range],
             np.geomspace(grid.active_values[0], spec.input_range, 2048)]))
        target = spec.channel_tonemaps()[0](xs)

        def sse(lut):
            tm = CubeTonemap(grid, lut)
            out = tm.apply(np.column_stack([xs, xs, xs]))[:, 0]
            return float(np.sum((out - target) ** 2))

        assert sse(refined) <= sse(point) + 1e-15

    def test_knot_aligned_range_tracks_proportionality(self):
        # r on a knot keeps the top kink representable; full-scale luminance
        # error stays within 0.5% down to u = 0.02
        r = float(DELTA_KNOTS[16])
        spec = GammaCorrectionSpec(DISPLAY, input_range=r)
        grid = default_knot_grid()
        lut = build_correction_cube(spec, grid, refine=True)
        tm = CubeTonemap(grid, lut)
        u = np.geomspace(0.02, 1.0, 800)
        lum = DISPLAY.luminance(srgb_encode(tm.apply(np.column_stack([u] * 3))[:, 0]))
        target = (DISPLAY.l0 + DISPLAY.l1) * u / r
        assert np.max(np.abs(lum - target)) / (DISPLAY.l0 + DISPLAY.l1) <= 0.005

    def test_range_below_first_knot_rejected(self):
        spec = GammaCorrectionSpec(DISPLAY, input_range=1e-5)
        with pytest.raises(ValidationError):
            build_correction_cube(spec, refine=True)

    def test_solver_failure_keeps_point_construction(self, monkeypatch):
        # one solve frees one knot: each channel stops at the cap unsolved
        spec = GammaCorrectionSpec(make_chromatic_display(), input_range=1.111)
        monkeypatch.setattr(calibrate, "REFINE_MAX_SOLVES", 1)
        with pytest.warns(UserWarning) as seen:
            lut = build_correction_cube(spec, refine=True)
        assert [str(w.message) for w in seen] == [
            f"refinement did not improve channel {c}; keeping point construction"
            for c in range(3)]
        assert {w.filename for w in seen} == {__file__}
        point = build_correction_cube(spec)
        assert np.array(lut.separable_channels()).tobytes() == \
            np.array(point.separable_channels()).tobytes()


def refine_displays():
    """Eight achromatic and seven chromatic displays, some with zero
    background and gamma 1."""
    displays = [AchromaticDisplay(l0=l0, l1=l1, gamma=g) for l0, l1, g in (
        (2.0, 98.0, 2.2), (0.0, 100.0, 1.0), (0.5, 200.0, 2.4), (5.0, 50.0, 1.8),
        (0.1, 300.0, 2.6), (1.0, 99.0, 3.0), (0.0, 80.0, 2.2), (10.0, 90.0, 2.0))]
    chrom = make_chromatic_display()
    for w, gammas in (([0.01, 0.02, 0.03], [1.8, 2.2, 2.6]), ([0, 0, 0], [2.2] * 3),
                      ([0.05, 0.01, 0.0], [2.0, 2.4, 1.6]), ([0.002, 0.003, 0.001], [2.2, 2.3, 2.1]),
                      ([0.1, 0.1, 0.1], [1.0, 1.5, 3.0]), ([0.02, 0.0, 0.04], [2.6, 2.2, 1.9]),
                      ([0.0, 0.03, 0.0], [1.2, 2.8, 2.2])):
        displays.append(replace(chrom, background=chrom.primaries @ w,
                                gammas=np.array(gammas), weights=np.array(w, float)))
    return displays


def lsq_linear_refinement(spec, grid):
    """The supported knots and, per channel, their refined outputs from scipy's
    ``lsq_linear(method="bvls")``, run from the test only, on the problem
    ``build_correction_cube(refine=True)`` solves."""
    from scipy.optimize import lsq_linear
    active, r = grid.active_values, spec.input_range
    xs = np.unique(np.concatenate([[0.0, r],
                                   np.geomspace(active[0], r, calibrate.REFINE_POINTS)]))
    mat = np.stack([np.interp(xs, active, e) for e in np.eye(active.size)], axis=1)
    supported = np.flatnonzero(mat.sum(axis=0) > 0)
    targets = gamma_tonemap(spec, np.column_stack([xs] * 3)).T
    return supported, [lsq_linear(mat[:, supported], y, bounds=(0.0, 1.0), method="bvls",
                                  tol=1e-14).x for y in targets]


def test_refinement_matches_scipy_bvls():
    # 2 knot grids x 15 displays x 6 input ranges: 180 refined cubes
    worst, at_bounds = 0.0, set()
    for grid in (default_knot_grid("delta"), default_knot_grid("optimized")):
        for display in refine_displays():
            for r in (0.5, 1.0, 1.111, 3.78, 20.0, 58.9):
                spec = GammaCorrectionSpec(display, input_range=r)
                curves = build_correction_cube(spec, grid, refine=True).separable_channels()
                supported, reference = lsq_linear_refinement(spec, grid)
                for curve, ref in zip(curves, reference):
                    x = curve[grid.active_start - 1:][supported]
                    worst = max(worst, float(np.max(np.abs(x - ref))))
                    assert np.array_equal((x == 0) | (x == 1), (ref == 0) | (ref == 1))
                    at_bounds.update(x[(x == 0) | (x == 1)].tolist())
    assert worst <= 1e-12
    assert at_bounds == {0.0, 1.0}


class TestEstimateScaleConstant:
    def test_noiseless_recovery(self):
        samples = generate_samples(400, seed=5, kind="lambertian", quantize=False)
        est = estimate_scale_constant(samples)
        assert abs(est.c - 0.822) / 0.822 < 1e-9

    def test_quantized_recovery(self):
        samples = generate_samples(2500, seed=6, kind="lambertian", quantize=True)
        est = estimate_scale_constant(samples)
        assert abs(est.c - 0.822) / 0.822 < 0.005

    def test_exposure_invariance(self):
        a = generate_samples(300, seed=7, kind="lambertian",
                             exposure_choices=(0.0,))
        b = generate_samples(300, seed=7, kind="lambertian",
                             exposure_choices=(1.0,))
        est_a = estimate_scale_constant(a)
        est_b = estimate_scale_constant(b)
        assert est_b.c == pytest.approx(est_a.c, rel=1e-9)

    def test_scale_equivariance(self):
        # scaling the recorded actual values by alpha scales c by alpha;
        # low intensities keep every channel off the ceiling so the same
        # observations enter both regressions
        samples = generate_samples(400, seed=8, kind="lambertian",
                                   directional_intensity_range=(0.0, 0.8),
                                   ambient_intensity_range=(0.0, 0.8))
        est = estimate_scale_constant(samples)
        alpha = 0.5
        scaled = replace(samples, v=srgb_encode3(
            alpha * np.minimum(srgb_decode(samples.v), 1.0)))
        est_scaled = estimate_scale_constant(scaled)
        assert est_scaled.c == pytest.approx(est.c * alpha, rel=1e-6)

    def test_too_few_samples(self):
        samples = generate_samples(50, seed=9, kind="lambertian")
        with pytest.raises(FitError):
            estimate_scale_constant(samples)

    def test_unlit_samples_do_not_count(self):
        samples = generate_samples(200, seed=10, kind="unlit")
        with pytest.raises(FitError):
            estimate_scale_constant(samples)

    def test_zero_slope_rejected(self):
        # Half the rows observe light the model predicts none of, the other
        # half predict light that was observed as black: no product survives.
        samples = generate_samples(200, seed=12, kind="lambertian")
        cols = {name: getattr(samples, name).copy() for name in (
            "lambertian", "m", "n", "d", "i_d", "l", "a", "i_a", "e", "v")}
        cols["i_d"][:100] = cols["i_a"][:100] = 0.0
        cols["v"][:100] = 0.5
        cols["v"][100:] = 0.0
        with pytest.raises(FitError, match=r"^non-positive regression slope 0\.0$"):
            estimate_scale_constant(type(samples)(**cols))

    def test_all_zero_degenerate(self):
        samples = generate_samples(200, seed=11, kind="lambertian",
                                   directional_intensity_range=(0.0, 0.0),
                                   ambient_intensity_range=(0.0, 0.0))
        with pytest.raises(FitError, match="^all predictions or observations are zero$"):
            estimate_scale_constant(samples)


def synthetic_sweeps(grid, points=3000, lo=1e-5, hi=100.0, indices=range(1, 33)):
    xs = np.geomspace(lo, hi, points)
    sweeps = []
    for m in indices:
        tm = CubeTonemap(grid, make_delta_cube(m))
        t = tm.apply(np.column_stack([xs, xs, xs]))[:, 0]
        sweeps.append(DeltaSweep(m=m, inputs=xs, outputs=t))
    return sweeps


def test_delta_sweep_stores_read_only_copies():
    u, t = np.linspace(0.1, 1.0, 5), np.full(5, 0.5)
    sweep = DeltaSweep(m=3, inputs=u, outputs=t)
    u[0], t[0] = -5.0, 0.9
    assert sweep.inputs[0] == 0.1 and sweep.outputs[0] == 0.5
    for arr in (sweep.inputs, sweep.outputs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.2


@pytest.mark.parametrize("inputs, outputs, message", [
    ([0.1, 0.3, 0.2, 0.4], [0.0] * 4, "sweep inputs must be strictly increasing"),
    ([0.1, 0.2, 0.2, 0.4], [0.0] * 4, "sweep inputs must be strictly increasing"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, 1.5, 0.0, 0.0], "sweep outputs must lie in [0, 1]"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, -0.1, 0.0, 0.0], "sweep outputs must lie in [0, 1]"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, 1 + 1e-9, 0.0, 0.0], "sweep outputs must lie in [0, 1]"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, -1e-9, 0.0, 0.0], "sweep outputs must lie in [0, 1]"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, np.nan, 0.0, 0.0], "sweep outputs must lie in [0, 1]"),
    ([0.1, 0.2, 0.3, 0.4], [0.0, "x", 0.0, 0.0], "DeltaSweep outputs: input must be finite"),
], ids=["inputs decrease", "inputs tie", "output above 1", "output below 0",
        "output 1e-9 above 1", "output 1e-9 below 0", "output nan", "output non-numeric"])
def test_delta_sweep_out_of_range_rejected(inputs, outputs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DeltaSweep(m=3, inputs=inputs, outputs=outputs)


def test_delta_sweep_outputs_within_slack_are_clipped():
    sweep = DeltaSweep(m=3, inputs=[0.1, 0.2, 0.3, 0.4], outputs=[-1e-13, 0.5, 1 + 1e-13, 0])
    assert sweep.outputs.tolist() == [0.0, 0.5, 1.0, 0.0]


@pytest.mark.parametrize("m, points, apex, anomaly", [
    (16, 400, 0.4405999999999998, None),
    (3, 400, 0.00026060000000000053, None),
    (32, 400, 58.9, None),
    (16, 40, 0.4641588833612782, "flank fit failed; used argmax"),
], ids=["both flanks", "plateau at the low end", "plateau at the high end", "argmax"])
def test_sweep_apex_bits(m, points, apex, anomaly):
    """Each outcome's apex, bit for bit: the two flank lines meet; a plateau
    reaching the low (m = 3, clamped below the first knot) or high (m = 32)
    end of the sweep is the level line the other flank meets; with 40 points
    the falling flank of sweep 16 has one band point, so the argmax is used."""
    sweep, = synthetic_sweeps(default_knot_grid(), points=points, indices=[m])
    assert _sweep_apex(sweep) == (apex, anomaly)


def test_sweep_flat_at_its_peak_uses_argmax():
    # a plateau at both ends: two level lines, which never meet
    sweep = DeltaSweep(m=3, inputs=[0.1, 0.2, 0.3, 0.4], outputs=[0.5] * 4)
    assert _sweep_apex(sweep) == (0.1, "flank fit failed; used argmax")


def test_load_sweeps_groups_by_index_sorted_by_input():
    text = "m,u,t\n4,0.3,0.1\n3,0.2,0.0\n# note\n4,0.1,0.0\n3,0.1,0.0\n" \
           "4,0.2,1.0\n3,0.4,0.5\n3,0.3,1.0\n4,0.4,0.0\n"
    sweeps = load_sweeps(io.StringIO(text))
    assert [s.m for s in sweeps] == [3, 4]
    assert sweeps[0].inputs.tolist() == [0.1, 0.2, 0.3, 0.4]
    assert sweeps[0].outputs.tolist() == [0.0, 0.0, 1.0, 0.5]
    assert sweeps[1].outputs.tolist() == [0.0, 1.0, 0.1, 0.0]
    with pytest.raises(ValidationError, match="^sweep CSV line 3: non-numeric field$"):
        load_sweeps(io.StringIO("m,u,t\n3,0.1,0\n3,x,0\n"))


class TestEstimateKnotsDelta:
    def test_closed_loop_recovery(self):
        grid = default_knot_grid()
        est, report = estimate_knots_delta(synthetic_sweeps(grid))
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 0.005
        assert report.no_response == (1, 2)

    def test_sweep_16_peaks_near_044(self):
        grid = default_knot_grid()
        sweeps = synthetic_sweeps(grid, indices=range(1, 33))
        est, _ = estimate_knots_delta(sweeps)
        assert est.values[15] == pytest.approx(0.4406, rel=1e-6)

    def test_missing_sweep(self):
        grid = default_knot_grid()
        sweeps = [s for s in synthetic_sweeps(grid) if s.m != 10]
        with pytest.raises(FitError, match=r"^missing sweeps for knot indices \[10\]$"):
            estimate_knots_delta(sweeps)

    def test_flat_active_sweep_is_error(self):
        grid = default_knot_grid()
        sweeps = synthetic_sweeps(grid)
        xs = sweeps[5].inputs
        sweeps[5] = DeltaSweep(m=6, inputs=xs, outputs=np.zeros_like(xs))
        with pytest.raises(FitError, match="^sweep 6 is flat; cannot estimate its knot$"):
            estimate_knots_delta(sweeps)

    def test_non_unimodal_flagged(self):
        grid = default_knot_grid()
        sweeps = synthetic_sweeps(grid)
        pos = next(i for i, s in enumerate(sweeps) if s.m == 16)
        doctored = sweeps[pos].outputs.copy()
        doctored[10] = 0.6  # spurious bump far from the true peak
        sweeps[pos] = DeltaSweep(m=16, inputs=sweeps[pos].inputs, outputs=doctored)
        est, report = estimate_knots_delta(sweeps)
        assert 16 in report.anomalies

    def test_estimates_out_of_order_are_sorted_with_a_note(self):
        grid = default_knot_grid()
        sweeps = synthetic_sweeps(grid, points=400)
        est, _ = estimate_knots_delta(sweeps)
        sweeps[9], sweeps[10] = (DeltaSweep(m=10, inputs=sweeps[10].inputs,
                                            outputs=sweeps[10].outputs),
                                 DeltaSweep(m=11, inputs=sweeps[9].inputs,
                                            outputs=sweeps[9].outputs))
        swapped, report = estimate_knots_delta(sweeps)
        assert report.anomalies[0] == "estimates were not monotone in m; sorted"
        assert np.array_equal(swapped.active_values, est.active_values)

    def test_tied_estimates_are_error(self):
        sweeps = synthetic_sweeps(default_knot_grid(), points=400)
        sweeps[10] = DeltaSweep(m=11, inputs=sweeps[9].inputs, outputs=sweeps[9].outputs)
        with pytest.raises(FitError, match="^knot estimates are not strictly increasing: "):
            estimate_knots_delta(sweeps)

    def test_response_at_an_inactive_knot_flagged(self):
        sweeps = synthetic_sweeps(default_knot_grid(), points=400)
        xs = sweeps[0].inputs
        sweeps[0] = DeltaSweep(m=1, inputs=xs, outputs=np.where(xs > 1.0, 0.5, 0.0))
        _, report = estimate_knots_delta(sweeps)
        assert report.anomalies[1] == "unexpected response at inactive knot"
        assert report.no_response == (2,)

    def test_sparse_sweeps_still_recover(self):
        grid = default_knot_grid()
        est, _ = estimate_knots_delta(synthetic_sweeps(grid, points=400))
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 0.005


def study_datasets(quantize, seeds, count=500,
                   exposures=(-6.0, -3.0, 0.0, 3.0, 6.0, 9.0, 12.0)):
    grid = default_knot_grid()
    umax = float(grid.active_values[-1])
    shapes = [lambda x: np.clip(x / umax, 0, 1),
              lambda x: np.sqrt(np.clip(x / umax, 0, 1)),
              lambda x: np.clip(x / umax, 0, 1) ** 2]
    datasets = []
    for seed, fn in zip(seeds, shapes):
        lut = separable_cube(grid, fn)
        tm = CubeTonemap(grid, lut)
        samples = generate_samples(count, seed=seed, kind="lambertian",
                                   tonemap=tm, quantize=quantize,
                                   exposure_choices=exposures)
        datasets.append((samples, lut))
    return grid, datasets


def training_sets(datasets, seed=0):
    """The (u, v, cube) training part of each dataset, split as
    ``estimate_knots_optimize`` splits it."""
    rng = np.random.default_rng(seed)
    sets = []
    for samples, lut in datasets:
        kept = samples[np.all(samples.m >= MATERIAL_FLOOR, axis=1)]
        train = rng.random(len(kept)) >= HOLDOUT_FRACTION
        sets.append((predict_unprocessed(kept)[train], kept.v[train], lut))
    return sets


def minpack_fit(datasets, init, seed=0):
    """Knots and sum of squares from scipy's MINPACK Levenberg-Marquardt on the
    same training residuals, log-gap parameters and Jacobian."""
    from scipy.optimize import least_squares
    sets = training_sets(datasets, seed)

    def residuals(a):
        with np.errstate(over="ignore"):
            knots = _knots_from_log_gaps(a)
        if not (np.isfinite(knots[-1]) and np.all(np.diff(knots) > 0)):
            return np.full(sum(v.size for _, v, _ in sets), np.inf)
        return np.concatenate([(_predict(knots, u, lut) - v).ravel() for u, v, lut in sets])

    def jacobian(a):
        knots = _knots_from_log_gaps(a)
        jac = np.vstack([_knot_jacobian(knots, u, lut) for u, _, lut in sets])
        return np.cumsum(jac[:, ::-1], axis=1)[:, ::-1] * np.exp(a)

    a0 = np.log(np.concatenate([init.active_values[:1], np.diff(init.active_values)]))
    res = least_squares(residuals, a0, jac=jacobian, method="lm")
    return _knots_from_log_gaps(res.x), float(res.fun @ res.fun)


class TestEstimateKnotsOptimize:
    def test_fixed_point_noiseless(self):
        # unquantized samples rendered under the init grid: the solver starts
        # at its optimum, stays there and reports convergence
        grid, datasets = study_datasets(quantize=False, seeds=(31, 32, 33))
        est, report = estimate_knots_optimize(datasets, grid, seed=0)
        assert report.objective_init <= 1e-20
        assert report.converged, report.notes
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() <= 1e-12
        assert not any("already optimal" in note for note in report.notes)
        assert all(note.startswith("unsupported knots: ") for note in report.notes)

    @staticmethod
    def perturbed_study():
        grid, datasets = study_datasets(quantize=False, seeds=(41, 42, 43),
                                        count=700)
        rng = np.random.default_rng(3)
        init = KnotGrid.from_active(
            grid.active_values * (1 + rng.uniform(-0.03, 0.03, 30)))
        return grid, datasets, init

    def test_perturbed_init_recovers(self):
        grid, datasets, init = self.perturbed_study()
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 0.02
        assert report.objective_final <= report.objective_init

    def test_perturbed_init_converges_quickly(self):
        # The count is residual and Jacobian evaluations alike, one pass over
        # the training data each.
        _, datasets, init = self.perturbed_study()
        _, report = estimate_knots_optimize(datasets, init, seed=0)
        assert report.converged, report.notes
        assert report.n_evaluations < 100
        assert report.unsupported_knots == ()

    @staticmethod
    def unsupported_study():
        # At exposure 0 every unprocessed value stays below about 1.5, so
        # the top knots have no training sample in either adjacent cell.
        grid = default_knot_grid()
        datasets = []
        for seed, power in ((10, 0.5), (11, 0.25)):
            lut = separable_cube(grid, lambda x, p=power: np.clip(x / 58.9, 0, 1) ** p)
            datasets.append((generate_samples(
                1500, seed=seed, kind="lambertian", tonemap=CubeTonemap(grid, lut),
                quantize=True, exposure_choices=(0.0,)), lut))
        rng = np.random.default_rng(0)
        init = KnotGrid.from_active(np.sort(grid.active_values * rng.uniform(0.9, 1.1, 30)))
        return grid, datasets, init

    @staticmethod
    def criterion_05_quantized_study():
        # tests/test_acceptance.py criterion 05's quantized data and init
        exposures = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
        grid, datasets = study_datasets(quantize=True, seeds=(56, 57, 58), count=1667,
                                        exposures=exposures)
        rng = np.random.default_rng(55)
        rng.uniform(-0.1, 0.1, 30)  # the clean study's init
        init = KnotGrid.from_active(grid.active_values * (1.0 + rng.uniform(-0.1, 0.1, 30)))
        return grid, datasets, init

    def test_unsupported_knots_listed(self):
        _, datasets, init = self.unsupported_study()
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        top = max(float(predict_unprocessed(s).max()) for s, _ in datasets)
        expected = tuple(m for m in range(4, 33) if est.values[m - 2] > top)
        assert len(expected) >= 11
        assert report.converged
        assert report.unsupported_knots == expected
        assert report.notes == ("unsupported knots: " + ", ".join(map(str, expected)),)
        # Taken from the last accepted point's residuals, bit for bit a fresh
        # training pass.
        fresh = np.concatenate([(_predict(est.active_values, u, lut) - v).ravel()
                                for u, v, lut in training_sets(datasets)])
        assert report.train_median_255 == float(np.median(np.abs(fresh)) * 255.0)

    @pytest.mark.parametrize("study", ["perturbed_study", "unsupported_study",
                                       "criterion_05_quantized_study"])
    def test_matches_minpack(self, study):
        _, datasets, init = getattr(self, study)()
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        knots, sse = minpack_fit(datasets, init)
        # On noiseless data both solvers end at the rounding floor, about an
        # ulp of 1 per residual, where which one lands lower is chance.
        floor = sum(v.size for _, v, _ in training_sets(datasets)) * np.finfo(float).eps ** 2
        assert report.objective_final <= sse * (1 + 1e-6) + floor
        supported = np.ones(30, bool)
        supported[np.array(report.unsupported_knots, dtype=int) - 3] = False
        assert np.all(np.abs(np.log(est.active_values / knots))[supported] <= 1e-6)

    def test_each_training_pass_runs_once(self, monkeypatch):
        # The start's residuals are the solver's first point, and the support
        # check reads the last accepted point's JᵀJ: no pass is repeated.
        _, datasets, init = self.perturbed_study()
        calls = []
        for name in ("_predict", "_knot_normal_equations"):
            def counted(knots, u, *rest, name=name, original=getattr(calibrate, name)):
                calls.append((name, knots.tobytes(), id(u)))
                return original(knots, u, *rest)  # the cube, and the residuals r
            monkeypatch.setattr(calibrate, name, counted)
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        train = {u for name, _, u in calls if name == "_knot_normal_equations"}
        training = [call for call in calls if call[2] in train]
        passes = {call[:2] for call in training}
        assert len(train) == 3 and len(calls) == len(training) + 3  # + the holdout scoring
        assert len(training) == len(set(training)) == 3 * len(passes)
        assert report.n_evaluations == len(passes)
        jacobian_points = [knots for name, knots in passes
                           if name == "_knot_normal_equations"]
        assert est.active_values.tobytes() in jacobian_points
        assert set(jacobian_points) <= {knots for name, knots in passes if name == "_predict"}

    def test_step_past_float_range_is_rejected(self, monkeypatch):
        # On these two correction cubes the solver tries log gaps too small
        # for float resolution: a knot plus its gap rounds to the knot, so the
        # knots tie.  Each such step scores as no fit, without a warning
        # (warnings are errors here), and the fit still converges.
        grid = default_knot_grid()
        datasets = []
        for seed, r, refine in ((1, 1.111, True), (2, 1.0, False)):
            lut = parse_cube(serialize_cube(build_correction_cube(
                GammaCorrectionSpec(DISPLAY, input_range=r), grid, refine=refine)))
            datasets.append((generate_samples(60, seed=seed, quantize=True,
                                              tonemap=CubeTonemap(grid, lut)), lut))
        tied = []

        def counted(a):
            knots = _knots_from_log_gaps(a)
            tied.append(not np.all(np.diff(knots) > 0))
            return knots
        monkeypatch.setattr(calibrate, "_knots_from_log_gaps", counted)
        est, report = estimate_knots_optimize(datasets, grid)
        assert any(tied), "no step tied the knots"
        assert report.converged, report.notes
        assert np.all(np.diff(est.active_values) > 0)

    def test_failed_steps_are_rejected(self, monkeypatch):
        # A step whose knots overflow, one whose knots tie, a singular solve
        # and a non-finite one: each is rejected without a warning (warnings
        # are errors here), and the fit still reaches the same knots.
        _, datasets, init = self.perturbed_study()
        reference, _ = estimate_knots_optimize(datasets, init, seed=0)
        solve, faults = np.linalg.solve, [800.0, -800.0, None, np.nan]

        def failing(matrix, rhs):
            if not faults:
                return solve(matrix, rhs)
            step, fault = np.zeros(rhs.size), faults.pop(0)
            if fault is None:
                raise np.linalg.LinAlgError("Singular matrix")
            step[5] = fault  # a log gap past exp's range, or to a zero gap
            return step
        monkeypatch.setattr(np.linalg, "solve", failing)
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        assert not faults and report.converged
        assert np.max(np.abs(np.log(est.active_values / reference.active_values))) <= 1e-9

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_invalid_seed(self, seed):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=20)
        with pytest.raises(ValidationError, match="seed"):
            estimate_knots_optimize(datasets, grid, seed=seed)

    def test_requires_two_cubes(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52, 53))
        with pytest.raises(FitError, match="^need samples under at least 2 distinct cubes$"):
            estimate_knots_optimize(datasets[:1], grid)

    def test_fewer_residuals_than_knots(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=8)
        with pytest.raises(FitError, match="fewer residuals than the 30 knots"):
            estimate_knots_optimize(datasets, grid, seed=0)

    @pytest.mark.parametrize("n_train", [9, 10])
    def test_residual_bound_at_its_edge(self, monkeypatch, n_train):
        # With nothing held out, n_train samples give 3 * n_train residuals:
        # 30 residuals fit the 30 knots, 27 do not.
        monkeypatch.setattr(calibrate, "HOLDOUT_FRACTION", 0.0)
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=40)
        kept = [samples[np.all(samples.m >= MATERIAL_FLOOR, axis=1)] for samples, _ in datasets]
        datasets = [(kept[0][:5], datasets[0][1]), (kept[1][:n_train - 5], datasets[1][1])]
        if n_train < 10:
            with pytest.raises(FitError, match="^9 training samples give fewer residuals "
                                               "than the 30 knots to fit$"):
                estimate_knots_optimize(datasets, grid, seed=0)
        else:
            _, report = estimate_knots_optimize(datasets, grid, seed=0)
            assert (report.n_train, report.n_holdout) == (10, 0)

    @pytest.mark.filterwarnings("error")
    def test_zero_first_knot_rejected(self):
        # Log-gap parameters cannot hold a first knot of 0: its log is -inf,
        # which warns and makes the step test pass at the first step.
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=40)
        init = KnotGrid.from_active(np.concatenate([[0.0], grid.active_values[1:]]))
        with pytest.raises(FitError, match=r"^optimization needs a first active knot > 0$"):
            estimate_knots_optimize(datasets, init)

    def test_knots_tied_by_their_log_gaps_rejected(self):
        # Gaps of one ulp at 4096, taken to log gaps and summed back, tie knots 5 and 6.
        init = KnotGrid.from_active(
            np.concatenate([[1e-12], 4096.0 + np.arange(29) * np.spacing(4096.0)]))
        _, datasets = study_datasets(quantize=False, seeds=(51, 52), count=40)
        with pytest.raises(FitError, match="^initial knots are not strictly increasing "
                                           "from their log gaps$"):
            estimate_knots_optimize(datasets, init)

    def test_non_standard_active_range_rejected(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=20)
        init = KnotGrid(grid.values[1:], active_start=2)
        with pytest.raises(FitError, match="^optimization expects the standard active range$"):
            estimate_knots_optimize(datasets, init)

    def test_cube_of_another_size_rejected(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=20)
        datasets[1] = (datasets[1][0], make_delta_cube(3, size=31))
        with pytest.raises(ValidationError, match="^cube size 31 != knot grid size 32$"):
            estimate_knots_optimize(datasets, grid)

    def test_no_sample_above_the_material_floor_rejected(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=20)
        dark = [(samples[np.any(samples.m < 0.2, axis=1)], lut) for samples, lut in datasets]
        assert all(len(samples) for samples, _ in dark)
        with pytest.raises(FitError, match="^no training samples survive the material filter$"):
            estimate_knots_optimize(dark, grid)

    def test_material_filter_counted(self):
        grid, datasets = study_datasets(quantize=False, seeds=(61, 62, 63))
        _, report = estimate_knots_optimize(datasets, grid, seed=0)
        total = sum(len(s) for s, _ in datasets)
        assert 0 < report.n_excluded < total
        assert report.n_train + report.n_holdout == total - report.n_excluded


class TestKnotJacobian:
    @staticmethod
    def central_differences(knots, u, lut):
        columns = []
        for j in range(knots.size):
            step = np.zeros(knots.size)
            step[j] = 1e-7 * knots[j]
            columns.append((_predict(knots + step, u, lut)
                            - _predict(knots - step, u, lut)).ravel() / (2 * step[j]))
        return np.column_stack(columns)

    @pytest.mark.parametrize("separable", [True, False])
    def test_matches_central_differences(self, separable):
        grid = default_knot_grid()
        knots = grid.active_values
        rng = np.random.default_rng(7)
        lut = (separable_cube(grid, lambda x: np.sqrt(np.clip(x / 58.9, 0, 1)))
               if separable else CubeLUT(rng.uniform(0.0, 1.0, (32, 32, 32, 3))))
        assert (lut.separable_channels() is not None) == separable
        u = np.exp(rng.uniform(np.log(1e-5), np.log(100.0), (300, 3)))
        u[:2] = [[1e-5, 2e-5, 1e-4], [70.0, 100.0, 80.0]]  # clamped at both ends
        jac = _knot_jacobian(knots, u, lut)
        ref = self.central_differences(knots, u, lut)
        assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))
        assert not jac[:6].any()

    @staticmethod
    def cube(name):
        grid = default_knot_grid()
        if name == "impulse":  # zero slope in every cell but the two at knot 12
            return make_delta_cube(12)
        if name == "refined":
            return build_correction_cube(GammaCorrectionSpec(DISPLAY, input_range=1.111),
                                         grid, refine=True)
        if name == "general":
            return CubeLUT(np.random.default_rng(5).uniform(0.0, 1.0, (32, 32, 32, 3)))
        _, datasets = study_datasets(quantize=False, seeds=(56, 57, 58), count=1)
        return datasets[("linear", "sqrt", "square").index(name)][1]  # criterion 05's

    @pytest.mark.parametrize("name", ["linear", "sqrt", "square", "impulse", "refined",
                                      "general"])
    def test_separable_normal_equations_match_dense(self, monkeypatch, name):
        # JᵀJ and Jᵀr as the dense Jacobian gives them, and the same knots
        # without support: the in-range points stop below 2, so the top knots
        # have none, and points clamped at either end support no knot.
        lut, rng = self.cube(name), np.random.default_rng(11)
        knots = default_knot_grid().active_values * np.exp(rng.uniform(-0.02, 0.02, 30))
        assert np.all(np.diff(knots) > 0)
        u = np.exp(rng.uniform(np.log(1e-5), np.log(2.0), (800, 3)))
        u[:4] = [[1e-7, 2e-6, 0.0], [70.0, 100.0, 80.0], knots[[3, 5, 7]], knots[:3]]
        r = rng.normal(0.0, 0.01, u.size)
        jac = _knot_jacobian(knots, u, lut)
        dense = jac.T @ jac, r @ jac
        if name != "general":  # a separable cube's path forms no Jacobian
            monkeypatch.setattr(calibrate, "_knot_jacobian", None)
        hess, grad = calibrate._knot_normal_equations(knots, u, lut, r)
        for got, ref in zip((hess, grad), dense):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(np.diag(hess) == 0, np.diag(dense[0]) == 0)
        assert 0 < np.sum(np.diag(hess) == 0) < 30
