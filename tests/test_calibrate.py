from dataclasses import replace

import numpy as np
import pytest

from hdrpcal.calibrate import (DeltaSweep, GammaCorrectionSpec, _knot_jacobian,
                               _predict, build_correction_cube, estimate_knots_delta,
                               estimate_knots_optimize, estimate_scale_constant,
                               gamma_tonemap)
from hdrpcal.colorspace import srgb_decode, srgb_encode, srgb_encode3
from hdrpcal.cubelut import (CubeLUT, CubeTonemap, DELTA_KNOTS, KnotGrid,
                             default_knot_grid, make_delta_cube, separable_cube)
from hdrpcal.display import AchromaticDisplay, ChromaticDisplay
from hdrpcal.errors import (DegenerateDataError, EstimationError, FitError,
                            ValidationError)
from hdrpcal.harness import generate_samples, predict_unprocessed

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

    def test_all_zero_degenerate(self):
        samples = generate_samples(200, seed=11, kind="lambertian",
                                   directional_intensity_range=(0.0, 0.0),
                                   ambient_intensity_range=(0.0, 0.0))
        with pytest.raises(DegenerateDataError):
            estimate_scale_constant(samples)


def synthetic_sweeps(grid, points=3000, lo=1e-5, hi=100.0, indices=range(1, 33)):
    xs = np.geomspace(lo, hi, points)
    sweeps = []
    for m in indices:
        tm = CubeTonemap(grid, make_delta_cube(m))
        t = tm.apply(np.column_stack([xs, xs, xs]))[:, 0]
        sweeps.append(DeltaSweep(m=m, inputs=xs, outputs=t))
    return sweeps


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
        with pytest.raises(EstimationError, match="10"):
            estimate_knots_delta(sweeps)

    def test_flat_active_sweep_is_error(self):
        grid = default_knot_grid()
        sweeps = synthetic_sweeps(grid)
        xs = sweeps[5].inputs
        sweeps[5] = DeltaSweep(m=6, inputs=xs, outputs=np.zeros_like(xs))
        with pytest.raises(EstimationError, match="flat"):
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


class TestEstimateKnotsOptimize:
    def test_fixed_point_noiseless(self):
        grid, datasets = study_datasets(quantize=False, seeds=(31, 32, 33))
        est, report = estimate_knots_optimize(datasets, grid, seed=0)
        assert report.objective_init < 1e-20
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 1e-9

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

    def test_unsupported_knots_listed(self):
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
        est, report = estimate_knots_optimize(datasets, init, seed=0)
        top = max(float(predict_unprocessed(s).max()) for s, _ in datasets)
        expected = tuple(m for m in range(4, 33) if est.values[m - 2] > top)
        assert len(expected) >= 11
        assert report.converged
        assert report.unsupported_knots == expected
        assert report.notes == ("unsupported knots: " + ", ".join(map(str, expected)),)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_invalid_seed(self, seed):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=20)
        with pytest.raises(ValidationError, match="seed"):
            estimate_knots_optimize(datasets, grid, seed=seed)

    def test_requires_two_cubes(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52, 53))
        with pytest.raises(EstimationError):
            estimate_knots_optimize(datasets[:1], grid)

    def test_fewer_residuals_than_knots(self):
        grid, datasets = study_datasets(quantize=False, seeds=(51, 52), count=8)
        with pytest.raises(EstimationError, match="fewer residuals than the 30 knots"):
            estimate_knots_optimize(datasets, grid, seed=0)

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
