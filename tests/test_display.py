import dataclasses
import hashlib
import io

import numpy as np
import pytest

from hdrpcal.display import (FIT_MAX_EVALS, AchromaticDisplay, ChromaticDisplay, FitReport,
                             Measurement, fit_achromatic, fit_chromatic,
                             load_achromatic_csv, load_chromatic_csv,
                             load_display, save_display,
                             solve_background_weights)
from hdrpcal.errors import FitError, ValidationError

SRGB_PRIMARIES = (np.array([41.24, 21.26, 1.93]),
                  np.array([35.76, 71.52, 11.92]),
                  np.array([18.05, 7.22, 95.03]))


def make_chromatic(gammas=(1.8, 2.2, 2.6), weights=(0.01, 0.02, 0.03)):
    pr, pg, pb = SRGB_PRIMARIES
    w = np.asarray(weights, float)
    z = w[0] * pr + w[1] * pg + w[2] * pb
    return ChromaticDisplay(primary_r=pr, primary_g=pg, primary_b=pb,
                            background=z, gammas=np.asarray(gammas, float),
                            weights=w)


def achromatic_ramp(display, vs):
    return [Measurement(v=np.array([v, v, v]), luminance=display.luminance(v))
            for v in vs]


def chromatic_ramp(display, vs):
    meas = [Measurement(v=np.zeros(3), xyz=display.xyz(np.zeros(3)))]
    for k in range(3):
        for v in vs:
            if v == 0:
                continue
            stim = np.zeros(3)
            stim[k] = v
            meas.append(Measurement(v=stim, xyz=display.xyz(stim)))
    return meas


class TestMeasurement:
    # A case whose message changed keeps the id its old message gave it, so
    # that test names stay stable.
    @pytest.mark.parametrize("v,readings,match", [
        pytest.param(np.zeros(2), {"luminance": 1.0},
                     r"^Measurement v: expected shape \(\.\.\., 3\), got \(2,\)$",
                     id=r"v0-readings0-v must be a triplet in \[0, 1\]"),
        pytest.param(np.array([0.0, 0.5, 1.5]), {"luminance": 1.0},
                     r"^Measurement v: channel b outside \[0, 1\]$",
                     id="v1-readings1-v must be a triplet"),
        pytest.param(np.array([0.0, -0.1, 0.0]), {"xyz": np.ones(3)},
                     r"^Measurement v: channel g outside \[0, 1\]$",
                     id="v2-readings2-v must be a triplet"),
        pytest.param(np.array([0.0, np.nan, 0.0]), {"luminance": 1.0},
                     "^Measurement v: input must be finite$",
                     id="v3-readings3-v must be a triplet"),
        pytest.param(np.zeros(3), {"luminance": -1.0},
                     r"^Measurement luminance: input -1\.0 outside \[0, inf\]$",
                     id="v4-readings4-^luminance reading must be >= 0$"),
        pytest.param(np.zeros(3), {"xyz": np.array([1.0, 1.0, -1.0])},
                     r"^Measurement xyz: input -1\.0 outside \[0, inf\]$",
                     id="v5-readings5-^xyz reading must be >= 0$"),
        (np.zeros(3), {"xyz": np.ones(2)}, r"^xyz readings must have shape \(3,\)$"),
        (np.zeros((4, 3)), {"luminance": np.ones(3)}, r"shape \(4,\)$"),
        (np.zeros((4, 3)), {"xyz": np.ones(3)}, r"shape \(4, 3\)$"),
        pytest.param(np.zeros((2, 4, 3)), {"luminance": -np.eye(4)[:2]},
                     r"^Measurement luminance: input -1\.0 outside \[0, inf\]$",
                     id="v9-readings9-luminance reading must be"),
        pytest.param(np.full((2, 3), 2.0), {"xyz": np.ones((2, 3))},
                     r"^Measurement v: channel r outside \[0, 1\]$",
                     id="v10-readings10-v must be a triplet"),
        (np.zeros(3), {}, "exactly one of luminance or xyz"),
        (np.zeros(3), {"luminance": 1.0, "xyz": np.ones(3)}, "exactly one")])
    def test_invalid_rejected(self, v, readings, match):
        with pytest.raises(ValidationError, match=match):
            Measurement(v=v, **readings)

    def test_batch_stored_read_only_as_given(self):
        v = np.zeros((2, 5, 3))
        m = Measurement(v=v, luminance=np.ones((2, 5)))
        assert m.v.shape == (2, 5, 3) and m.luminance.shape == (2, 5)
        assert not m.v.flags.writeable and not m.luminance.flags.writeable
        v[0, 0, 0] = 1.0
        assert m.v[0, 0, 0] == 0.0


class TestAchromaticModel:
    def test_endpoints(self):
        d = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        assert d.luminance(0.0) == 2.0
        assert d.luminance(1.0) == 100.0

    def test_hand_value(self):
        # 2 + 98 * 0.5**2.2, evaluated independently
        d = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        assert d.luminance(0.5) == pytest.approx(23.32848880075504, abs=1e-12)

    def test_strictly_increasing(self):
        d = AchromaticDisplay(l0=0.5, l1=50.0, gamma=1.7)
        v = np.linspace(0, 1, 500)
        assert np.all(np.diff(d.luminance(v)) > 0)

    def test_domain_error(self):
        d = AchromaticDisplay(l0=1.0, l1=10.0, gamma=2.0)
        with pytest.raises(ValidationError, match=r"^AchromaticDisplay\.luminance: "
                                                  r"input 1\.2 outside \[0, 1\]$"):
            d.luminance(1.2)

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            AchromaticDisplay(l0=-1.0, l1=10.0, gamma=2.2)
        with pytest.raises(ValidationError):
            AchromaticDisplay(l0=0.0, l1=0.0, gamma=2.2)
        with pytest.raises(ValidationError):
            AchromaticDisplay(l0=0.0, l1=1.0, gamma=-2.2)


class TestFitAchromatic:
    def test_noiseless_recovery(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        fitted, report = fit_achromatic(achromatic_ramp(truth, np.linspace(0, 1, 11)))
        assert fitted.l0 == pytest.approx(2.0, rel=1e-6)
        assert fitted.l1 == pytest.approx(98.0, rel=1e-6)
        assert fitted.gamma == pytest.approx(2.2, rel=1e-6)
        assert report.residual_rms < 1e-9

    def test_refit_is_fixed_point(self):
        truth = AchromaticDisplay(l0=1.5, l1=60.0, gamma=1.9)
        fitted, _ = fit_achromatic(achromatic_ramp(truth, np.linspace(0, 1, 9)))
        refit, _ = fit_achromatic(achromatic_ramp(fitted, np.linspace(0, 1, 9)))
        assert refit.l0 == pytest.approx(fitted.l0, abs=1e-9)
        assert refit.l1 == pytest.approx(fitted.l1, abs=1e-9)
        assert refit.gamma == pytest.approx(fitted.gamma, abs=1e-9)

    def test_noisy_monte_carlo_mean_recovery(self):
        # sigma = 0.05 cd/m^2; the mean estimate over 100 seeds lands within
        # 2% of the truth (single seeds scatter more on l0)
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        vs = np.linspace(0, 1, 11)
        estimates = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            meas = [Measurement(v=np.array([v, v, v]),
                                luminance=max(truth.luminance(v) + rng.normal(0, 0.05), 0.0))
                    for v in vs]
            fitted, _ = fit_achromatic(meas)
            estimates.append([fitted.l0, fitted.l1, fitted.gamma])
        mean = np.mean(estimates, axis=0)
        assert np.all(np.abs(mean - [2.0, 98.0, 2.2]) / [2.0, 98.0, 2.2] < 0.02)

    def test_constant_readings_degenerate(self):
        meas = [Measurement(v=np.full(3, v), luminance=5.0)
                for v in np.linspace(0, 1, 6)]
        with pytest.raises(FitError,
                           match="^constant luminance readings carry no information$"):
            fit_achromatic(meas)

    def test_too_few_points(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        with pytest.raises(FitError, match="insufficient"):
            fit_achromatic(achromatic_ramp(truth, [0.0, 0.5, 1.0]))

    def test_missing_range_coverage(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        with pytest.raises(FitError):
            fit_achromatic(achromatic_ramp(truth, np.linspace(0.3, 0.7, 8)))

    def test_empty_input(self):
        with pytest.raises(FitError, match=r"^insufficient data: need >= 5 distinct "
                                           r"v levels, got 0$"):
            fit_achromatic([])

    def test_xyz_readings_rejected(self):
        truth = make_chromatic()
        with pytest.raises(FitError, match="^achromatic fit needs luminance readings$"):
            fit_achromatic(chromatic_ramp(truth, np.linspace(0, 1, 11)))

    def test_non_achromatic_stimulus_rejected(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        meas = achromatic_ramp(truth, np.linspace(0, 1, 11))
        meas.insert(3, Measurement(v=np.array([0.5, 0.5, 0.6]), luminance=20.0))
        with pytest.raises(FitError, match=r"achromatic stimuli \(v_r=v_g=v_b\)$"):
            fit_achromatic(meas)

    def test_solver_stopped_at_its_evaluation_cap_is_error(self, monkeypatch):
        # three steps cut the bracket 64**3-fold, short of float precision
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        monkeypatch.setattr("hdrpcal.display.FIT_MAX_EVALS", 3)
        with pytest.raises(FitError, match="^achromatic fit did not converge within "
                                           "3 evaluations$"):
            fit_achromatic(achromatic_ramp(truth, np.linspace(0, 1, 11)))

    @pytest.mark.parametrize("luminance", [lambda v: 100 - 98 * v ** 2.2,
                                           lambda v: 2 + 98 * v ** 300])
    def test_no_interior_minimum_is_error(self, luminance):
        # falling luminance has its best fit at l1 <= 0; gamma 300 lies past
        # the bracket grid's end
        v = np.linspace(0, 1, 11)
        meas = Measurement(v=np.repeat(v[:, None], 3, axis=1), luminance=luminance(v))
        with pytest.raises(FitError, match=rf"^achromatic fit did not converge within "
                                           rf"{FIT_MAX_EVALS} evaluations$"):
            fit_achromatic(meas)

    def test_repeats_averaged(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        vs = np.linspace(0, 1, 11)
        meas = achromatic_ramp(truth, vs)
        # offset duplicates that average back to the truth
        for v in vs:
            meas.append(Measurement(v=np.full(3, v), luminance=truth.luminance(v) + 1.0))
            meas.append(Measurement(v=np.full(3, v), luminance=truth.luminance(v) - 1.0))
        fitted, _ = fit_achromatic(meas)
        assert fitted.gamma == pytest.approx(2.2, rel=1e-6)


class TestChromaticModel:
    def test_background_at_zero(self):
        d = make_chromatic()
        assert np.array_equal(d.xyz(np.zeros(3)), d.background)

    def test_full_red(self):
        d = make_chromatic()
        assert d.xyz(np.array([1.0, 0, 0])) == pytest.approx(
            d.primary_r + d.background, rel=1e-15)

    def test_full_white(self):
        d = make_chromatic()
        expected = d.primary_r + d.primary_g + d.primary_b + d.background
        assert d.xyz(np.ones(3)) == pytest.approx(expected, rel=1e-15)

    def test_additivity(self):
        d = make_chromatic()
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.uniform(0, 1, 3)
            acts = v ** d.gammas
            expected = (acts[0] * d.primary_r + acts[1] * d.primary_g
                        + acts[2] * d.primary_b + d.background)
            assert d.xyz(v) == pytest.approx(expected, rel=1e-12)


class TestBackgroundWeights:
    def test_zero_background(self):
        sol = solve_background_weights(*SRGB_PRIMARIES, np.zeros(3))
        assert sol.weights == pytest.approx(np.zeros(3), abs=1e-12)
        assert sol.residual == pytest.approx(0.0, abs=1e-12)

    def test_known_weights(self):
        pr, pg, pb = SRGB_PRIMARIES
        z = 0.01 * pr + 0.02 * pg + 0.03 * pb
        sol = solve_background_weights(pr, pg, pb, z)
        assert sol.weights == pytest.approx([0.01, 0.02, 0.03], rel=1e-9)
        assert sol.residual < 1e-9
        assert sol.rank == 3

    def test_rank_deficient_least_squares(self):
        # two identical primaries span a plane; the orthogonal part of the
        # background shows up as the reported residual
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        ortho = np.array([0.0, 0.0, 0.5])
        sol = solve_background_weights(a, a, b, 0.3 * a + 0.2 * b + ortho)
        assert sol.rank == 2
        assert sol.residual == pytest.approx(0.5, rel=1e-9)

    def test_all_zero_primaries(self):
        z3 = np.zeros(3)
        with pytest.raises(FitError):
            solve_background_weights(z3, z3, z3, np.array([1.0, 1, 1]))


class TestFitChromatic:
    def test_noiseless_recovery(self):
        truth = make_chromatic()
        fitted, report = fit_chromatic(chromatic_ramp(truth, np.linspace(0, 1, 11)))
        assert fitted.primary_r == pytest.approx(truth.primary_r, rel=1e-6)
        assert fitted.primary_g == pytest.approx(truth.primary_g, rel=1e-6)
        assert fitted.primary_b == pytest.approx(truth.primary_b, rel=1e-6)
        assert fitted.background == pytest.approx(truth.background, rel=1e-6)
        assert fitted.gammas == pytest.approx(truth.gammas, rel=1e-6)
        assert fitted.weights == pytest.approx(truth.weights, rel=1e-6)
        assert report.details["background_residual"] < 1e-9
        # the background row has no residual: 10 levels per channel
        assert report.n_points == report.residuals.size == 30

    def test_noisy_gamma_monte_carlo(self):
        truth = make_chromatic()
        base = chromatic_ramp(truth, np.linspace(0, 1, 11))
        gammas = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = [Measurement(v=m.v, xyz=np.maximum(m.xyz + rng.normal(0, 0.05, 3), 0))
                     for m in base]
            fitted, _ = fit_chromatic(noisy)
            gammas.append(fitted.gammas)
        mean = np.mean(gammas, axis=0)
        assert np.all(np.abs(mean - truth.gammas) / truth.gammas < 0.03)

    def test_missing_endpoint(self):
        truth = make_chromatic()
        meas = [m for m in chromatic_ramp(truth, np.linspace(0, 1, 11))
                if not (m.v[1] == 1.0)]
        with pytest.raises(FitError, match="full-on"):
            fit_chromatic(meas)

    def test_missing_background(self):
        truth = make_chromatic()
        meas = chromatic_ramp(truth, np.linspace(0, 1, 11))[1:]
        with pytest.raises(FitError, match="background"):
            fit_chromatic(meas)

    def test_endpoints_only(self):
        truth = make_chromatic()
        with pytest.raises(FitError, match="^channel r ramp has no interior points$"):
            fit_chromatic(chromatic_ramp(truth, [0.0, 1.0]))

    def test_empty_input(self):
        with pytest.raises(FitError, match=r"^missing background measurement at "
                                           r"v = \(0, 0, 0\)$"):
            fit_chromatic([])

    def test_luminance_readings_rejected(self):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        with pytest.raises(FitError, match="^chromatic fit needs XYZ readings$"):
            fit_chromatic(achromatic_ramp(truth, np.linspace(0, 1, 11)))

    def test_mixed_channels_rejected(self):
        truth = make_chromatic()
        meas = chromatic_ramp(truth, np.linspace(0, 1, 11))
        meas.append(Measurement(v=np.array([0.5, 0.5, 0.0]),
                                xyz=truth.xyz(np.array([0.5, 0.5, 0.0]))))
        with pytest.raises(FitError, match="one channel"):
            fit_chromatic(meas)

    def test_gamma_solver_stopped_at_its_evaluation_cap_is_error(self, monkeypatch):
        meas = chromatic_ramp(make_chromatic(), np.linspace(0, 1, 11))
        monkeypatch.setattr("hdrpcal.display.FIT_MAX_EVALS", 3)
        with pytest.raises(FitError, match="^gamma fit for channel r did not converge$"):
            fit_chromatic(meas)

    def test_activation_above_full_on_is_error(self):
        # v_g = 0.5 reads brighter than full green: the sum of squares falls
        # toward gamma = 0, so the bracket grid has no interior minimum
        truth = make_chromatic()
        meas = chromatic_ramp(truth, [0.0, 0.5, 1.0])
        meas[3] = Measurement(v=meas[3].v, xyz=truth.xyz(np.array([0.0, 1.0, 0.0])) + 1.0)
        with pytest.raises(FitError, match="^gamma fit for channel g did not converge$"):
            fit_chromatic(meas)

    def test_degenerate_primaries(self):
        pr = np.array([10.0, 5.0, 1.0])
        meas = [Measurement(v=np.zeros(3), xyz=np.zeros(3))]
        for k in range(3):
            for v in (0.5, 1.0):
                stim = np.zeros(3)
                stim[k] = v
                meas.append(Measurement(v=stim, xyz=pr * v ** 2.2))
        with pytest.raises(FitError, match="invertible"):
            fit_chromatic(meas)


def scipy_fit(v, y, linear):
    """Parameters and sum of squares of y ~ l1 * v**gamma + l0 (``linear``) or
    y ~ v**gamma from scipy's bounded ``least_squares``, run from the test only,
    with the start, bounds and step tolerance the fits used before they ran in
    numpy."""
    from scipy.optimize import least_squares
    if linear:
        res = least_squares(lambda t: t[1] * v ** t[2] + t[0] - y,
                            np.array([y.min(), np.ptp(y), 2.2]),
                            bounds=([0.0, 1e-12, 1e-6], [np.inf] * 3),
                            xtol=1e-10, ftol=None, gtol=None)
    else:
        res = least_squares(lambda t: v ** t[0] - y, np.array([2.2]),
                            bounds=([1e-6], [np.inf]), xtol=1e-14, ftol=None, gtol=None)
    assert res.status > 0
    return res.x, float(res.fun @ res.fun)


def golden_measurements():
    """The achromatic and chromatic readings of the CLI's golden session."""
    levels = np.linspace(0, 1, 11)
    achromatic = "v,L\n" + "".join(f"{v:.4f},{2 + 98 * v ** 2.2:.10g}\n" for v in levels)
    stims = np.vstack([np.zeros(3)] + [np.outer(levels[1:], np.eye(3)[k]) for k in range(3)])
    xyz = (stims ** np.array([1.8, 2.2, 2.6])) @ np.stack(SRGB_PRIMARIES) + [0.9, 1.0, 1.1]
    chromatic = "v_r,v_g,v_b,X,Y,Z\n" + "".join(
        ",".join(f"{x:.12g}" for x in row) + "\n" for row in np.hstack([stims, xyz]))
    return (load_achromatic_csv(io.StringIO(achromatic)),
            load_chromatic_csv(io.StringIO(chromatic)))


def noisy_ramps(seeds=range(24)):
    """Seeded 33-level ramps with additive noise: an achromatic batch and a
    chromatic reading list per seed; about a third of the achromatic fits end
    at l0 = 0."""
    v = np.linspace(0, 1, 33)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        lum = rng.uniform(50, 300) * v ** rng.uniform(1.6, 2.8) + rng.uniform(-1, 2)
        lum = np.maximum(lum + rng.normal(0, 0.5, v.size), 0.0)
        truth = make_chromatic(gammas=rng.uniform(1.6, 2.8, 3))
        chromatic = [Measurement(v=m.v, xyz=np.maximum(m.xyz + rng.normal(0, 0.05, 3), 0))
                     for m in chromatic_ramp(truth, v)]
        yield Measurement(v=np.repeat(v[:, None], 3, axis=1), luminance=lum), chromatic


class TestMatchesScipy:
    """The gamma solver against scipy's ``least_squares``: a sum of squares no
    more than 1e-9 above scipy's and parameters within 1e-6 relative (l0
    within 1e-6 absolute when below 1)."""

    @staticmethod
    def check_achromatic(meas):
        fitted, report = fit_achromatic(meas)
        v, lum = report.details["v"], report.details["luminance"]
        (l0, l1, gamma), sse = scipy_fit(v, lum, linear=True)
        assert report.residuals @ report.residuals <= sse * (1 + 1e-9)
        assert abs(fitted.l0 - l0) <= 1e-6 * max(l0, 1.0)
        assert fitted.l1 == pytest.approx(l1, rel=1e-6)
        assert fitted.gamma == pytest.approx(gamma, rel=1e-6)
        return fitted

    @staticmethod
    def check_chromatic(meas):
        # activations inverted as fit_chromatic inverts them, one reading per level
        fitted, _ = fit_chromatic(meas)
        batch = [meas] if isinstance(meas, Measurement) else meas
        v = np.concatenate([m.v.reshape(-1, 3) for m in batch])
        xyz = np.concatenate([m.xyz.reshape(-1, 3) for m in batch])
        acts = np.linalg.solve(fitted.primaries, (xyz - fitted.background).T).T
        for k in range(3):
            on = v[:, k] > 0
            (gamma,), sse = scipy_fit(v[on, k], acts[on, k], linear=False)
            assert np.sum((v[on, k] ** fitted.gammas[k] - acts[on, k]) ** 2) <= sse * (1 + 1e-9)
            assert fitted.gammas[k] == pytest.approx(gamma, rel=1e-6)

    def test_golden_session(self):
        achromatic, chromatic = golden_measurements()
        self.check_achromatic(achromatic)
        self.check_chromatic(chromatic)

    def test_noisy_ramps(self):
        at_zero = 0
        for achromatic, chromatic in noisy_ramps():
            at_zero += self.check_achromatic(achromatic).l0 == 0.0
            self.check_chromatic(chromatic)
        assert at_zero >= 3  # the l0 = 0 projection is compared too


def fitted_fields(fit):
    """Every field of a fitted display, then the report's residuals, rms
    and point count."""
    display, report = fit
    return [getattr(display, f.name) for f in dataclasses.fields(display)] + [
        report.residuals, report.residual_rms, report.n_points]


class TestInputForms:
    """A per-row list, one batch and the CSV reader fit bit-identically."""

    FORMS = {"achromatic": (fit_achromatic, load_achromatic_csv, "luminance", "v,L"),
             "chromatic": (fit_chromatic, load_chromatic_csv, "xyz",
                           "v_r,v_g,v_b,X,Y,Z")}

    @staticmethod
    def readings(kind, rng):
        """Noisy readings with repeated levels (two backgrounds for the
        chromatic ramps), in shuffled order."""
        if kind == "achromatic":
            truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
            levels = np.repeat(np.linspace(0, 1, 9), 3)
            v = np.repeat(levels[:, None], 3, axis=1)
            readings = truth.luminance(levels) + rng.normal(0, 0.5, levels.size)
        else:
            rows = chromatic_ramp(make_chromatic(), np.linspace(0, 1, 6))
            rows = rows + rows[:1] + rows[2:8]
            v = np.array([m.v for m in rows])
            readings = np.array([m.xyz for m in rows]) + rng.normal(0, 0.05, v.shape)
        order = rng.permutation(len(v))
        return v[order], np.maximum(readings, 0)[order]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["achromatic", "chromatic"])
    def test_list_batch_and_csv_fit_alike(self, kind, seed):
        fit, load, key, header = self.FORMS[kind]
        v, readings = self.readings(kind, np.random.default_rng(seed))
        per_row = fit([Measurement(v=a, **{key: b}) for a, b in zip(v, readings)])
        batch = fit(Measurement(v=v, **{key: readings}))
        table = np.column_stack([v[:, :1] if kind == "achromatic" else v, readings])
        text = "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        csv = fit(load(io.StringIO(f"{header}\n{text}")))
        for other in (batch, csv):
            assert all(np.array_equal(a, b) for a, b in
                       zip(fitted_fields(per_row), fitted_fields(other), strict=True))


class TestPersistence:
    def test_achromatic_json_round_trip(self):
        d = AchromaticDisplay(l0=1.25, l1=73.5, gamma=2.31)
        buf = io.StringIO()
        save_display(d, buf)
        buf.seek(0)
        back = load_display(buf)
        assert back == d

    def test_chromatic_json_round_trip(self):
        d = make_chromatic()
        buf = io.StringIO()
        save_display(d, buf)
        buf.seek(0)
        back = load_display(buf)
        assert np.array_equal(back.primaries, d.primaries)
        assert np.array_equal(back.gammas, d.gammas)
        assert np.array_equal(back.weights, d.weights)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            load_display(io.StringIO('{"kind": "plasma"}'))

    def test_json_bytes_pinned(self):
        # int and np.float64 fields, each kind with and without a fit report
        displays = (AchromaticDisplay(l0=2, l1=np.float64(98.0), gamma=2.2),
                    make_chromatic(gammas=(2, np.float64(2.2), 2.6)))
        report = FitReport(residual_rms=np.float64(0.0125), n_points=11,
                           residuals=np.zeros(11))
        digest = hashlib.sha256()
        for display in displays:
            for fit in (None, report):
                buf = io.StringIO()
                save_display(display, buf, fit)
                digest.update(buf.getvalue().encode())
        assert digest.hexdigest() == ("f576574dcf1ac6656fd3c9848c82b20f"
                                      "99e59aac927d2b06eb18b5869441902f")

    @pytest.mark.parametrize("text", ["", '{"kind": ', "[" * 5000])
    def test_not_json_rejected(self, text):
        with pytest.raises(ValidationError, match="display JSON"):
            load_display(io.StringIO(text))

    def test_measurement_csv_loaders(self):
        acsv = io.StringIO("v,L\n0,2\n0.5,23.3\n1,100\n")
        meas = load_achromatic_csv(acsv)
        assert np.array_equal(meas.v, np.repeat([[0.0], [0.5], [1.0]], 3, axis=1))
        assert np.array_equal(meas.luminance, [2.0, 23.3, 100.0])
        assert meas.xyz is None
        ccsv = io.StringIO("v_r,v_g,v_b,X,Y,Z\n0,0,0,1,1,1\n1,0,0,42,22,3\n")
        cmeas = load_chromatic_csv(ccsv)
        assert np.array_equal(cmeas.v, [[0, 0, 0], [1, 0, 0]])
        assert np.array_equal(cmeas.xyz, [[1, 1, 1], [42, 22, 3]])
        assert cmeas.luminance is None
        empty = load_chromatic_csv(io.StringIO("v_r,v_g,v_b,X,Y,Z\n"))
        assert empty.v.shape == empty.xyz.shape == (0, 3)

    def test_csv_header_mismatch(self):
        with pytest.raises(ValidationError):
            load_achromatic_csv(io.StringIO("value,L\n0,2\n"))
