"""The benchmark's workloads.

Each workload has three steps:

* ``prepare(seed, index, workdir, warmup)`` makes the inputs of iteration
  ``index`` from (seed, index) alone, so no iteration can be served from
  another's result.  It is set-up, outside the timed region.
* ``run(inputs, outdir)`` is the timed region: calls into the hdrpcal CLI
  or public API, looked up by module attribute at call time so that the
  traced run sees them.
* ``check(inputs, outputs)`` verifies the outputs against an acceptance
  criterion or README contract and returns ``(failures, quality, hashes)``.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from hdrpcal import calibrate, cli, cubelut, harness

TRUE_C = 0.822
TRUE_KNOTS = cubelut.DELTA_KNOTS  # default_knot_grid() active values, 3..32
GRID_SIZE = 32
SWEEP_POINTS = 4000
HALF_LSB = 0.5 / 255.0
DISPLAY = (1.0, 100.0, 2.2)  # l0, l1, gamma of the measured display
CROSS_MIX = np.array([[0.70, 0.20, 0.10], [0.15, 0.70, 0.15], [0.10, 0.20, 0.70]])


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_files(directory: Path) -> dict[str, str]:
    # Sidecars carry a timestamp; only output bodies are byte-stable.
    return {p.name: _sha(p.read_bytes()) for p in sorted(directory.iterdir())
            if not p.name.endswith(".meta.json")}


def _sweep_inputs(rng: np.random.Generator) -> np.ndarray:
    """Log-spaced sweep covering the clamped ends of the active knot range."""
    lo = 1e-5 * 10 ** rng.uniform(-0.2, 0.2)
    hi = 100.0 * 10 ** rng.uniform(-0.1, 0.1)
    return np.geomspace(lo, hi, SWEEP_POINTS)


def _delta_response(xs: np.ndarray, m: int) -> np.ndarray:
    """Reference response of impulse cube ``m`` (1-based) on the true grid,
    computed here with np.interp, independently of the package."""
    curve = np.zeros(TRUE_KNOTS.size)
    if m >= 3:
        curve[m - 3] = 1.0
    return np.interp(np.clip(xs, TRUE_KNOTS[0], TRUE_KNOTS[-1]), TRUE_KNOTS, curve)


def _knot_rel_err(active: np.ndarray) -> float:
    return float(np.max(np.abs(active - TRUE_KNOTS) / TRUE_KNOTS))


def _read_knot_csv(path: Path) -> np.ndarray:
    lines = path.read_text().split("\n")[1:]
    return np.array([float(line.split(",")[1]) for line in lines if line])


class CliWorkflow:
    """One calibration session through the in-process CLI."""

    name = "cli_workflow"
    samples = 20_000
    warmup_samples = 5_000

    def prepare(self, seed: int, index: int, workdir: Path, warmup: bool) -> dict:
        rng = _rng(seed, index)
        workdir.mkdir(parents=True, exist_ok=True)
        xs = _sweep_inputs(rng)
        sweep = workdir / "sweep.csv"
        with open(sweep, "w") as fh:
            fh.write("m,u,t\n")
            for m in range(1, GRID_SIZE + 1):
                fh.write("".join(f"{m},{u:.17g},{t:.17g}\n"
                                 for u, t in zip(xs, _delta_response(xs, m))))
        # One display, read with 0.01% meter noise: each iteration fits a
        # slightly different model, while the share of outputs pinned at the
        # display floor (which sets the validate median) stays the same.
        l0, l1, gamma = DISPLAY
        levels = np.linspace(0.0, 1.0, 33)
        readings = (l1 * levels ** gamma + l0) * (1.0 + rng.normal(0.0, 1e-4, levels.size))
        measurements = workdir / "measurements.csv"
        measurements.write_text("v,L\n" + "".join(
            f"{v:.17g},{lum:.17g}\n" for v, lum in zip(levels, readings)))
        return {"sweep": sweep, "measurements": measurements,
                "samples": self.warmup_samples if warmup else self.samples,
                "seeds": [int(s) for s in rng.integers(0, 2**31, 2)]}

    def run(self, inp: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        n = str(inp["samples"])
        knots, cube = str(out / "knots.csv"), str(out / "corr.cube")
        steps = [
            ["simulate", "--samples", n, "--seed", str(inp["seeds"][0]),
             "--quantize", "--out", str(out / "samples.csv")],
            ["fit-c", "--in", str(out / "samples.csv"), "--out", str(out / "c.json")],
            ["estimate-knots", "--mode", "delta", "--in", str(inp["sweep"]),
             "--out", knots],
            ["fit-display", "--mode", "achromatic", "--in", str(inp["measurements"]),
             "--out", str(out / "display.json")],
            ["make-cube", "--display", str(out / "display.json"), "--refine",
             "--knots", knots, "--out", cube],
            ["simulate", "--samples", n, "--seed", str(inp["seeds"][1]),
             "--quantize", "--tonemap", cube, "--knots", knots,
             "--out", str(out / "corrected.csv")],
            ["validate", "--in", str(out / "corrected.csv"), "--tonemap", cube,
             "--knots", knots, "--out", str(out / "report.csv"),
             "--plot", str(out / "report.svg")],
        ]
        codes = []
        for step in steps:
            codes.append(cli.main(["--quiet", *step]))
            if codes[-1] != 0:
                break
        return {"dir": out, "codes": codes, "steps": len(steps)}

    def check(self, inp: dict, res: dict):
        out = res["dir"]
        if res["codes"] != [0] * res["steps"]:
            return [f"exit codes {res['codes']}"], {}, {}
        failures = []
        c = json.loads((out / "c.json").read_text())["c"]
        if abs(c - TRUE_C) / TRUE_C >= 0.005:
            failures.append(f"fit-c: c = {c!r} not within 0.5% of {TRUE_C}")
        knot_err = _knot_rel_err(_read_knot_csv(out / "knots.csv"))
        if knot_err >= 0.005:
            failures.append(f"estimate-knots: worst relative error {knot_err:.3g}")
        report = (out / "report.csv").read_text().split("\n")
        errors = np.array([[float(x) for x in line.split(",")[7:10]]
                           for line in report[1:] if line and line[0] != "#"])
        median = next(float(line.split("=")[1]) for line in report
                      if line.startswith("# median_abs_error_255"))
        if errors.shape != (inp["samples"], 3):
            failures.append(f"validate: report has shape {errors.shape}")
        elif np.max(np.abs(errors)) > HALF_LSB + 1e-9:
            failures.append(f"validate: error {np.max(np.abs(errors))!r} "
                            "exceeds half an 8-bit step")
        quality = {"fit_error_255": median, "c": c,
                   "calibrate.estimate_knots_delta.knot_rel_err": knot_err}
        return failures, quality, _hash_files(out)


class KnotFit:
    """Criterion-05 quantized knot study: direct optimization of the knots."""

    samples = 1667
    warmup_samples = 500
    exposures = (-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)

    def prepare(self, seed: int, index: int, workdir: Path, warmup: bool) -> dict:
        rng = _rng(seed, index)
        grid = cubelut.default_knot_grid()
        umax = float(TRUE_KNOTS[-1])
        shapes = (lambda x: np.clip(x / umax, 0, 1),
                  lambda x: np.sqrt(np.clip(x / umax, 0, 1)),
                  lambda x: np.clip(x / umax, 0, 1) ** 2)
        datasets = []
        for fn in shapes:
            lut = cubelut.separable_cube(grid, fn)
            samples = harness.generate_samples(
                self.warmup_samples if warmup else self.samples,
                seed=int(rng.integers(0, 2**31)), kind="lambertian",
                tonemap=cubelut.CubeTonemap(grid, lut), quantize=True,
                exposure_choices=self.exposures)
            datasets.append((samples, lut))
        init = cubelut.KnotGrid.from_active(
            TRUE_KNOTS * (1.0 + rng.uniform(-0.1, 0.1, TRUE_KNOTS.size)))
        return {"datasets": datasets, "init": init,
                "split_seed": int(rng.integers(0, 2**31))}

    def run(self, inp: dict, out: Path) -> dict:
        grid, report = calibrate.estimate_knots_optimize(
            inp["datasets"], inp["init"], seed=inp["split_seed"])
        return {"grid": grid, "report": report}

    def check(self, inp: dict, res: dict):
        report = res["report"]
        failures = []
        if not report.holdout_median_255 <= 1.0:
            failures.append(f"holdout median {report.holdout_median_255!r}/255 > 1/255")
        buf = io.StringIO()
        res["grid"].to_csv(buf)
        quality = {"fit_error_255": report.holdout_median_255,
                   "calibrate.estimate_knots_optimize.knot_rel_err":
                       _knot_rel_err(res["grid"].active_values),
                   "evaluations": report.n_evaluations,
                   "converged": report.converged}
        hashes = {"knots": _sha(res["grid"].values.tobytes()),
                  "knots.csv": _sha(buf.getvalue().encode()),
                  "report": _sha(repr((report.objective_init, report.objective_final,
                                       report.train_median_255,
                                       report.holdout_median_255,
                                       report.n_evaluations)).encode())}
        return failures, quality, hashes


class LutIo:
    """Impulse-cube experiment plus a round trip of one cross-channel cube."""

    points = 20_000

    def prepare(self, seed: int, index: int, workdir: Path, warmup: bool) -> dict:
        rng = _rng(seed, index)
        xs = _sweep_inputs(rng)
        # Non-separable cube: every output channel mixes all three axes, plus
        # seed-drawn noise.  The value distribution, which sets the text
        # round-trip error, is the same for every seed.
        axis = np.linspace(0.0, 1.0, GRID_SIZE)
        base = np.stack(np.meshgrid(axis, axis ** 0.5, axis ** 2, indexing="ij"), axis=-1)
        outputs = np.clip(base @ CROSS_MIX.T + rng.uniform(-0.01, 0.01, base.shape),
                          0.0, 1.0)
        general = cubelut.CubeLUT(outputs, title="cross-channel")
        points = np.exp(rng.uniform(np.log(1e-4), np.log(60.0), (self.points, 3)))
        return {"xs": xs, "general": general, "points": points}

    def run(self, inp: dict, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        code = cli.main(["--quiet", "gen-delta-cubes", "--out", str(out / "delta")])
        if code != 0:
            return {"dir": out, "code": code}
        grid = cubelut.default_knot_grid()
        xs = inp["xs"]
        stacked = np.column_stack([xs, xs, xs])
        sweeps, parsed = [], []
        for m in range(1, GRID_SIZE + 1):
            with open(out / "delta" / f"delta_{m:02d}.cube") as fh:
                lut = cubelut.parse_cube(fh)
            parsed.append(lut)
            response = cubelut.CubeTonemap(grid, lut).apply(stacked)[:, 0]
            sweeps.append(calibrate.DeltaSweep(m=m, inputs=xs, outputs=response))
        estimate, report = calibrate.estimate_knots_delta(sweeps)

        path = out / "general.cube"
        path.write_text(cubelut.serialize_cube(inp["general"]))
        with open(path) as fh:
            general = cubelut.parse_cube(fh)
        applied = cubelut.CubeTonemap(grid, general).apply(inp["points"])
        return {"dir": out, "code": code, "parsed": parsed, "estimate": estimate,
                "report": report, "general": general, "applied": applied}

    def check(self, inp: dict, res: dict):
        if res["code"] != 0:
            return [f"gen-delta-cubes exit code {res['code']}"], {}, {}
        failures = []
        for m, lut in enumerate(res["parsed"], start=1):
            hit = np.zeros(GRID_SIZE)
            hit[m - 1] = 1.0
            expected = np.stack(np.broadcast_arrays(
                hit[:, None, None], hit[None, :, None], hit[None, None, :]), axis=-1)
            if np.max(np.abs(lut.outputs - expected)) > 1e-6:
                failures.append(f"delta cube {m} does not round-trip")
        knot_err = _knot_rel_err(res["estimate"].active_values)
        if knot_err >= 0.005 or res["report"].no_response != (1, 2):
            failures.append(f"delta knots: worst relative error {knot_err:.3g}, "
                            f"no response at {res['report'].no_response}")
        round_trip = float(np.max(np.abs(res["general"].outputs
                                         - inp["general"].outputs)))
        if round_trip >= 1e-6:
            failures.append(f"general cube round trip error {round_trip:.3g}")
        reference = cubelut.CubeTonemap(cubelut.default_knot_grid(),
                                        inp["general"]).apply(inp["points"])
        # Tonemap error the text round trip introduces, in 1/255 units.
        cube_error = float(np.median(np.abs(res["applied"] - reference)) * 255.0)
        hashes = _hash_files(res["dir"] / "delta")
        hashes["general.cube"] = _sha((res["dir"] / "general.cube").read_bytes())
        hashes["knots"] = _sha(res["estimate"].values.tobytes())
        hashes["applied"] = _sha(res["applied"].tobytes())
        quality = {"cube_error_255": cube_error, "round_trip_max": round_trip,
                   "calibrate.estimate_knots_delta.knot_rel_err": knot_err}
        return failures, quality, hashes


class KnotLut:
    """The impulse-cube experiment followed by the criterion-05 knot fit.

    One workload for both, so that each run measures longer within the
    benchmark's time budget; the per-layer trace keeps them apart."""

    name = "knot_lut"
    parts = {"lut": LutIo(), "knot": KnotFit()}

    def prepare(self, seed: int, index: int, workdir: Path, warmup: bool) -> dict:
        return {key: part.prepare(seed, index, workdir / key, warmup)
                for key, part in self.parts.items()}

    def run(self, inp: dict, out: Path) -> dict:
        return {key: part.run(inp[key], out / key) for key, part in self.parts.items()}

    def check(self, inp: dict, res: dict):
        failures, quality, hashes = [], {}, {}
        for key, part in self.parts.items():
            f, q, h = part.check(inp[key], res[key])
            failures += f
            quality.update(q)
            hashes.update({f"{key}/{name}": value for name, value in h.items()})
        return failures, quality, hashes


WORKLOADS = {w.name: w for w in (CliWorkflow(), KnotLut())}
