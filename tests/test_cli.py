import argparse
import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hdrpcal import cli, errors, harness
from hdrpcal.calibrate import GammaCorrectionSpec, build_correction_cube
from hdrpcal.cli import main
from hdrpcal.cubelut import (CubeTonemap, KnotGrid, default_knot_grid,
                             make_delta_cube, parse_cube, serialize_cube)
from hdrpcal.display import AchromaticDisplay, save_display
from hdrpcal.harness import load_samples
from test_calibrate import make_chromatic_display


def run(*argv):
    return main(list(argv))


@pytest.fixture
def display_json(tmp_path):
    path = tmp_path / "display.json"
    with open(path, "w") as fh:
        save_display(AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2), fh)
    return str(path)


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("simulate", "--samples", "10", "--seed", "1", "--out", str(a)) == 0
        assert run("simulate", "--samples", "10", "--seed", "1", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("simulate", "--samples", "5", "--seed", "3", "--out", str(out)) == 0
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["version"]
        assert meta["config"]["samples"] == 5
        assert meta["config"]["seed"] == 3

    def test_unlit_zeroes_lighting_columns(self, tmp_path):
        out = tmp_path / "u.csv"
        assert run("simulate", "--samples", "6", "--seed", "2", "--material",
                   "unlit", "--out", str(out)) == 0
        with open(out) as fh:
            samples = load_samples(fh)
        assert samples.kinds.tolist() == ["unlit"] * 6
        assert np.all(samples.i_d == 0)

    def test_stdout_when_no_out(self, capsys):
        assert run("simulate", "--samples", "2", "--seed", "0") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("kind,m_r")

    def test_bad_cube_path_exit_2(self, tmp_path):
        assert run("simulate", "--samples", "2", "--tonemap",
                   str(tmp_path / "missing.cube")) == 2

    def test_bad_flag_value_exit_64(self, capsys):
        assert run("simulate", "--samples", "0") == 64
        for argv in (["simulate"], ["validate", "--in", "s.csv"],
                     ["estimate-knots", "--mode", "optimize", "--in", "s.csv"]):
            for gain in ("-1", "0", "nan", "inf"):
                assert run(*argv, "--c", gain) == 64, (argv, gain)
                err = capsys.readouterr().err
                assert "--c" in err and "Traceback" not in err

    def test_unknown_flag_exit_64(self):
        assert run("simulate", "--frobnicate") == 64

    def test_negative_seed_exit_64(self, capsys):
        assert run("simulate", "--samples", "2", "--seed", "-1") == 64
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    def test_non_integer_seed_exit_64(self, capsys):
        assert run("simulate", "--samples", "2", "--seed", "x") == 64
        err = capsys.readouterr().err
        assert "argument --seed: expected a non-negative integer, got 'x'" in err
        assert "Traceback" not in err


class TestFitC:
    def test_closed_loop(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert run("simulate", "--samples", "500", "--seed", "4",
                   "--out", str(csv)) == 0
        assert run("fit-c", "--in", str(csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["c"] - 0.822) / 0.822 < 1e-9

    def test_quantized_closed_loop(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert run("simulate", "--samples", "2000", "--seed", "5", "--quantize",
                   "--c", "0.822", "--out", str(csv)) == 0
        assert run("fit-c", "--in", str(csv)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["c"] - 0.822) / 0.822 < 0.005

    def test_missing_file_exit_2(self, tmp_path):
        assert run("fit-c", "--in", str(tmp_path / "nope.csv")) == 2

    def test_insufficient_samples_exit_1(self, tmp_path):
        csv = tmp_path / "few.csv"
        assert run("simulate", "--samples", "10", "--seed", "6",
                   "--out", str(csv)) == 0
        assert run("fit-c", "--in", str(csv)) == 1


class TestGenDeltaCubes:
    def test_writes_32_files(self, tmp_path):
        outdir = tmp_path / "cubes"
        assert run("gen-delta-cubes", "--out", str(outdir)) == 0
        files = sorted(p.name for p in outdir.glob("*.cube"))
        assert files == [f"delta_{m:02d}.cube" for m in range(1, 33)]
        with open(outdir / "delta_16.cube") as fh:
            lut = parse_cube(fh)
        assert np.array_equal(lut.outputs, make_delta_cube(16).outputs)

    def test_bytes_pinned(self, tmp_path):
        assert run("gen-delta-cubes", "--out", str(tmp_path)) == 0
        digest = hashlib.sha256()
        for path in sorted(tmp_path.glob("*.cube")):
            digest.update(path.read_bytes())
        assert digest.hexdigest() == ("2dacc6bfe108c6b115ac3bebbd652805"
                                      "b702a5894b479038e523e4189a4a702f")


class TestEstimateKnots:
    def test_delta_mode(self, tmp_path):
        grid = default_knot_grid()
        xs = np.geomspace(1e-5, 100, 1500)
        rows = ["m,u,t"]
        for m in range(1, 33):
            tm = CubeTonemap(grid, make_delta_cube(m))
            t = tm.apply(np.column_stack([xs, xs, xs]))[:, 0]
            rows.extend(f"{m},{x:.12g},{y:.12g}" for x, y in zip(xs, t))
        sweep_csv = tmp_path / "sweeps.csv"
        sweep_csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "knots.csv"
        assert run("estimate-knots", "--mode", "delta", "--in", str(sweep_csv),
                   "--out", str(out)) == 0
        with open(out) as fh:
            est = KnotGrid.from_csv(fh)
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 0.005

    def test_delta_mode_row_order_irrelevant(self, tmp_path):
        grid = default_knot_grid()
        xs = np.geomspace(1e-5, 100, 400)
        rows = []
        for m in range(1, 33):
            t = CubeTonemap(grid, make_delta_cube(m)).apply(
                np.column_stack([xs, xs, xs]))[:, 0]
            rows.extend(f"{m},{x:.17g},{y:.17g}" for x, y in zip(xs, t))
        shuffled = [rows[i] for i in np.random.default_rng(5).permutation(len(rows))]
        outputs = []
        for name, body in (("ordered", rows), ("shuffled", shuffled)):
            sweep_csv = tmp_path / f"{name}.csv"
            sweep_csv.write_text("m,u,t\n" + "\n".join(body) + "\n")
            out = tmp_path / f"{name}_knots.csv"
            assert run("estimate-knots", "--mode", "delta", "--in", str(sweep_csv),
                       "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_optimize_mode_negative_seed_exit_64(self, tmp_path, capsys):
        # the seed is rejected while parsing, before any file is opened
        assert run("estimate-knots", "--mode", "optimize",
                   "--in", str(tmp_path / "s.csv"),
                   "--cube", str(tmp_path / "any.cube"), "--seed", "-1") == 64
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err

    @pytest.mark.parametrize("row,problem", [("4,0.5", "expected 3 columns, got 2"),
                                             ("4,0.5,0.1,0", "expected 3 columns"),
                                             ("4.0,0.5,0.1", "non-numeric field"),
                                             ("4,x,0.1", "non-numeric field"),
                                             ("3,nan,0.1", "non-finite field")])
    def test_delta_mode_malformed_row_exit_2(self, tmp_path, capsys, row, problem):
        sweep_csv = tmp_path / "sweeps.csv"
        sweep_csv.write_text(f"m,u,t\n3,0.1,0.0\n# note\n{row}\n3,0.2,0.5\n")
        assert run("estimate-knots", "--mode", "delta", "--in", str(sweep_csv)) == 2
        err = capsys.readouterr().err
        assert f"line 4: {problem}" in err and "Traceback" not in err

    @pytest.mark.parametrize("rows, message", [
        ("3,0.1,0\n3,0.2,0.5\n# note\n3,0.2,0.6\n3,0.3,0",
         "sweep CSV: sweep 3: sweep inputs must be strictly increasing"),
        ("3,0.1,0\n# note\n3,-0.1,0.5\n3,0.3,0\n3,0.4,0",
         "sweep CSV line 4: u < 0 or t outside [0, 1]"),
        ("3,0.1,0\n3,0.2,1.5\n3,0.3,0\n3,0.4,0",
         "sweep CSV line 3: u < 0 or t outside [0, 1]"),
        ("4,0.1,0\n4,0.2,1\n4,0.3,0\n4,0.4,0\n3,0.1,0\n3,0.2,1\n3,0.3,0",
         "sweep CSV: sweep 3: sweep needs matching input/output vectors (length >= 4)"),
    ], ids=["tied u", "negative u", "t above 1", "three rows"])
    def test_delta_mode_sweep_value_error_names_line_or_sweep_exit_2(
            self, tmp_path, capsys, rows, message):
        sweep_csv = tmp_path / "sweeps.csv"
        sweep_csv.write_text(f"m,u,t\n{rows}\n")
        assert run("estimate-knots", "--mode", "delta", "--in", str(sweep_csv)) == 2
        assert capsys.readouterr().err == f"hdrpcal: {message}\n"

    def test_delta_mode_sweep_index_outside_the_grid_exit_1(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweeps.csv"
        sweep_csv.write_text("m,u,t\n40,0.1,0\n40,0.2,1\n40,0.3,0\n40,0.4,0\n")
        assert run("estimate-knots", "--mode", "delta", "--in", str(sweep_csv)) == 1
        assert capsys.readouterr().err == "hdrpcal: sweep 40: expected one sweep per index in 1..32\n"

    def test_delta_mode_takes_one_sweep_file_exit_64(self, tmp_path, capsys):
        sweeps = str(tmp_path / "sweeps.csv")
        assert run("estimate-knots", "--mode", "delta", "--in", sweeps, "--in", sweeps) == 64
        err = capsys.readouterr().err
        assert "delta mode takes exactly one --in sweep CSV" in err and "Traceback" not in err

    def test_optimize_mode_requires_cubes(self, tmp_path):
        csv = tmp_path / "s.csv"
        assert run("simulate", "--samples", "30", "--seed", "0",
                   "--out", str(csv)) == 0
        assert run("estimate-knots", "--mode", "optimize", "--in", str(csv)) == 64

    @staticmethod
    def optimize_args(tmp_path, exposures=(-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0,
                                           8.0, 10.0, 12.0)):
        # samples generated under two known cubes, the default exposures
        # spreading the unprocessed values across every knot cell
        grid = default_knot_grid()
        from hdrpcal.cubelut import separable_cube, serialize_cube
        from hdrpcal.harness import generate_samples, save_samples
        umax = float(grid.active_values[-1])
        shapes = [lambda x: np.clip(x / umax, 0, 1),
                  lambda x: np.sqrt(np.clip(x / umax, 0, 1))]
        args = ["estimate-knots", "--mode", "optimize"]
        for i, fn in enumerate(shapes):
            lut = separable_cube(grid, fn)
            cube_path = tmp_path / f"shape{i}.cube"
            with open(cube_path, "w") as fh:
                serialize_cube(lut, fh)
            samples = generate_samples(400, seed=70 + i, kind="lambertian",
                                       tonemap=CubeTonemap(grid, lut),
                                       exposure_choices=exposures)
            csv_path = tmp_path / f"shape{i}.csv"
            with open(csv_path, "w") as fh:
                save_samples(samples, fh)
            args += ["--in", str(csv_path), "--cube", str(cube_path)]
        return args

    def test_optimize_mode_closed_loop(self, tmp_path, capsys):
        # recovery is limited by the 8-significant-digit precision of the
        # written cube files
        out = tmp_path / "knots.csv"
        assert run(*self.optimize_args(tmp_path), "--out", str(out)) == 0
        assert re.search(r"holdout = .*\(\d+ evaluations, converged\)",
                         capsys.readouterr().err)
        with open(out) as fh:
            est = KnotGrid.from_csv(fh)
        grid = default_knot_grid()
        rel = np.abs(est.active_values - grid.active_values) / grid.active_values
        assert rel.max() < 1e-3

    def test_optimize_mode_names_unsupported_knots(self, tmp_path, capsys):
        # at exposure 0 no sample reaches the top knot cells
        assert run(*self.optimize_args(tmp_path, exposures=(0.0,))) == 0
        assert re.search(r"\(\d+ evaluations, converged: unsupported knots: [\d, ]+, 32\)",
                         capsys.readouterr().err)

    def test_optimize_mode_zero_first_knot_exit_1(self, tmp_path, capsys):
        init = tmp_path / "init.csv"
        values = default_knot_grid().active_values.copy()
        values[0] = 0.0
        with open(init, "w") as fh:
            KnotGrid.from_active(values).to_csv(fh)
        assert run(*self.optimize_args(tmp_path), "--init", str(init)) == 1
        err = capsys.readouterr().err
        assert "optimization needs a first active knot > 0" in err and "Traceback" not in err

    def test_optimize_mode_reports_no_convergence(self, tmp_path, capsys,
                                                  monkeypatch):
        from hdrpcal import calibrate
        monkeypatch.setattr(calibrate, "KNOT_FIT_MAX_EVALS", 2)
        init = tmp_path / "init.csv"
        with open(init, "w") as fh:
            KnotGrid.from_active(default_knot_grid().active_values * 1.01).to_csv(fh)
        assert run(*self.optimize_args(tmp_path), "--init", str(init)) == 0
        err = capsys.readouterr().err
        assert re.search(r"\(\d+ evaluations, did not converge: \S", err), err


class TestFitDisplay:
    def test_achromatic(self, tmp_path):
        truth = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        rows = ["v,L"] + [f"{v:.4f},{truth.luminance(v):.10g}"
                          for v in np.linspace(0, 1, 11)]
        csv = tmp_path / "meas.csv"
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "display.json"
        assert run("fit-display", "--in", str(csv), "--mode", "achromatic",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "achromatic"
        assert doc["gamma"] == pytest.approx(2.2, rel=1e-6)
        assert doc["fit"]["n_points"] == 11

    @pytest.mark.parametrize("mode,text,problem", [
        ("achromatic", "v,L\n0,2\n0.5\n", "line 3: expected 2 columns, got 1"),
        ("achromatic", "v,L\n0,2\n0.5,x\n", "line 3: non-numeric field"),
        ("chromatic", "v_r,v_g,v_b,X,Y,Z\n0,0,0,1,1,z\n", "line 2: non-numeric field"),
        ("chromatic", "v_r,v_g,v_b,X,Y,Z\n0,0,0,1,1\n",
         "line 2: expected 6 columns, got 5"),
        ("achromatic", "v,L\n0,2\n0.5,inf\n", "line 3: non-finite field"),
        ("achromatic", "v,L\n0,2\n1.5,23\n1,100\n", "line 3: v outside [0, 1] or L < 0"),
        ("achromatic", "v,L\n0,2\n# note\n0.5,-3\n", "line 4: v outside [0, 1] or L < 0"),
        ("chromatic", "v_r,v_g,v_b,X,Y,Z\n0,0,0,1,1,-1\n",
         "line 2: v outside [0, 1] or X, Y, Z < 0")])
    def test_malformed_row_exit_2(self, tmp_path, capsys, mode, text, problem):
        csv = tmp_path / "meas.csv"
        csv.write_text(text)
        assert run("fit-display", "--in", str(csv), "--mode", mode) == 2
        err = capsys.readouterr().err
        assert f"measurement CSV {problem}" in err and "Traceback" not in err

    def test_insufficient_data_exit_1(self, tmp_path):
        csv = tmp_path / "meas.csv"
        csv.write_text("v,L\n0,2\n1,100\n")
        assert run("fit-display", "--in", str(csv), "--mode", "achromatic") == 1

    def test_primary_below_background_exit_1(self, tmp_path, capsys):
        # the red full-on reading is darker than the background
        csv = tmp_path / "chroma.csv"
        csv.write_text("v_r,v_g,v_b,X,Y,Z\n0,0,0,5,5,5\n0.5,0,0,4,4,4\n1,0,0,3,3,3\n"
                       "0,0.5,0,10,20,5\n0,1,0,30,60,10\n0,0,0.5,6,6,20\n0,0,1,8,8,60\n")
        assert run("fit-display", "--in", str(csv), "--mode", "chromatic") == 1
        err = capsys.readouterr().err
        assert "channel r primary Y = -2 is not > 0" in err and "Traceback" not in err

    def test_chromatic(self, tmp_path):
        from hdrpcal.display import ChromaticDisplay
        pr, pg, pb = (np.array([41.24, 21.26, 1.93]),
                      np.array([35.76, 71.52, 11.92]),
                      np.array([18.05, 7.22, 95.03]))
        truth = ChromaticDisplay(primary_r=pr, primary_g=pg, primary_b=pb,
                                 background=0.01 * pr + 0.02 * pg + 0.03 * pb,
                                 gammas=np.array([1.8, 2.2, 2.6]),
                                 weights=np.array([0.01, 0.02, 0.03]))
        rows = ["v_r,v_g,v_b,X,Y,Z"]
        stims = [np.zeros(3)]
        for k in range(3):
            for v in np.linspace(0.2, 1.0, 5):
                stim = np.zeros(3)
                stim[k] = v
                stims.append(stim)
        for stim in stims:
            xyz = truth.xyz(stim)
            rows.append(",".join(f"{x:.12g}" for x in np.concatenate([stim, xyz])))
        csv = tmp_path / "chroma.csv"
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "display.json"
        assert run("fit-display", "--in", str(csv), "--mode", "chromatic",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "chromatic"
        assert doc["gammas"] == pytest.approx([1.8, 2.2, 2.6], rel=1e-6)


@pytest.mark.parametrize("argv", [
    ["fit-display", "--mode", "achromatic", "--in"], ["fit-c", "--in"],
    ["validate", "--in"], ["make-cube", "--display"]])
def test_non_utf8_input_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe")
    assert run(*argv, str(path)) == 2
    err = capsys.readouterr().err
    assert "can't decode byte 0xff" in err and "Traceback" not in err
    assert str(path) in err


class TestMakeCubeAndValidate:
    @pytest.mark.parametrize("row", ["3", "3,0.1,0.2", "3,x", "x,0.1", "3,nan",
                                     "0,1\n1,2", "-2,1\n-1,2", "257,1"])
    def test_make_cube_malformed_knot_row_exit_2(self, tmp_path, capsys,
                                                  display_json, row):
        knots = tmp_path / "knots.csv"
        knots.write_text(f"index,u\n# note\n{row}\n")
        assert run("make-cube", "--display", display_json,
                   "--knots", str(knots)) == 2
        err = capsys.readouterr().err
        assert "knot CSV line 3" in err and "Traceback" not in err

    def test_make_cube_display_missing_key_exit_2(self, tmp_path, capsys):
        path = tmp_path / "display.json"
        path.write_text('{"kind": "achromatic", "l0": 2.0, "gamma": 2.2}\n')
        assert run("make-cube", "--display", str(path)) == 2
        err = capsys.readouterr().err
        assert "missing key 'l1'" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind, key, value", [
        ("achromatic", "l1", "abc"),
        ("achromatic", "l1", None),
        ("chromatic", "primary_r", "abc"),
    ])
    def test_make_cube_display_non_numeric_exit_2(self, tmp_path, capsys,
                                                  kind, key, value):
        doc = ({"kind": "achromatic", "l0": 2.0, "l1": 98.0, "gamma": 2.2}
               if kind == "achromatic" else
               {"kind": "chromatic", "primary_r": [41.2, 21.3, 1.9],
                "primary_g": [35.8, 71.5, 11.9], "primary_b": [18.0, 7.2, 95.0],
                "background": [0.5, 0.5, 0.5], "gammas": [2.2, 2.2, 2.2],
                "weights": [0.01, 0.01, 0.01]})
        doc[key] = value
        path = tmp_path / "display.json"
        path.write_text(json.dumps(doc))
        assert run("make-cube", "--display", str(path)) == 2
        err = capsys.readouterr().err
        assert f"{key!r} must be" in err and "Traceback" not in err

    def test_make_cube_matches_library(self, tmp_path, display_json):
        out = tmp_path / "corr.cube"
        assert run("make-cube", "--display", display_json, "--r", "1.111",
                   "--refine", "--out", str(out)) == 0
        with open(out) as fh:
            lut = parse_cube(fh)
        assert lut.size == 32
        curves = lut.separable_channels()
        assert curves is not None
        assert np.all(np.diff(curves[0][2:]) >= -1e-9)

    def test_make_cube_linearizes_display(self, tmp_path, display_json):
        from hdrpcal.colorspace import srgb_encode
        out = tmp_path / "corr.cube"
        r = 1.111
        assert run("make-cube", "--display", display_json, "--r", str(r),
                   "--refine", "--out", str(out)) == 0
        with open(out) as fh:
            tm = CubeTonemap(default_knot_grid(), parse_cube(fh))
        display = AchromaticDisplay(l0=2.0, l1=98.0, gamma=2.2)
        u = np.geomspace(0.02, 1.0, 300)
        lum = display.luminance(srgb_encode(tm.apply(np.column_stack([u] * 3))[:, 0]))
        target = (display.l0 + display.l1) * u / r
        assert np.max(np.abs(lum - target)) / (display.l0 + display.l1) <= 0.005

    def test_make_cube_chromatic_display(self, tmp_path):
        disp = make_chromatic_display()
        djson = tmp_path / "chroma.json"
        with open(djson, "w") as fh:
            save_display(disp, fh)
        texts = []
        for r in ("1.0", "1.111"):
            out = tmp_path / f"corr_{r}.cube"
            assert run("make-cube", "--display", str(djson), "--r", r,
                       "--refine", "--out", str(out)) == 0
            texts.append(out.read_text())
            spec = GammaCorrectionSpec(disp, input_range=float(r))
            assert texts[-1] == serialize_cube(
                build_correction_cube(spec, default_knot_grid(), refine=True))
        # --r moves every channel's top kink, so the two cubes differ
        assert texts[0] != texts[1]
        curves = parse_cube(texts[1]).separable_channels()
        # distinct gammas produce distinct per-channel curves
        assert not np.array_equal(curves[0], curves[1])

    def test_validate_closed_loop(self, tmp_path):
        samples = tmp_path / "s.csv"
        report = tmp_path / "report.csv"
        plot = tmp_path / "plot.svg"
        assert run("simulate", "--samples", "150", "--seed", "12",
                   "--out", str(samples)) == 0
        assert run("validate", "--in", str(samples), "--out", str(report),
                   "--plot", str(plot)) == 0
        text = report.read_text()
        assert "# median_abs_error_255 = 0" in text
        assert plot.read_text().startswith("<svg")

    def test_validate_with_cube_tonemap(self, tmp_path):
        cubes = tmp_path / "cubes"
        assert run("gen-delta-cubes", "--out", str(cubes)) == 0
        samples = tmp_path / "s.csv"
        assert run("simulate", "--samples", "100", "--seed", "13", "--tonemap",
                   str(cubes / "delta_16.cube"), "--out", str(samples)) == 0
        report = tmp_path / "report.csv"
        assert run("validate", "--in", str(samples), "--tonemap",
                   str(cubes / "delta_16.cube"), "--out", str(report)) == 0
        assert "# median_abs_error_255 = 0" in report.read_text()

    def test_byte_stable_reports(self, tmp_path):
        samples = tmp_path / "s.csv"
        assert run("simulate", "--samples", "50", "--seed", "14",
                   "--out", str(samples)) == 0
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        assert run("validate", "--in", str(samples), "--out", str(r1)) == 0
        assert run("validate", "--in", str(samples), "--out", str(r2)) == 0
        assert r1.read_bytes() == r2.read_bytes()


#: sha256 of each output body of the session in ``golden_session``.
GOLDEN = {
    "simulate":
        "0af929ce1313c56d138662d5a4f0d1114b2eef29e108b9f604d3f3e53d95d833",
    "fit-c":
        "e1391dd0633d48f0ebe4b6cf5cd46c3585770e8b4563045b6bf91dfcdef1514c",
    "estimate-knots":
        "ee7fc197745096cb3409f08e2a02cb8737033221115dcfeab15d6b0227ec8202",
    "fit-display achromatic":
        "4641674645ac42bf8c7a26d482a188636cfaaeca45638e83fcd3380486ca392a",
    "fit-display chromatic":
        "f561c6ccc1951d0cde9b6fb71cc18cbfce93566a7f6457dddb5da6362ddfed1e",
    "make-cube":
        "7aaa267c2d465599c836c4ac0b5f7442fb8a00837b8c7927c2af8c455c2004b4",
    "simulate through the cube":
        "19422cf7c169d893272c903a1f56f1c96f25c723b4ab8821dfc7a2844ebe12a3",
    "validate csv":
        "7b756f3c3698389f22e9762fe88361a5daddd137d394e1b33f30605c4145ef97",
    "validate svg":
        "7145b96ec59b6a5d83648465fc531b6c2763566282794601377be25721bd849e",
}


@pytest.fixture(scope="module")
def golden_session(tmp_path_factory):
    """One calibration session on small fixed inputs; the path of each
    output body, by ``GOLDEN`` key."""
    d = tmp_path_factory.mktemp("golden")
    out = {name: d / name.replace(" ", "_") for name in GOLDEN}
    # impulse sweeps over the built-in knots, for delta-mode estimation
    xs = np.geomspace(1e-5, 100, 120)
    rows = ["m,u,t"]
    for m in range(1, 33):
        t = CubeTonemap(default_knot_grid(), make_delta_cube(m)).apply(
            np.column_stack([xs, xs, xs]))[:, 0]
        rows.extend(f"{m},{x:.12g},{y:.12g}" for x, y in zip(xs, t))
    (d / "sweeps.csv").write_text("\n".join(rows) + "\n")
    # L = 2 + 98 v^2.2, and an additive display with sRGB-like primaries
    levels = np.linspace(0, 1, 11)
    (d / "achromatic.csv").write_text("v,L\n" + "".join(
        f"{v:.4f},{2 + 98 * v ** 2.2:.10g}\n" for v in levels))
    primaries = np.array([[41.24, 21.26, 1.93], [35.76, 71.52, 11.92],
                          [18.05, 7.22, 95.03]])
    stims = np.vstack([np.zeros(3)] + [np.outer(levels[1:], np.eye(3)[k])
                                       for k in range(3)])
    xyz = (stims ** np.array([1.8, 2.2, 2.6])) @ primaries + [0.9, 1.0, 1.1]
    (d / "chromatic.csv").write_text("v_r,v_g,v_b,X,Y,Z\n" + "".join(
        ",".join(f"{x:.12g}" for x in row) + "\n" for row in np.hstack([stims, xyz])))
    for argv in (
            ["simulate", "--samples", "150", "--seed", "31", "--quantize",
             "--out", out["simulate"]],
            ["fit-c", "--in", out["simulate"], "--out", out["fit-c"]],
            ["estimate-knots", "--mode", "delta", "--in", d / "sweeps.csv",
             "--out", out["estimate-knots"]],
            ["fit-display", "--mode", "achromatic", "--in", d / "achromatic.csv",
             "--out", out["fit-display achromatic"]],
            ["fit-display", "--mode", "chromatic", "--in", d / "chromatic.csv",
             "--out", out["fit-display chromatic"]],
            ["make-cube", "--display", out["fit-display achromatic"], "--r", "1.111",
             "--refine", "--knots", out["estimate-knots"], "--out", out["make-cube"]],
            ["simulate", "--samples", "150", "--seed", "32", "--tonemap",
             out["make-cube"], "--knots", out["estimate-knots"],
             "--out", out["simulate through the cube"]],
            # scored against the built-in knots, not the estimated ones
            ["validate", "--in", out["simulate through the cube"], "--tonemap",
             out["make-cube"], "--out", out["validate csv"],
             "--plot", out["validate svg"]]):
        assert run("--quiet", *map(str, argv)) == 0, argv
    return out


class TestGoldenBytes:
    """Every subcommand's output body is byte-stable across versions, not
    only across runs; ``gen-delta-cubes`` is pinned in TestGenDeltaCubes."""

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_output_bytes(self, golden_session, name):
        body = golden_session[name].read_bytes()
        assert hashlib.sha256(body).hexdigest() == GOLDEN[name]


#: The ``config`` keys of each subcommand's sidecar: its options, by dest.
SIDECAR_CONFIG = {
    "simulate": ["c", "knots", "material", "out", "quantize", "samples", "seed",
                 "tonemap"],
    "fit-c": ["infile", "out"],
    "estimate-knots": ["c", "cube", "infile", "init", "mode", "out", "seed"],
    "fit-display": ["infile", "mode", "out"],
    "make-cube": ["display", "knots", "out", "r", "refine"],
    "validate": ["c", "filter_m", "infile", "knots", "out", "plot", "tonemap"],
}


class TestWritePath:
    """Every ``--out`` file and the ``--plot`` SVG is written whole, with a
    ``.meta.json`` sidecar, or not at all."""

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_sidecar_names_its_command(self, golden_session, name):
        meta = json.loads(Path(f"{golden_session[name]}.meta.json").read_text())
        command = name.split()[0]
        assert meta["tool"] == "hdrpcal" and meta["command"] == command
        assert list(meta["config"]) == SIDECAR_CONFIG[command]

    def test_gen_delta_cubes_writes_no_sidecar(self, tmp_path):
        assert run("gen-delta-cubes", "--out", str(tmp_path)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"delta_{m:02d}.cube" for m in range(1, 33)]

    @pytest.mark.parametrize("method, flag", [("to_svg", "--plot"), ("to_csv", "--out"),
                                              ("to_csv", None)])
    def test_failing_writer_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                           method, flag):
        samples = tmp_path / "s.csv"
        assert run("simulate", "--samples", "20", "--seed", "1", "--out", str(samples)) == 0

        def fail(report, file):
            file.write("part of a body")
            raise errors.ValidationError("writer failed")
        monkeypatch.setattr(harness.ValidationReport, method, fail)
        out = tmp_path / "out"
        argv = ["validate", "--in", str(samples)] + ([flag, str(out)] if flag else [])
        capsys.readouterr()
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert "writer failed" in captured.err
        assert "part of a body" not in captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.meta.json"]

    def test_body_is_held_once(self, tmp_path):
        # Peak traced memory of writing a sample body through the CLI's write
        # path, against the body's size: one copy plus one block in flight.
        samples = harness.generate_samples(4000, seed=2)
        out = tmp_path / "samples.csv"
        args = argparse.Namespace(command="simulate", quiet=True)
        tracemalloc.start()
        try:
            cli._emit(args, lambda fh: harness.save_samples(samples, fh), str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.stat().st_size, peak / out.stat().st_size


#: The exit code of ``main`` for each error class a handler may raise.
EXIT_CODES = {
    errors.HdrpcalError: 2,
    errors.ValidationError: 2,
    errors.CubeFormatError: 2,
    errors.CubeTruncationError: 2,
    errors.UnsupportedCubeError: 2,
    errors.SampleFormatError: 2,
    errors.FitError: 1,
    errors.UsageError: 64,
}


class TestExitCodes:
    def test_table_covers_every_error_class(self):
        defined = {value for value in vars(errors).values()
                   if isinstance(value, type) and value.__module__ == errors.__name__}
        assert defined == set(EXIT_CODES)

    @pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda e: e.__name__)
    def test_exit_code(self, error, tmp_path, monkeypatch, capsys):
        def handler(args):
            raise error("handler failed")
        monkeypatch.setitem(cli._HANDLERS, "gen-delta-cubes", handler)
        assert run("gen-delta-cubes", "--out", str(tmp_path)) == EXIT_CODES[error]
        assert "handler failed" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self):
        assert run() == 64

    def test_help_lists_defaults(self, capsys):
        for cmd in ("simulate", "fit-c", "estimate-knots", "fit-display",
                    "make-cube", "validate", "gen-delta-cubes"):
            with pytest.raises(SystemExit) as exc:
                run(cmd, "--help")
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "usage" in out
            if cmd not in ("gen-delta-cubes", "fit-c"):
                assert "default" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "hdrpcal" in capsys.readouterr().out
