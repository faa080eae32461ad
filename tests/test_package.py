import inspect
import os
import subprocess
import sys
from pathlib import Path

import hdrpcal

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names_resolve_once():
    names = hdrpcal.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(hdrpcal, n)] == []


#: The defaulted parameters of every public callable, constructors included:
#: an option added or removed is an edit here.
PUBLIC_OPTIONS = {
    "CubeLUT": ["title", "domain_min", "domain_max"],
    "GammaCorrectionSpec": ["input_range"],
    "KnotGrid": ["active_start"],
    "Measurement": ["luminance", "xyz"],
    "build_correction_cube": ["knots", "refine"],
    "estimate_knots_optimize": ["scale_constant", "seed"],
    "generate_samples": ["kind", "tonemap", "quantize", "scale_constant", "exposure_choices"],
    "light_direction_from_rotation": ["z_deg"],
    "make_delta_cube": ["size"],
    "post_process": ["tonemap"],
    "predict_unprocessed": ["scale_constant"],
    "predict_values": ["tonemap", "scale_constant", "quantize"],
    "save_display": ["report"],
    "serialize_cube": ["file"],
    "simulate_characterization": ["tonemap", "mode"],
    "validate_model": ["tonemap", "scale_constant", "material_floor"],
}


def test_public_options():
    options = {}
    for name in hdrpcal.__all__:
        params = inspect.signature(getattr(hdrpcal, name)).parameters.values()
        defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if defaulted:
            options[name] = defaulted
    assert options == PUBLIC_OPTIONS
    assert sum(map(len, options.values())) == 30


def test_scipy_loads_only_for_a_fit(tmp_path):
    """Importing the package and its CLI, ``simulate`` and ``validate`` fit
    nothing, and ``estimate-knots`` in either mode, ``fit-display`` in either
    mode and ``make-cube --refine`` fit in numpy, so no scipy module is loaded
    after any of them."""
    samples = str(tmp_path / "samples.csv")
    script = f"""
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import hdrpcal
print(scipy_modules())
import hdrpcal.cli
print(scipy_modules())
assert hdrpcal.cli.main(["--quiet", "simulate", "--samples", "200", "--out", {samples!r}]) == 0
print(scipy_modules())
assert hdrpcal.cli.main(["--quiet", "validate", "--in", {samples!r}, "--out",
                         {str(tmp_path / "report.csv")!r}, "--plot",
                         {str(tmp_path / "report.svg")!r}]) == 0
print(scipy_modules())

import numpy as np
from hdrpcal.cubelut import (CubeTonemap, default_knot_grid, make_delta_cube,
                             separable_cube, serialize_cube)
from hdrpcal.harness import generate_samples, save_samples
grid = default_knot_grid()
xs = np.geomspace(1e-5, 100, 300)
with open({str(tmp_path / "sweeps.csv")!r}, "w") as fh:
    fh.write("m,u,t\\n")
    for m in range(1, 33):
        t = CubeTonemap(grid, make_delta_cube(m)).apply(np.column_stack([xs] * 3))[:, 0]
        fh.writelines(f"{{m}},{{x!r}},{{y!r}}\\n" for x, y in zip(xs.tolist(), t.tolist()))
assert hdrpcal.cli.main(["--quiet", "estimate-knots", "--mode", "delta", "--in",
                         {str(tmp_path / "sweeps.csv")!r}, "--out",
                         {str(tmp_path / "delta.csv")!r}]) == 0
print(scipy_modules())
args = ["--quiet", "estimate-knots", "--mode", "optimize", "--out", {str(tmp_path / "opt.csv")!r}]
for i, power in enumerate((1.0, 0.5)):
    lut = separable_cube(grid, lambda x: np.clip(x / 58.9, 0, 1) ** power)
    cube, csv = f"{tmp_path}/shape{{i}}.cube", f"{tmp_path}/shape{{i}}.csv"
    with open(cube, "w") as fh:
        serialize_cube(lut, fh)
    with open(csv, "w") as fh:
        save_samples(generate_samples(400, seed=70 + i, kind="lambertian",
                                      tonemap=CubeTonemap(grid, lut)), fh)
    args += ["--in", csv, "--cube", cube]
assert hdrpcal.cli.main(args) == 0
print(scipy_modules())

levels = np.linspace(0, 1, 11)
with open({str(tmp_path / "achromatic.csv")!r}, "w") as fh:
    fh.write("v,L\\n" + "".join(f"{{v!r}},{{2 + 98 * v ** 2.2!r}}\\n" for v in levels.tolist()))
stims = np.vstack([np.zeros(3)] + [np.outer(levels[1:], np.eye(3)[k]) for k in range(3)])
xyz = stims ** np.array([1.8, 2.2, 2.6]) @ (np.eye(3) * 50 + 10) + 1.0
with open({str(tmp_path / "chromatic.csv")!r}, "w") as fh:
    fh.write("v_r,v_g,v_b,X,Y,Z\\n")
    fh.writelines(",".join(map(repr, row)) + "\\n" for row in np.hstack([stims, xyz]).tolist())
for mode in ("achromatic", "chromatic"):
    assert hdrpcal.cli.main(["--quiet", "fit-display", "--mode", mode, "--in",
                             f"{tmp_path}/{{mode}}.csv", "--out",
                             f"{tmp_path}/{{mode}}.json"]) == 0
    print(scipy_modules())
assert hdrpcal.cli.main(["--quiet", "make-cube", "--display", {str(tmp_path / "achromatic.json")!r},
                         "--r", "1.111", "--refine", "--out", {str(tmp_path / "fix.cube")!r}]) == 0
print(scipy_modules())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]"] * 9
