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


def test_scipy_loads_only_for_a_fit(tmp_path):
    """Importing the package and its CLI, ``simulate`` and ``validate`` fit
    nothing, so no scipy module is loaded after any of them."""
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
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]"] * 4
