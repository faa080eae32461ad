""".cube 3D-LUT files and the knot-grid tonemapping function.

File format
-----------
A .cube file is UTF-8 text.  Lines starting with ``#`` are comments.
Recognized keywords:

    TITLE "name"          optional quoted title
    LUT_3D_SIZE n         grid size per axis (required, 2..256)
    DOMAIN_MIN r g b      stored but ignored by the tonemap
    DOMAIN_MAX r g b      stored but ignored by the tonemap

followed by n**3 data rows of three floats, with the red grid index varying
fastest, then green, then blue.  ``LUT_1D_SIZE`` files are rejected as an
unsupported variant.  Components outside [0, 1] are clamped with a warning;
some third-party files exceed the range slightly.  The keyword lines ahead
of the data are read one at a time and the data rows convert in one bulk
call; any other file (lines between rows, a bad token or row count) is
re-read line by line, so its first error in file order is reported.

Tonemapping
-----------
The engine holds a fixed list of knot coordinates u*_1..u*_n (n = 32 by
default) shared across the three axes, and maps the knot triple
(u*_i, u*_j, u*_k) to the file's output triple t_ijk, interpolating
trilinearly in between.  Empirically the first two knots play no role:
interpolation runs over knots 3..n only, and inputs below u*_3 or above
u*_n clamp to the edge of that active range.  (The engine also shows an
interpolation anomaly between u*_3 and u*_4; this model deliberately uses
clean linear interpolation there.)

When each output channel depends only on its own grid index (a separable
cube, such as every impulse and gamma-correction cube), trilinear
interpolation reduces exactly to one piecewise-linear curve per channel,
which the tonemap evaluates instead of the eight cell corners, and
:func:`serialize_cube` writes from the three curves, with the same bytes
as writing every cell.  Separability is decided once per :class:`CubeLUT`,
on bit patterns (``-0.0`` is not ``0.0``).  Disabled tonemapping is
``None`` (see :func:`hdrpcal.scene.post_process`), not a tonemap object.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._table import read_table, reject_first
from .errors import (CubeFormatError, CubeTruncationError, UnsupportedCubeError,
                     ValidationError)

DEFAULT_GRID_SIZE = 32
ACTIVE_START = 3  # first knot index (1-based) that takes part in interpolation

#: Largest grid size per axis: the Adobe Cube LUT Specification 1.0 caps
#: LUT_3D_SIZE at 256.
MAX_GRID_SIZE = 256

# Built-in knot coordinate estimates for indices 3..32, shared by all axes.
# "delta" comes from the responses to single-knot impulse cubes; "optimized"
# from minimizing prediction error on rendered samples.
DELTA_KNOTS = np.array([
    0.0002606, 0.003104, 0.007305, 0.01288, 0.02056,
    0.03061, 0.04468, 0.06393, 0.09056, 0.1245,
    0.1711, 0.2354, 0.3236, 0.4406, 0.5938,
    0.8165, 1.111, 1.498, 2.039, 2.776,
    3.780, 5.094, 6.935, 9.441, 12.72,
    17.32, 23.35, 31.78, 43.27, 58.90,
])

OPTIMIZED_KNOTS = np.array([
    1.657e-9, 0.002830, 0.007137, 0.01269, 0.02051,
    0.03086, 0.04479, 0.06444, 0.08989, 0.1252,
    0.1726, 0.2370, 0.3253, 0.4422, 0.6039,
    0.8207, 1.104, 1.495, 2.032, 2.756,
    3.738, 5.083, 6.864, 9.347, 12.62,
    17.18, 23.24, 31.48, 42.75, 57.66,
])


class CubeRangeWarning(UserWarning):
    """Parsed cube data contained components outside [0, 1]."""


@dataclass(frozen=True, eq=False)
class KnotGrid:
    """Shared per-axis knot coordinates of the tonemapping grid.

    ``values`` has one entry per 1-based knot index 1..size; entries before
    ``active_start`` take no part in interpolation and may be NaN.  Active
    entries must be finite, nonnegative and strictly increasing.
    """

    values: np.ndarray
    active_start: int = ACTIVE_START

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or not 1 <= self.active_start < arr.size:
            raise ValidationError(f"knot grid needs 1 <= active_start < size, got "
                                  f"active_start {self.active_start}, size {arr.size}")
        active = self.active_values
        if not np.all(np.isfinite(active)) or np.any(active < 0):
            raise ValidationError("active knots must be finite and >= 0")
        if np.any(np.diff(active) <= 0):
            raise ValidationError("active knots must be strictly increasing")

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def active_values(self) -> np.ndarray:
        return self.values[self.active_start - 1:]

    @classmethod
    def from_active(cls, active, size: int = DEFAULT_GRID_SIZE,
                    active_start: int = ACTIVE_START) -> "KnotGrid":
        active = np.asarray(active, dtype=float)
        if active.size != size - active_start + 1:
            raise ValidationError(
                f"expected {size - active_start + 1} active knots, got {active.size}")
        values = np.full(size, np.nan)
        values[active_start - 1:] = active
        return cls(values, active_start)

    def to_csv(self, file) -> None:
        file.write("index,u\n")
        for i in range(self.active_start, self.size + 1):
            file.write(f"{i},{self.values[i - 1]:.10g}\n")

    @classmethod
    def from_csv(cls, file) -> "KnotGrid":
        (index, u), problem, explain = read_table(file, "index,u", "if", "knot CSV")
        reject_first(problem | (index < 1) | (index > MAX_GRID_SIZE), explain,
                     "knot CSV", f"index outside 1..{MAX_GRID_SIZE}")
        if not index.size:
            raise ValidationError("knot CSV: no rows")
        order = np.argsort(index, kind="stable")
        index, u = index[order], u[order]
        start, size = int(index[0]), int(index[-1])
        if not np.array_equal(index, np.arange(start, size + 1)):
            raise ValidationError("knot CSV: indices must be contiguous")
        return cls.from_active(u, size=size, active_start=start)


def default_knot_grid(source: str = "delta") -> KnotGrid:
    """Built-in knot grid; ``source`` is "delta" or "optimized"."""
    if source == "delta":
        return KnotGrid.from_active(DELTA_KNOTS)
    if source == "optimized":
        return KnotGrid.from_active(OPTIMIZED_KNOTS)
    raise ValidationError(f"unknown knot source {source!r}")


@dataclass(frozen=True, eq=False)
class CubeLUT:
    """Output grid of a .cube file, indexed ``outputs[i, j, k]`` with i the
    red, j the green and k the blue grid index (0-based)."""

    outputs: np.ndarray
    title: str | None = None
    domain_min: np.ndarray = field(default_factory=lambda: np.zeros(3))
    domain_max: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        arr = np.asarray(self.outputs, dtype=float).copy()
        n = arr.shape[0]
        if arr.shape != (n, n, n, 3):
            raise ValidationError(f"cube outputs must be (n, n, n, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("cube outputs must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValidationError("cube outputs must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "outputs", arr)
        for name in ("domain_min", "domain_max"):
            v = np.asarray(getattr(self, name), dtype=float).copy()
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def size(self) -> int:
        return int(self.outputs.shape[0])

    def separable_channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-axis output curves if each channel depends only on its own
        grid index, else None."""
        return self._curves

    @cached_property
    def _curves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        # Decided once: the test costs more than one separable interpolation.
        out = self.outputs
        curves = (out[:, 0, 0, 0], out[0, :, 0, 1], out[0, 0, :, 2])
        # Compared as bits, so serialize_cube's curve path never drops a stray -0.0.
        bits = _separable_outputs(curves).view(np.uint64)
        return curves if np.array_equal(out.view(np.uint64), bits) else None


def _parse_floats(tokens: list[str], raw: str, lineno: int, count: int,
                  what: str) -> list[float]:
    if len(tokens) != count:
        raise CubeFormatError(f"{what}: expected {count} numbers, got {len(tokens)}",
                              line=lineno)
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise CubeFormatError(f"{what}: non-numeric token {tok!r}",
                                  line=lineno, column=raw.find(tok) + 1) from None
        if not math.isfinite(value):
            raise CubeFormatError(f"{what}: non-finite value {tok!r}",
                                  line=lineno, column=raw.find(tok) + 1)
        values.append(value)
    return values


def _keyword(keys: dict, raw: str, lineno: int) -> bool:
    """Apply one line of .cube text to ``keys`` (its keyword values, by
    :class:`CubeLUT` field name, and ``size``); False for a data row."""
    line = raw.strip()
    if not line or line.startswith("#"):
        return True
    head = line.split(None, 1)[0]
    if head == "TITLE":
        rest = line[len("TITLE"):].strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            raise CubeFormatError("TITLE must be a quoted string", line=lineno)
        keys["title"] = rest[1:-1]
    elif head == "LUT_3D_SIZE":
        tok = line.split()[1:]
        vals = _parse_floats(tok, raw, lineno, 1, "LUT_3D_SIZE")
        keys["size"] = size = int(vals[0])
        if size != vals[0] or not 2 <= size <= MAX_GRID_SIZE:
            raise CubeFormatError(f"LUT_3D_SIZE must be an integer in "
                                  f"2..{MAX_GRID_SIZE}, got {vals[0]}", line=lineno)
    elif head == "LUT_1D_SIZE":
        raise UnsupportedCubeError("1D LUTs are not supported", line=lineno)
    elif head in ("DOMAIN_MIN", "DOMAIN_MAX"):
        keys[head.lower()] = np.array(_parse_floats(line.split()[1:], raw, lineno, 3, head))
    elif ((head[0].isalpha() or head[0] == "_")
          and head.lower() not in ("nan", "inf", "infinity")):  # float() reads these
        raise CubeFormatError(f"unknown keyword {head!r}", line=lineno)
    else:
        return False
    return True


def _walk_rows(lines: list[str], keys: dict) -> np.ndarray:
    """The data rows of ``lines``, read one line at a time (keyword lines
    into ``keys``), so the first error in file order is raised."""
    rows = []
    last_data_line = 0
    for lineno, raw in enumerate(lines, start=1):
        if not _keyword(keys, raw, lineno):
            rows.append(_parse_floats(raw.split(), raw, lineno, 3, "data row"))
            last_data_line = lineno
    if "size" not in keys:
        raise CubeFormatError("missing LUT_3D_SIZE")
    expected = keys["size"] ** 3
    if len(rows) != expected:
        raise CubeTruncationError(
            f"expected {expected} data rows for LUT_3D_SIZE {keys['size']}, "
            f"found {len(rows)}", line=last_data_line)
    return np.asarray(rows, dtype=float)


def parse_cube(source) -> CubeLUT:
    """Parse .cube text from a string or text stream."""
    lines = (source.read() if hasattr(source, "read") else str(source)).splitlines()
    keys: dict = {}
    start = 0  # the keyword and comment lines ahead of the data, one at a time
    while start < len(lines) and _keyword(keys, lines[start], start + 1):
        start += 1
    end = len(lines)  # and the blank and comment lines after the data
    while end > start and lines[end - 1].strip()[:1] in ("", "#"):
        end -= 1
    data = None
    if "size" in keys and start < end:  # loadtxt warns on empty input
        with contextlib.suppress(ValueError):
            data = np.loadtxt(lines[start:end], comments=None, ndmin=2)
    if data is None or data.shape != (keys["size"] ** 3, 3) or not np.isfinite(data).all():
        data = _walk_rows(lines, keys)
    outside = (data < 0.0) | (data > 1.0)
    if np.any(outside):
        worst = float(np.max(np.abs(data - np.clip(data, 0.0, 1.0))))
        warnings.warn(
            f"{int(outside.sum())} cube components outside [0, 1] "
            f"(worst excess {worst:g}); clamping", CubeRangeWarning, stacklevel=2)
        data = np.clip(data, 0.0, 1.0)
    # Rows run red-fastest: row index = i + n*j + n^2*k.
    size = keys.pop("size")
    return CubeLUT(data.reshape(size, size, size, 3).transpose(2, 1, 0, 3), **keys)


def serialize_cube(lut: CubeLUT, file=None) -> str:
    """Emit .cube text, each value as ``"%.8g" % v`` (the same text as
    ``format(v, ".8g")``, ``-0.0`` included); round-trips through
    :func:`parse_cube` within 1e-6.  A separable cube is written from its
    three curves, with the same bytes as writing every cell."""
    lines = []
    if lut.title is not None:
        lines.append(f'TITLE "{lut.title}"')
    lines.append(f"LUT_3D_SIZE {lut.size}")
    if not np.array_equal(lut.domain_min, np.zeros(3)):
        lines.append("DOMAIN_MIN " + " ".join(f"{v:.8g}" for v in lut.domain_min))
    if not np.array_equal(lut.domain_max, np.ones(3)):
        lines.append("DOMAIN_MAX " + " ".join(f"{v:.8g}" for v in lut.domain_max))
    curves = lut.separable_channels()
    if curves is None:
        cells = lut.outputs.transpose(2, 1, 0, 3).ravel().tolist()
        rows = ("%.8g %.8g %.8g\n" * lut.size ** 3) % tuple(cells)
    else:  # the n^2 "r g " prefixes, red fastest, then one block per blue value
        r, g, b = (["%.8g" % v for v in c.tolist()] for c in curves)
        prefixes = [f"{x} {y} " for y in g for x in r] + [""]
        rows = "".join(f"{z}\n".join(prefixes) for z in b)
    text = "\n".join(lines) + "\n" + rows
    if file is not None:
        file.write(text)
    return text


def make_delta_cube(m: int, size: int = DEFAULT_GRID_SIZE) -> CubeLUT:
    """Impulse cube: t_ijk = (1 if i == m else 0, ..., 1 if k == m else 0)
    with 1-based knot index ``m``."""
    if not 1 <= m <= size:
        raise ValidationError(f"delta index must be in 1..{size}, got {m}")
    hit = np.zeros(size)
    hit[m - 1] = 1.0
    return CubeLUT(_separable_outputs((hit, hit, hit)), title=f"delta_{m:02d}")


def separable_cube(grid: KnotGrid, fn, title: str | None = None) -> CubeLUT:
    """Cube whose channels apply per-axis functions of the knot coordinate.

    ``fn`` is one callable used for all channels or a (fr, fg, fb) triple;
    each maps an array of knot coordinates to outputs in [0, 1].  Inactive
    knots receive the value at the first active knot.
    """
    fns = fn if isinstance(fn, (tuple, list)) else (fn, fn, fn)
    if len(fns) != 3:
        raise ValidationError("fn must be one callable or a triple")
    coords = np.asarray(grid.values, dtype=float).copy()
    coords[:grid.active_start - 1] = grid.active_values[0]
    curves = [np.clip(np.asarray(f(coords), dtype=float), 0.0, 1.0) for f in fns]
    return CubeLUT(_separable_outputs(curves), title=title)


def _separable_outputs(curves) -> np.ndarray:
    """Output grid of the separable cube with per-axis curves (r, g, b):
    ``outputs[i, j, k] == (r[i], g[j], b[k])``."""
    return np.stack(np.meshgrid(*curves, indexing="ij", copy=False), axis=-1)


@dataclass(frozen=True, eq=False)
class CubeTonemap:
    """Cube-file tonemapping over a knot grid (the engine's External mode).

    Inputs clamp per component into the active knot range and interpolate
    trilinearly over the active subgrid.
    """

    grid: KnotGrid
    lut: CubeLUT

    def __post_init__(self):
        if self.grid.size != self.lut.size:
            raise ValidationError(
                f"knot grid size {self.grid.size} != cube size {self.lut.size}")

    def apply(self, u):
        arr = np.asarray(u, dtype=float)
        if arr.shape[-1:] != (3,):
            raise ValidationError(f"expected (..., 3) input, got shape {arr.shape}")
        if np.any(~np.isfinite(arr)) or np.any(arr < 0):
            raise ValidationError("tonemap input must be finite and >= 0")
        out = _interpolate(self.grid.active_values, self.lut, arr.reshape(-1, 3))
        return out.reshape(arr.shape)


def _locate(knots: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot cell and in-cell weight of each x: x lies between
    ``knots[idx]`` and ``knots[idx + 1]`` at fraction ``w``.  Points outside
    the knots clamp to the end cells with w at 0 or 1."""
    idx = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, knots.size - 2)
    lo = knots[idx]
    w = np.clip((x - lo) / (knots[idx + 1] - lo), 0.0, 1.0)
    return idx, w


def _interpolate(knots: np.ndarray, lut: CubeLUT, x: np.ndarray) -> np.ndarray:
    """Tonemap of ``lut`` at points ``x`` ((N, 3), finite, >= 0) over the
    active knot coordinates ``knots``, which index the last ``knots.size``
    grid entries of each axis.  A separable cube is evaluated exactly as
    three clamped piecewise-linear curves, any other cube trilinearly."""
    start = lut.size - knots.size
    curves = lut.separable_channels()
    if curves is not None:
        return np.column_stack([np.interp(x[:, k], knots, curves[k][start:])
                                for k in range(3)])
    cube = lut.outputs[start:, start:, start:, :]
    return _trilinear(knots, cube, np.clip(x, knots[0], knots[-1]))


def _trilinear(knots: np.ndarray, cube: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``cube`` ((K,K,K,3)) over shared non-uniform
    axis coordinates ``knots`` ((K,)) at points ``x`` ((N,3), already clipped)."""
    idx, w = _locate(knots, x)
    out = np.zeros((x.shape[0], 3))
    for di in (0, 1):
        wi = w[:, 0] if di else 1.0 - w[:, 0]
        for dj in (0, 1):
            wj = w[:, 1] if dj else 1.0 - w[:, 1]
            for dk in (0, 1):
                wk = w[:, 2] if dk else 1.0 - w[:, 2]
                corner = cube[idx[:, 0] + di, idx[:, 1] + dj, idx[:, 2] + dk]
                out += corner * (wi * wj * wk)[:, None]
    return out
