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
some third-party files exceed the range slightly.  Keyword lines ahead of
the data are read one at a time, the rows of a separable cube from its
curves as below, other data rows in one bulk call, and any other file (lines
between rows, a bad token or row count) line by line, so its first error in
file order is reported.

Tonemapping
-----------
The engine holds a fixed list of knot coordinates u*_1..u*_n (n = 32 by
default) shared across the three axes, and maps the knot triple
(u*_i, u*_j, u*_k) to the file's output triple t_ijk, interpolating
trilinearly in between.  Empirically the first two knots play no role:
interpolation runs over knots 3..n only, and inputs below u*_3 or above
u*_n clamp to the edge of that active range.  (The engine also shows an
interpolation anomaly between u*_3 and u*_4; this model deliberately uses
clean linear interpolation there.)  One private kernel locates each point's
knot cell and gathers its eight corner outputs; the tonemap sums them, and
the knot fit in :mod:`hdrpcal.calibrate` differentiates the same corners.

When each output channel depends only on its own grid index (a separable
cube, such as every impulse and gamma-correction cube), trilinear
interpolation reduces exactly to one piecewise-linear curve per channel,
which the tonemap evaluates instead of the eight cell corners.  Such a cube
is written from its curves, with the bytes of writing every cell: layer k is
layer 0's "r g " prefixes, each then blue field k.  :func:`parse_cube` takes
red from layer 0's first n rows, green from its every n-th row and blue from
each layer's first row, and keeps their cube if its rows are the file's.  A
cube made or read from curves builds ``outputs`` on first read; any other
cube is tested once, on bit patterns (``-0.0`` is not ``0.0``).  Disabled
tonemapping is ``None`` (see :func:`hdrpcal.scene.post_process`).
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, reject_first, write_rows
from .colorspace import _Frozen, _checked, _finite_number, _floats, _freeze
from .errors import (CubeFormatError, CubeTruncationError, UnsupportedCubeError,
                     ValidationError)

DEFAULT_GRID_SIZE = 32
ACTIVE_START = 3  # first knot index (1-based) that takes part in interpolation

#: Largest grid size per axis: the Adobe Cube LUT Specification 1.0 caps
#: LUT_3D_SIZE at 256.
MAX_GRID_SIZE = 256

# Built-in knot coordinate estimates for indices 3..32, shared by all axes.
# DELTA_KNOTS come from the responses to single-knot impulse cubes,
# OPTIMIZED_KNOTS from minimizing prediction error on rendered samples.
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


def _grid_size(n: int) -> int:
    """``n``, checked as a cube's grid size per axis."""
    if not 2 <= n <= MAX_GRID_SIZE:
        raise ValidationError(f"cube size must be in 2..{MAX_GRID_SIZE}, got {n}")
    return n


class CubeRangeWarning(UserWarning):
    """Parsed cube data contained components outside [0, 1]."""


@dataclass(frozen=True, eq=False)
class KnotGrid(_Frozen):
    """Shared per-axis knot coordinates of the tonemapping grid.

    ``values`` has one entry per 1-based knot index 1..size; entries before
    ``active_start`` take no part in interpolation and may be NaN.  Active
    entries must be finite, nonnegative and strictly increasing.
    """

    values: np.ndarray
    active_start: int = ACTIVE_START

    def __post_init__(self):
        _freeze(self, values=_floats(self.values, "KnotGrid", copy=True))
        if not (_finite_number(self.active_start, integer=True) and self.values.ndim == 1
                and 1 <= self.active_start < self.size <= MAX_GRID_SIZE):
            raise ValidationError(f"knot grid needs 1 <= active_start < size <= "
                                  f"{MAX_GRID_SIZE}, got active_start {self.active_start!r}, "
                                  f"size {self.size}")
        active = _checked(self.active_values, "KnotGrid", hi=np.inf)
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
        if not all(_finite_number(n, integer=True) for n in (size, active_start)):
            raise ValidationError("knot grid size and active_start must be integers")
        if not 1 <= active_start <= size:
            raise ValidationError(f"active_start must be in 1..{size}, got {active_start}")
        active, n = _floats(active, "KnotGrid"), size - active_start + 1
        if active.shape != (n,):
            raise ValidationError(f"expected {n} active knots, got " + (
                str(active.size) if active.ndim == 1 else f"shape {active.shape}"))
        values = np.full(size, np.nan)
        values[active_start - 1:] = active
        return cls(values, active_start)

    def to_csv(self, file) -> None:
        """Write the active knots as ``index,u`` rows, each to 10 significant
        digits, or all to 17 where 10 would not read back as strictly
        increasing finite knots."""
        text = [f"{u:.10g}" for u in self.active_values.tolist()]
        back = np.array(text, dtype=float)
        if not (np.isfinite(back).all() and np.all(np.diff(back) > 0)):
            text = [f"{u:.17g}" for u in self.active_values.tolist()]
        file.write("index,u\n" + "".join(f"{i},{u}\n"
                                         for i, u in enumerate(text, self.active_start)))

    @classmethod
    def from_csv(cls, file) -> "KnotGrid":
        (u, index), problem, explain = read_table(file, "index,u", "if", "knot CSV")
        reject_first(problem | (index < 1) | (index > MAX_GRID_SIZE), explain,
                     "knot CSV", f"index outside 1..{MAX_GRID_SIZE}")
        if not index.size:
            raise ValidationError("knot CSV: no rows")
        order = np.argsort(index, kind="stable")
        index, u = index[order], u[order, 0]
        start, size = int(index[0]), int(index[-1])
        if not np.array_equal(index, np.arange(start, size + 1)):
            raise ValidationError("knot CSV: indices must be contiguous")
        return cls.from_active(u, size=size, active_start=start)


def default_knot_grid() -> KnotGrid:
    """The built-in knot grid, :data:`DELTA_KNOTS`."""
    return KnotGrid.from_active(DELTA_KNOTS)


@dataclass(frozen=True, eq=False)
class CubeLUT(_Frozen):
    """Output grid of a .cube file, ``outputs[i, j, k]`` at red, green, blue grid
    index i, j, k (0-based); built on first read for a cube made from curves."""

    outputs: np.ndarray
    title: str | None = None
    domain_min: np.ndarray = field(default_factory=lambda: np.zeros(3))
    domain_max: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        arr = _floats(self.outputs, "CubeLUT", copy=True)
        self._settle(arr.shape)
        _freeze(self, outputs=_checked(arr, "CubeLUT"))
        # Separable or not, decided once on bit patterns: serialize_cube keeps a stray -0.0.
        curves = np.array([arr[:, 0, 0, 0], arr[0, :, 0, 1], arr[0, 0, :, 2]])
        bits = arr.view(np.uint64)
        grid = np.meshgrid(*curves.view(np.uint64), indexing="ij", copy=False)
        object.__setattr__(self, "_curves", None)
        if all(np.array_equal(bits[..., k], grid[k]) for k in range(3)):
            _freeze(self, _curves=curves)

    @classmethod
    def _from_curves(cls, curves, title=None, domain_min=(0, 0, 0), domain_max=(1, 1, 1)):
        """The separable cube ``outputs[i, j, k] == (r[i], g[j], b[k])``, checked as
        the constructor checks it, on the curves alone; ``outputs`` is built on first read."""
        lut = cls.__new__(cls)
        lut.__dict__.update(title=title, domain_min=domain_min, domain_max=domain_max)
        r, g, b = curves = [_floats(c, "CubeLUT").ravel() for c in curves]
        lut._settle((r.size, g.size, b.size, 3))
        _checked(np.concatenate([r[:1], g[:1], b, g, r]), "CubeLUT")  # in the grid's order
        return _freeze(lut, _curves=np.array(curves))

    def _settle(self, shape: tuple) -> None:
        """Check the grid shape, title and domain; store the size and read-only domain."""
        if shape != shape[:1] * 3 + (3,):
            raise ValidationError(f"cube outputs must be (n, n, n, 3), got {shape}")
        _grid_size(shape[0])
        lo, hi = (np.array(b, dtype=object) for b in (self.domain_min, self.domain_max))
        with contextlib.suppress(TypeError, ValueError, OverflowError):  # else shown as given
            lo, hi = lo.astype(float), hi.astype(float)
        if not (lo.dtype == hi.dtype == float and lo.shape == hi.shape == (3,)
                and np.isfinite([lo, hi]).all() and np.all(lo < hi)):
            raise ValidationError("cube domain must be 3 finite numbers per bound, min < max "
                                  f"per channel; got {lo.tolist()} to {hi.tolist()}")
        if self.title is not None and not isinstance(self.title, str):
            raise ValidationError(f"cube title must be a string, got {self.title!r}")
        # parse_cube splits lines where str.splitlines does
        if self.title is not None and self.title.splitlines() not in ([], [self.title]):
            raise ValidationError(f"cube title must not hold a line break, got {self.title!r}")
        _freeze(self, domain_min=lo, domain_max=hi)
        object.__setattr__(self, "size", shape[0])

    def __getattr__(self, name):  # a cube made from its curves builds outputs on first read
        if name != "outputs" or "_curves" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return _freeze(self, outputs=_separable_outputs(self._curves)).outputs

    def separable_channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-axis output curves if each channel depends only on its own
        grid index, else None."""
        return None if self._curves is None else tuple(self._curves)


def _parse_floats(tokens: list[str], raw: str, lineno: int, count: int,
                  what: str) -> list[float]:
    """The numbers of ``tokens``, the last fields of line ``lineno``'s ``raw.split()``."""
    if len(tokens) != count:
        raise CubeFormatError(f"{what}: expected {count} numbers, got {len(tokens)}",
                              line=lineno)
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            problem = "non-numeric token"
        else:
            if math.isfinite(value):
                values.append(value)
                continue
            problem = "non-finite value"
        # \S+ splits where str.split does; this token is field len(values) of tokens
        field_at = list(re.finditer(r"\S+", raw))[len(values) - len(tokens)]
        raise CubeFormatError(f"{what}: {problem} {tok!r}", line=lineno,
                              column=field_at.start() + 1)
    return values


def _keyword(keys: dict, raw: str, lineno: int) -> bool:
    """Apply one line of .cube text to ``keys`` (its keyword values, by
    :class:`CubeLUT` field name, ``size``, and ``domain_line``, the line of
    the last DOMAIN keyword); False for a data row."""
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
        keys["domain_line"] = lineno
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


def _read_layers(text: str, keys: dict) -> CubeLUT | None:
    """The separable cube of ``text``, its keyword lines read into ``keys``, if its
    data rows are exactly the :func:`_rows` of the curves they name; otherwise None."""
    pos = 0
    while True:  # the keyword block, one "\n" line at a time
        end = text.find("\n", pos)
        raw = text[pos:end]
        if end < 0 or (raw + "\n").splitlines() != [raw]:  # no other line break
            return None
        if not _keyword(keys, raw, text.count("\n", 0, pos) + 1):
            break
        pos = end + 1
    n, _ = keys.pop("size", 0), keys.pop("domain_line", None)
    m, k = n * n, text.count("\n", 0, pos)  # k keyword lines ahead of the data
    fields = " ".join(top := text.split("\n", k + m)[k:k + m]).split(" ")  # layer 0, if layered
    if not m or len(fields) != 3 * m or fields[2::3].count(fields[2]) != m:
        return None  # (the blue-field count declines a general cube early)
    blues, at = [], pos + len(top[0]) - len(fields[2])  # at: a layer's first blue field
    bare = len("\n".join(top)) + 1 - m * len(fields[2])  # a layer's length less its blue fields
    for _ in range(n):  # each layer's blue field from its first row
        blues.append(text[at:text.find("\n", at)])
        at += bare + m * len(blues[-1])
    with contextlib.suppress(ValueError):  # a bad token or the cube's checks decline
        lut = CubeLUT._from_curves([fields[0:3 * n:3], fields[1::3 * n], blues], **keys)
        return lut if text[pos:] == _rows(lut) else None


def parse_cube(source) -> CubeLUT:
    """Parse .cube text from a string or text stream."""
    text = source.read() if hasattr(source, "read") else str(source)
    if (lut := _read_layers(text, {})) is not None:
        return lut
    lines, keys, start = text.splitlines(), {}, 0  # every line, in bulk or one at a time
    while start < len(lines) and _keyword(keys, lines[start], start + 1):
        start += 1  # the keyword and comment lines ahead of the data
    end = len(lines)  # and the blank and comment lines after the data
    while end > start and lines[end - 1].strip()[:1] in ("", "#"):
        end -= 1
    data = None
    if "size" in keys and start < end:  # loadtxt warns on empty input
        with contextlib.suppress(ValueError):
            data = np.loadtxt(lines[start:end], comments=None, ndmin=2)
    if data is None or data.shape != (keys["size"] ** 3, 3) or not np.isfinite(data).all():
        data = _walk_rows(lines, keys)
    # Rows run red-fastest: row index = i + n*j + n^2*k.
    data = data.reshape((keys["size"],) * 3 + (3,)).transpose(2, 1, 0, 3)
    outside = (data < 0.0) | (data > 1.0)
    if np.any(outside):
        worst = float(np.max(np.abs(data - np.clip(data, 0.0, 1.0))))
        warnings.warn(
            f"{int(outside.sum())} cube components outside [0, 1] "
            f"(worst excess {worst:g}); clamping", CubeRangeWarning, stacklevel=2)
        data = np.clip(data, 0.0, 1.0)
    _, line = keys.pop("size"), keys.pop("domain_line", None)
    try:
        return CubeLUT(data, **keys)
    except ValidationError as exc:  # the domain rule: the rest holds by parsing
        raise CubeFormatError(str(exc), line=line) from None


def _rows(lut: CubeLUT) -> str:
    """``lut``'s data rows, red fastest, each value ``"%.8g" % v``; a separable cube's
    from its curves: per blue field, a layer of the n^2 "r g " prefixes, each then it."""
    curves = lut.separable_channels()
    if curves is None:
        buf = io.StringIO()
        write_rows(buf, "%.8g %.8g %.8g\n", [lut.outputs.transpose(2, 1, 0, 3).reshape(-1, 3)])
        return buf.getvalue()
    r, g, b = (["%.8g" % v for v in c.tolist()] for c in curves)
    prefixes = [f"{x} {y} " for y in g for x in r]
    layers = {z: f"{z}\n".join(prefixes) + f"{z}\n" for z in set(b)}  # once per blue field
    return "".join(map(layers.get, b))


def serialize_cube(lut: CubeLUT, file=None) -> str:
    """Emit .cube text, each value as ``"%.8g" % v`` (the same text as
    ``format(v, ".8g")``, ``-0.0`` included); round-trips through
    :func:`parse_cube` within 1e-6.  A domain value that 8 digits would not
    read back exactly is written to 17.  A separable cube is written from its
    three curves, with the same bytes as writing every cell."""
    lines = []
    if lut.title is not None:
        lines.append(f'TITLE "{lut.title}"')
    lines.append(f"LUT_3D_SIZE {lut.size}")
    for head, bound, default in (("DOMAIN_MIN", lut.domain_min, 0.0),
                                 ("DOMAIN_MAX", lut.domain_max, 1.0)):
        if np.any(bound != default):  # 8 digits where they read back exactly
            lines.append(head + "".join(f" {v:.8g}" if float(f"{v:.8g}") == v else f" {v:.17g}"
                                        for v in bound.tolist()))
    text = "\n".join(lines) + "\n" + _rows(lut)
    if file is not None:
        file.write(text)
    return text


def make_delta_cube(m: int, size: int = DEFAULT_GRID_SIZE) -> CubeLUT:
    """Impulse cube: t_ijk = (1 if i == m else 0, ..., 1 if k == m else 0)
    with 1-based knot index ``m``."""
    if not (all(_finite_number(n, integer=True) for n in (m, size)) and 1 <= m <= size):
        raise ValidationError(f"delta index must be an integer in 1..{size!r}, got {m!r}")
    hit = np.arange(_grid_size(size)) == m - 1  # 1.0 at m, else 0.0; no array of a bad size
    return CubeLUT._from_curves((hit, hit, hit), title=f"delta_{m:02d}")


def separable_cube(grid: KnotGrid, fn) -> CubeLUT:
    """Cube whose channels apply per-axis functions of the knot coordinate.

    ``fn`` is one callable used for all channels or a (fr, fg, fb) triple;
    each maps an array of knot coordinates to outputs in [0, 1].  Inactive
    knots receive the value at the first active knot.
    """
    fns = fn if isinstance(fn, (tuple, list)) else (fn, fn, fn)
    if len(fns) != 3:
        raise ValidationError("fn must be one callable or a triple")
    coords = grid.values.copy()
    coords[:grid.active_start - 1] = grid.active_values[0]
    curves = [_floats(f(coords), "separable_cube") for f in fns]
    if any(c.shape != coords.shape for c in curves):
        raise ValidationError(f"separable_cube: expected curves of shape {coords.shape}")
    return CubeLUT._from_curves([np.clip(c, 0.0, 1.0) for c in curves])


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
        arr = _checked(u, "CubeTonemap.apply", triplet=True, hi=np.inf)
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
    curves = lut.separable_channels()
    if curves is None:
        return _cell_corners(knots, lut, x)[3]
    return np.column_stack([np.interp(x[:, k], knots, c[lut.size - knots.size:])
                            for k, c in enumerate(curves)])


def _cell_corners(knots: np.ndarray, lut: CubeLUT, x: np.ndarray) -> tuple:
    """Cell ``idx`` and weights ``w`` of points ``x`` ((N, 3)) on each axis
    (see :func:`_locate`), ``lut``'s outputs at the cell corners, ``corners[i, j, k]``
    at red, green, blue offsets i, j, k: (2, 2, 2, N, 3), and their trilinear
    blend, the tonemap at ``x``: (N, 3)."""
    idx, w = _locate(knots, x)
    lo, shape = idx + lut.size - knots.size, (lut.size,) * 3  # the cells' lower grid indices
    offsets = np.ravel_multi_index(np.indices((2, 2, 2))[..., None], shape)  # of the 8 corners
    corners = lut.outputs.reshape(-1, 3).take(np.ravel_multi_index(lo.T, shape) + offsets, axis=0)
    wr, wg, wb = np.stack([1.0 - w.T, w.T], axis=1)  # (2, N) each: lower, upper
    out = np.zeros(x.shape)
    for i, j, k in np.ndindex(2, 2, 2):  # one corner at a time, in a fixed order
        out += corners[i, j, k] * (wr[i] * wg[j] * wb[k])[:, None]
    return idx, w, corners, out
