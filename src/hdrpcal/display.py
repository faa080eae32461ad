"""Physical display models and their characterization fits.

An achromatic display maps a framebuffer value v in [0, 1] to luminance

    L = l1 * h(v) + l0

with ``l0`` the minimum displayable luminance, ``l1`` the luminance range
and activation h(v) = v**gamma.  A chromatic display maps a triplet v to
CIE XYZ coordinates

    x = h_r(v_r)*r + h_g(v_g)*g + h_b(v_b)*b + z

with per-channel activations, primaries r/g/b and a fixed background term z.
Activations are single-parameter gamma curves, fit by one numpy solver: for
each gamma a linear fit gives (l0, l1) (variable projection), and gamma is
the root of the reduced derivative, bracketed on a log grid and narrowed.

Readings travel as columns: each CSV reader returns one :class:`Measurement`
batch, and each fit takes one batch or a sequence of them.  Fits are
deterministic given identical input order.  Measurement CSV formats:
achromatic ``v,L``; chromatic ``v_r,v_g,v_b,X,Y,Z``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from ._table import read_table, reject_first
from .colorspace import _Frozen, _checked, _finite_number, _floats, _freeze
from .errors import FitError, ValidationError

FIT_MAX_EVALS = 500  # bracket-narrowing steps of the gamma solver


@dataclass(frozen=True)
class AchromaticDisplay:
    """Luminance-only display model L = l1 * v**gamma + l0."""

    l0: float
    l1: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            if not _finite_number(getattr(self, f.name)):
                raise ValidationError(f"{f.name} must be a finite number")
        if self.l0 < 0:
            raise ValidationError("l0 must be >= 0")
        if self.l1 <= 0:
            raise ValidationError("l1 must be > 0")
        if self.gamma <= 0:
            raise ValidationError("gamma must be > 0")

    @property
    def w(self) -> float:
        """Background-to-range ratio l0/l1."""
        return self.l0 / self.l1

    def luminance(self, v):
        """Displayed luminance for framebuffer value(s) v in [0, 1]."""
        arr = _checked(v, "AchromaticDisplay.luminance")
        out = self.l1 * arr ** self.gamma + self.l0
        return float(out) if np.ndim(v) == 0 else out


@dataclass(frozen=True, eq=False)
class ChromaticDisplay(_Frozen):
    """Additive three-primary display model in CIE XYZ."""

    primary_r: np.ndarray
    primary_g: np.ndarray
    primary_b: np.ndarray
    background: np.ndarray
    gammas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arrays = {f.name: _floats(getattr(self, f.name), f.name, copy=True) for f in fields(self)}
        for name, arr in arrays.items():
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be a finite 3-vector")
        _freeze(self, **arrays)
        if np.any(np.array([self.primary_r[1], self.primary_g[1], self.primary_b[1]]) <= 0):
            raise ValidationError("primary Y components must be > 0")
        if np.any(self.gammas <= 0):
            raise ValidationError("gammas must be > 0")

    @property
    def primaries(self) -> np.ndarray:
        """3x3 matrix with the primaries as columns."""
        return np.column_stack([self.primary_r, self.primary_g, self.primary_b])

    def xyz(self, v) -> np.ndarray:
        """CIE XYZ of framebuffer triplet(s) v in [0, 1]^3."""
        arr = _checked(v, "ChromaticDisplay.xyz", triplet=True)
        return (arr ** self.gammas) @ self.primaries.T + self.background


@dataclass(frozen=True, eq=False)
class Measurement(_Frozen):
    """Characterization readings: framebuffer triplets ``v`` of shape ``(..., 3)``
    and either luminances (cd/m^2) of shape ``v.shape[:-1]`` or XYZ readings of
    shape ``v.shape``, stored read-only as given.  One reading has ``v`` (3,)."""

    v: np.ndarray
    luminance: np.ndarray | float | None = None
    xyz: np.ndarray | None = None

    def __post_init__(self):
        v = _checked(_floats(self.v, "Measurement v", copy=True), "Measurement v", triplet=True)
        if (self.luminance is None) == (self.xyz is None):
            raise ValidationError("measurement needs exactly one of luminance or xyz")
        kind, shape = ("luminance", v.shape[:-1]) if self.xyz is None else ("xyz", v.shape)
        reading = _floats(getattr(self, kind), f"Measurement {kind}", copy=True)
        if reading.shape != shape:
            raise ValidationError(f"{kind} readings must have shape {shape}")
        _freeze(self, v=v, **{kind: _checked(reading, f"Measurement {kind}", hi=np.inf)})


@dataclass(frozen=True, eq=False)
class FitReport:
    """Fit residuals, one per averaged stimulus level, with ``n_points`` their
    count, ``residual_rms`` their root mean square and fit diagnostics in ``details``."""

    residual_rms: float
    n_points: int
    residuals: np.ndarray
    details: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """Least-squares solution of primaries @ w = background."""

    weights: np.ndarray
    residual: float
    cond: float
    rank: int


def _average_repeats(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ux, inverse = np.unique(x, return_inverse=True)
    return ux, np.bincount(inverse, weights=y) / np.bincount(inverse)


def _columns(measurements, kind: str, need: str) -> tuple[np.ndarray, np.ndarray]:
    """``v`` as (N, 3) rows and their ``kind`` readings, from one batch or several."""
    batch = [measurements] if isinstance(measurements, Measurement) else list(measurements)
    if any(getattr(m, kind) is None for m in batch):
        raise FitError(need)
    tail = (3,) if kind == "xyz" else ()
    return (np.concatenate([np.zeros((0, 3))] + [m.v.reshape(-1, 3) for m in batch]),
            np.concatenate([np.zeros((0, *tail))]
                           + [getattr(m, kind).reshape(-1, *tail) for m in batch]))


def fit_achromatic(measurements) -> tuple[AchromaticDisplay, FitReport]:
    """Least-squares fit of (l0, l1, gamma) to luminance measurements.

    Needs at least 5 distinct v levels covering both ends of the range.
    Repeated v values are averaged before fitting.
    """
    v, lum = _columns(measurements, "luminance", "achromatic fit needs luminance readings")
    if np.any(np.ptp(v, axis=1) > 1e-9):
        raise FitError("achromatic fit needs achromatic stimuli (v_r=v_g=v_b)")
    v, lum = _average_repeats(v[:, 0], lum)
    if v.size < 5:
        raise FitError(f"insufficient data: need >= 5 distinct v levels, got {v.size}")
    if v.min() > 0.1 or v.max() < 0.9:
        raise FitError("insufficient data: need v levels near 0 and near 1")
    if np.ptp(lum) == 0:
        raise FitError("constant luminance readings carry no information")

    l0, l1, gamma, res = _fit_gamma(v, lum, "achromatic fit did not converge within "
                                    f"{FIT_MAX_EVALS} evaluations", linear=True)
    display = AchromaticDisplay(l0=l0, l1=l1, gamma=gamma)
    report = FitReport(residual_rms=float(np.sqrt(np.mean(res ** 2))),
                       n_points=int(v.size), residuals=res,
                       details={"v": v, "luminance": lum})
    return display, report


def solve_background_weights(primary_r, primary_g, primary_b, background
                             ) -> WeightSolution:
    """Express the background as a weighted sum of the primaries.

    Solves the 3x3 system exactly when the primaries are independent; for
    rank-deficient primaries it falls back to the least-squares solution and
    reports the residual norm (nonzero when the background has a component
    outside the primaries' span).
    """
    op = "solve_background_weights"
    m, z = _floats([primary_r, primary_g, primary_b], op).T.copy(), _floats(background, op)
    if m.shape != (3, 3) or z.shape != (3,):
        raise ValidationError("primaries must be 3-vectors")
    if not (np.isfinite(m).all() and np.isfinite(z).all()):
        raise ValidationError(f"{op}: input must be finite")
    rank = int(np.linalg.matrix_rank(m))
    if rank == 0:
        raise FitError("all primaries are zero; background weights are undefined")
    w, _, _, _ = np.linalg.lstsq(m, z, rcond=None)
    residual = float(np.linalg.norm(m @ w - z))
    cond = float(np.linalg.cond(m))
    return WeightSolution(weights=w, residual=residual, cond=cond, rank=rank)


def _fit_gamma(v: np.ndarray, y: np.ndarray, failure: str, linear: bool = False):
    """(l0, l1, gamma, residuals) of the least-squares fit y ~ l1 * v**gamma + l0,
    each gamma's (l0 >= 0, l1) from a linear fit if ``linear`` (variable projection),
    else (0, 1).  The minimum, bracketed on a log grid of gamma in [2**-7, 2**7] with
    l1 > 0, is the root of the reduced derivative 2 * l1 * sum(r * v**gamma * ln v),
    found to float precision by steps that each cut its bracket in 64; no interior
    grid minimum, or more than :data:`FIT_MAX_EVALS` steps, raise ``failure``."""
    def project(gamma):  # l0, l1, residuals and half the derivative, per gamma
        b = v ** gamma[..., None]
        l0, l1 = np.zeros_like(gamma), np.ones_like(gamma)
        if linear:
            centred = b - b.mean(axis=-1, keepdims=True)
            l1 = centred @ (y - y.mean()) / np.sum(centred ** 2, axis=-1)
            l0 = y.mean() - l1 * b.mean(axis=-1)
            l0, l1 = np.maximum(l0, 0.0), np.where(l0 < 0, b @ y / np.sum(b ** 2, axis=-1), l1)
        res = l1[..., None] * b + l0[..., None] - y
        return l0, l1, res, l1 * np.sum(res * b * np.log(np.where(v > 0, v, 1.0)), axis=-1)

    grid = 2.0 ** np.linspace(-7, 7, 113)
    _, l1, res, slope = project(grid)
    k = int(np.argmin(np.sum(res ** 2, axis=-1)))
    if not (0 < k < grid.size - 1 and slope[k - 1] < 0 < slope[k + 1] and l1[k] > 0):
        raise FitError(failure)
    lo, hi = grid[k - 1], grid[k + 1]
    for _ in range(FIT_MAX_EVALS):
        if np.nextafter(lo, hi) == hi:  # adjacent floats, or equal
            l0, l1, res, _ = project(np.array(hi))
            return float(l0), float(l1), float(hi), res
        edges = np.linspace(lo, hi, 65)
        j = np.count_nonzero(project(edges[1:-1])[3] < 0)
        lo, hi = edges[j], edges[j + 1]
    raise FitError(failure)


def fit_chromatic(measurements) -> tuple[ChromaticDisplay, FitReport]:
    """Fit a chromatic display from per-channel ramps of XYZ readings.

    Expects, for each channel, a ramp of measurements varying only that
    channel (including the full-on endpoint v_k = 1) plus at least one shared
    background measurement at v = (0, 0, 0).  The background reading gives z,
    full-on readings give the primaries, per-measurement activations come
    from inverting the primary matrix, and each gamma is fit by least squares
    of the activation against v_k**gamma.
    """
    v, xyz = _columns(measurements, "xyz", "chromatic fit needs XYZ readings")
    on = v > 0
    if np.any(on.sum(axis=1) > 1):
        raise FitError("chromatic ramps must vary one channel at a time")
    if on.any(axis=1).all():
        raise FitError("missing background measurement at v = (0, 0, 0)")
    z = np.mean(xyz[~on.any(axis=1)], axis=0)

    primaries = []
    for k, name in enumerate("rgb"):
        if not on[:, k].any():
            raise FitError(f"missing ramp for channel {name}")
        full = v[:, k] == 1.0
        if not full.any():
            raise FitError(f"missing full-on endpoint (v_{name} = 1) for channel {name}")
        primaries.append(np.mean(xyz[full], axis=0) - z)
        if primaries[-1][1] <= 0:
            raise FitError(f"channel {name} primary Y = {primaries[-1][1]:g} is not > 0")
    matrix = np.column_stack(primaries)
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > 1e12:
        raise FitError(f"primaries are not invertible (condition number {cond:g})")

    # one stacked (N, 3, 1) solve matches per-row solves bit for bit
    acts = np.linalg.solve(matrix, (xyz - z)[..., None])[..., 0]
    gammas = np.zeros(3)
    residuals = []
    for k, name in enumerate("rgb"):
        v_k, acts_k = _average_repeats(v[on[:, k], k], acts[on[:, k], k])
        if not np.any(v_k < 1):  # v_k > 0 already: no interior point
            raise FitError(f"channel {name} ramp has no interior points")
        *_, gammas[k], res = _fit_gamma(v_k, acts_k,
                                        f"gamma fit for channel {name} did not converge")
        residuals.append(res)

    weights = solve_background_weights(*primaries, z)
    display = ChromaticDisplay(primary_r=primaries[0], primary_g=primaries[1],
                               primary_b=primaries[2], background=z,
                               gammas=gammas, weights=weights.weights)
    all_res = np.concatenate(residuals)
    report = FitReport(residual_rms=float(np.sqrt(np.mean(all_res ** 2))),
                       n_points=all_res.size, residuals=all_res,
                       details={"condition": cond,
                                "background_residual": weights.residual,
                                "background_rank": weights.rank})
    return display, report


#: Display JSON ``kind`` of each display class; the other keys are its fields.
_DISPLAY_KINDS = {"achromatic": AchromaticDisplay, "chromatic": ChromaticDisplay}


def save_display(display, file, report: FitReport | None = None) -> None:
    """Persist a fitted display as JSON with a ``kind`` discriminator; the fit
    report's fields are written as a plain float and int.  The text is built
    before the first write, so a failure writes nothing."""
    kinds = [k for k, cls in _DISPLAY_KINDS.items() if isinstance(display, cls)]
    if not kinds:
        raise ValidationError(f"not a display model: {display!r}")
    doc = {"kind": kinds[0]}
    for f in fields(display):
        value = getattr(display, f.name)
        doc[f.name] = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    if report is not None:
        doc["fit"] = {"residual_rms": float(report.residual_rms),
                      "n_points": operator.index(report.n_points)}
    file.write(json.dumps(doc, indent=2) + "\n")


def load_display(file):
    """Load a display persisted by :func:`save_display`.  Undecodable JSON, a
    missing key, or a value that is not a finite JSON number (a list of them
    for the chromatic vectors) is a :class:`ValidationError` naming the key."""
    try:
        doc = json.load(file)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"display JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("display JSON must be an object")
    kind = doc.get("kind")
    cls = _DISPLAY_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown display kind {kind!r}")
    vector = cls is ChromaticDisplay
    values = {}
    for key in (f.name for f in fields(cls)):
        if key not in doc:
            raise ValidationError(f"{kind} display JSON: missing key {key!r}")
        value = doc[key]
        items = value if isinstance(value, list) else [value]
        numbers = [float(x) for x in items if _finite_number(x)]
        if isinstance(value, list) != vector or len(numbers) != len(items):
            expected = "a list of finite numbers" if vector else "a finite number"
            raise ValidationError(f"{kind} display JSON: {key!r} must be "
                                  f"{expected}, got {json.dumps(value)}")
        values[key] = numbers if vector else numbers[0]
    return cls(**values)


def load_achromatic_csv(file) -> Measurement:
    """Read ``v,L`` measurement rows as one batch with ``v`` (N, 3)."""
    (rows,), problem, explain = read_table(file, "v,L", "ff", "measurement CSV")
    v, lum = rows.T
    reject_first(problem | (v < 0) | (v > 1) | (lum < 0), explain, "measurement CSV",
                 "v outside [0, 1] or L < 0")
    return Measurement(v=np.repeat(v[:, None], 3, axis=1), luminance=lum)


def load_chromatic_csv(file) -> Measurement:
    """Read ``v_r,v_g,v_b,X,Y,Z`` measurement rows as one (N, 3) batch."""
    (rows,), problem, explain = read_table(file, "v_r,v_g,v_b,X,Y,Z", "ffffff",
                                           "measurement CSV")
    reject_first(problem | np.any(rows < 0, axis=1) | np.any(rows[:, :3] > 1, axis=1),
                 explain, "measurement CSV", "v outside [0, 1] or X, Y, Z < 0")
    return Measurement(v=rows[:, :3], xyz=rows[:, 3:])
