"""Physical display models and their characterization fits.

An achromatic display maps a framebuffer value v in [0, 1] to luminance

    L = l1 * h(v) + l0

with ``l0`` the minimum displayable luminance, ``l1`` the luminance range
and activation h(v) = v**gamma.  A chromatic display maps a triplet v to
CIE XYZ coordinates

    x = h_r(v_r)*r + h_g(v_g)*g + h_b(v_b)*b + z

with per-channel activations, primaries r/g/b and a fixed background term z.
Activations are modeled as single-parameter gamma curves; the fitting
interface only assumes a monotone invertible curve, so a more flexible
family could replace the power law later.

Fits are deterministic given identical input order.  Measurement CSV
formats: achromatic ``v,L``; chromatic ``v_r,v_g,v_b,X,Y,Z``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from ._table import read_table, reject_first
from .errors import (ConvergenceError, DegenerateDataError, DomainError,
                     FitError, ValidationError)

FIT_MAX_EVALS = 500
FIT_STEP_TOL = 1e-10


@dataclass(frozen=True)
class AchromaticDisplay:
    """Luminance-only display model L = l1 * v**gamma + l0."""

    l0: float
    l1: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.l0) and self.l0 >= 0):
            raise ValidationError("l0 must be >= 0")
        if not (np.isfinite(self.l1) and self.l1 > 0):
            raise ValidationError("l1 must be > 0")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError("gamma must be > 0")

    @property
    def w(self) -> float:
        """Background-to-range ratio l0/l1."""
        return self.l0 / self.l1

    def luminance(self, v):
        """Displayed luminance for framebuffer value(s) v in [0, 1]."""
        arr = np.asarray(v, dtype=float)
        if np.any(~np.isfinite(arr)) or np.any(arr < 0) or np.any(arr > 1):
            raise DomainError("framebuffer value outside [0, 1]")
        out = self.l1 * arr ** self.gamma + self.l0
        return float(out) if np.ndim(v) == 0 else out


@dataclass(frozen=True, eq=False)
class ChromaticDisplay:
    """Additive three-primary display model in CIE XYZ."""

    primary_r: np.ndarray
    primary_g: np.ndarray
    primary_b: np.ndarray
    background: np.ndarray
    gammas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("primary_r", "primary_g", "primary_b", "background",
                     "gammas", "weights"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be a finite 3-vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
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
        arr = np.asarray(v, dtype=float)
        if arr.shape[-1:] != (3,) or np.any(~np.isfinite(arr)):
            raise DomainError("expected finite (..., 3) framebuffer values")
        if np.any(arr < 0) or np.any(arr > 1):
            raise DomainError("framebuffer value outside [0, 1]")
        return (arr ** self.gammas) @ self.primaries.T + self.background


@dataclass(frozen=True, eq=False)
class Measurement:
    """One characterization reading: the framebuffer triplet shown and
    either a luminance (cd/m^2) or an XYZ reading."""

    v: np.ndarray
    luminance: float | None = None
    xyz: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).copy()
        if v.shape != (3,) or np.any(~np.isfinite(v)) or np.any(v < 0) or np.any(v > 1):
            raise ValidationError("measurement v must be a triplet in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if (self.luminance is None) == (self.xyz is None):
            raise ValidationError("measurement needs exactly one of luminance or xyz")
        if self.luminance is not None and (not np.isfinite(self.luminance)
                                           or self.luminance < 0):
            raise ValidationError("luminance reading must be >= 0")
        if self.xyz is not None:
            xyz = np.asarray(self.xyz, dtype=float).copy()
            if xyz.shape != (3,) or np.any(~np.isfinite(xyz)) or np.any(xyz < 0):
                raise ValidationError("xyz reading must be a nonnegative 3-vector")
            xyz.setflags(write=False)
            object.__setattr__(self, "xyz", xyz)


@dataclass(frozen=True, eq=False)
class FitReport:
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
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    ux, inverse = np.unique(x, return_inverse=True)
    uy = np.zeros((ux.size,) + y.shape[1:])
    counts = np.bincount(inverse)
    np.add.at(uy, inverse, y)
    return ux, uy / counts.reshape((-1,) + (1,) * (y.ndim - 1))


def fit_achromatic(measurements) -> tuple[AchromaticDisplay, FitReport]:
    """Least-squares fit of (l0, l1, gamma) to luminance measurements.

    Needs at least 5 distinct v levels covering both ends of the range.
    Repeated v values are averaged before fitting.
    """
    vs, ls = [], []
    for m in measurements:
        if m.luminance is None:
            raise FitError("achromatic fit needs luminance readings")
        if np.ptp(m.v) > 1e-9:
            raise FitError("achromatic fit needs achromatic stimuli (v_r=v_g=v_b)")
        vs.append(float(m.v[0]))
        ls.append(float(m.luminance))
    v, lum = _average_repeats(np.asarray(vs), np.asarray(ls))
    if v.size < 5:
        raise FitError(f"insufficient data: need >= 5 distinct v levels, got {v.size}")
    if v.min() > 0.1 or v.max() < 0.9:
        raise FitError("insufficient data: need v levels near 0 and near 1")
    if np.ptp(lum) == 0:
        raise DegenerateDataError("constant luminance readings carry no information")

    def resid(theta):
        l0, l1, gamma = theta
        return l1 * v ** gamma + l0 - lum

    x0 = np.array([lum.min(), np.ptp(lum), 2.2])
    res = least_squares(resid, x0, bounds=([0.0, 1e-12, 1e-6], [np.inf] * 3),
                        xtol=FIT_STEP_TOL, ftol=None, gtol=None,
                        max_nfev=FIT_MAX_EVALS)
    if res.status == 0:
        raise ConvergenceError(
            f"achromatic fit did not converge within {FIT_MAX_EVALS} evaluations",
            last_iterate=res.x)
    display = AchromaticDisplay(l0=float(res.x[0]), l1=float(res.x[1]),
                                gamma=float(res.x[2]))
    report = FitReport(residual_rms=float(np.sqrt(np.mean(res.fun ** 2))),
                       n_points=int(v.size), residuals=res.fun,
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
    m = np.column_stack([np.asarray(primary_r, float),
                         np.asarray(primary_g, float),
                         np.asarray(primary_b, float)])
    z = np.asarray(background, dtype=float)
    if m.shape != (3, 3) or z.shape != (3,):
        raise ValidationError("primaries must be 3-vectors")
    rank = int(np.linalg.matrix_rank(m))
    if rank == 0:
        raise FitError("all primaries are zero; background weights are undefined")
    w, _, _, _ = np.linalg.lstsq(m, z, rcond=None)
    residual = float(np.linalg.norm(m @ w - z))
    cond = float(np.linalg.cond(m))
    return WeightSolution(weights=w, residual=residual, cond=cond, rank=rank)


def _fit_gamma(v: np.ndarray, p: np.ndarray, channel: str) -> float:
    def resid(theta):
        return v ** theta[0] - p

    res = least_squares(resid, np.array([2.2]), bounds=([1e-6], [np.inf]),
                        xtol=1e-14, ftol=None, gtol=None, max_nfev=FIT_MAX_EVALS)
    if res.status == 0:
        raise ConvergenceError(f"gamma fit for channel {channel} did not converge",
                               last_iterate=res.x)
    return float(res.x[0])


def fit_chromatic(measurements) -> tuple[ChromaticDisplay, FitReport]:
    """Fit a chromatic display from per-channel ramps of XYZ readings.

    Expects, for each channel, a ramp of measurements varying only that
    channel (including the full-on endpoint v_k = 1) plus at least one shared
    background measurement at v = (0, 0, 0).  The background reading gives z,
    full-on readings give the primaries, per-measurement activations come
    from inverting the primary matrix, and each gamma is fit by least squares
    of the activation against v_k**gamma.
    """
    background_rows = []
    ramps: dict[int, list[Measurement]] = {0: [], 1: [], 2: []}
    for m in measurements:
        if m.xyz is None:
            raise FitError("chromatic fit needs XYZ readings")
        on = np.flatnonzero(m.v > 0)
        if on.size == 0:
            background_rows.append(m)
        elif on.size == 1:
            ramps[int(on[0])].append(m)
        else:
            raise FitError("chromatic ramps must vary one channel at a time")
    if not background_rows:
        raise FitError("missing background measurement at v = (0, 0, 0)")
    z = np.mean([m.xyz for m in background_rows], axis=0)

    primaries = []
    for k, name in enumerate("rgb"):
        rows = ramps[k]
        if not rows:
            raise FitError(f"missing ramp for channel {name}")
        full = [m.xyz for m in rows if m.v[k] == 1.0]
        if not full:
            raise FitError(f"missing full-on endpoint (v_{name} = 1) for channel {name}")
        primaries.append(np.mean(full, axis=0) - z)
    matrix = np.column_stack(primaries)
    cond = float(np.linalg.cond(matrix))
    if not np.isfinite(cond) or cond > 1e12:
        raise FitError(f"primaries are not invertible (condition number {cond:g})")

    gammas = np.zeros(3)
    residuals = []
    for k, name in enumerate("rgb"):
        rows = ramps[k]
        v_k = np.array([m.v[k] for m in rows])
        acts = np.array([np.linalg.solve(matrix, m.xyz - z)[k] for m in rows])
        v_k, acts = _average_repeats(v_k, acts)
        interior = (v_k > 0) & (v_k < 1)
        if interior.sum() < 1:
            raise FitError(f"channel {name} ramp has no interior points")
        gammas[k] = _fit_gamma(v_k, acts, name)
        residuals.append(v_k ** gammas[k] - acts)

    weights = solve_background_weights(*primaries, z)
    display = ChromaticDisplay(primary_r=primaries[0], primary_g=primaries[1],
                               primary_b=primaries[2], background=z,
                               gammas=gammas, weights=weights.weights)
    all_res = np.concatenate(residuals)
    report = FitReport(residual_rms=float(np.sqrt(np.mean(all_res ** 2))),
                       n_points=len(measurements), residuals=all_res,
                       details={"condition": cond,
                                "background_residual": weights.residual,
                                "background_rank": weights.rank})
    return display, report


def save_display(display, file, report: FitReport | None = None) -> None:
    """Persist a fitted display as JSON with a ``kind`` discriminator."""
    if isinstance(display, AchromaticDisplay):
        doc = {"kind": "achromatic", "l0": display.l0, "l1": display.l1,
               "gamma": display.gamma}
    elif isinstance(display, ChromaticDisplay):
        doc = {"kind": "chromatic",
               "primary_r": display.primary_r.tolist(),
               "primary_g": display.primary_g.tolist(),
               "primary_b": display.primary_b.tolist(),
               "background": display.background.tolist(),
               "gammas": display.gammas.tolist(),
               "weights": display.weights.tolist()}
    else:
        raise ValidationError(f"not a display model: {display!r}")
    if report is not None:
        doc["fit"] = {"residual_rms": report.residual_rms,
                      "n_points": report.n_points}
    json.dump(doc, file, indent=2)
    file.write("\n")


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
    if kind == "achromatic":
        cls, keys = AchromaticDisplay, ("l0", "l1", "gamma")
    elif kind == "chromatic":
        cls, keys = ChromaticDisplay, ("primary_r", "primary_g", "primary_b",
                                       "background", "gammas", "weights")
    else:
        raise ValidationError(f"unknown display kind {kind!r}")
    vector = kind == "chromatic"
    fields = {}
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{kind} display JSON: missing key {key!r}")
        value = doc[key]
        items = value if isinstance(value, list) else [value]
        numbers = [float(x) for x in items if type(x) in (int, float)
                   and abs(x) <= sys.float_info.max]
        if isinstance(value, list) != vector or len(numbers) != len(items):
            expected = "a list of finite numbers" if vector else "a finite number"
            raise ValidationError(f"{kind} display JSON: {key!r} must be "
                                  f"{expected}, got {json.dumps(value)}")
        fields[key] = numbers if vector else numbers[0]
    return cls(**fields)


def load_achromatic_csv(file) -> list[Measurement]:
    """Read ``v,L`` measurement rows."""
    (v, lum), problem, explain = read_table(file, "v,L", "ff", "measurement CSV")
    reject_first(problem, explain, "measurement CSV")
    return [Measurement(v=np.array([x, x, x]), luminance=y)
            for x, y in zip(v.tolist(), lum.tolist())]


def load_chromatic_csv(file) -> list[Measurement]:
    """Read ``v_r,v_g,v_b,X,Y,Z`` measurement rows."""
    columns, problem, explain = read_table(file, "v_r,v_g,v_b,X,Y,Z", "ffffff",
                                           "measurement CSV")
    reject_first(problem, explain, "measurement CSV")
    return [Measurement(v=row[:3], xyz=row[3:]) for row in np.column_stack(columns)]
