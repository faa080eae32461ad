"""Gamma-correction construction and estimation of pipeline constants.

Gamma correction chooses the tonemapping function so that the physical
output is proportional to the unprocessed value u.  For an achromatic
display with background ratio w = l0/l1 and displayable input range
[0, r], the exact tonemap is

    f(u) = s(h^-1(max((1 + w) * u / r - w, 0)))

which pins luminance to L = (l0 + l1) * u / r for u >= u0 = r*w/(1+w) and
to L = l0 below the cutoff.  The chromatic version applies the same form
per channel with w_k and the channel activation h_k, over the same range;
an achromatic display is the case of three channels sharing one (w, gamma).
A refined cube re-fits its knot outputs to the tonemap by least squares with
outputs in [0, 1], solved by an active-set method in numpy.

The estimators recover the pipeline's hidden constants from rendered
samples: the global gain from a regression through the origin, and the
tonemapping knot coordinates either from impulse-cube sweeps or by direct
optimization of model predictions.  The latter is a nonlinear least-squares
problem over the log of the first knot and of the gaps between knots, solved
by Levenberg-Marquardt steps in the normal equations of the exact Jacobian.
Under a separable cube a residual depends on the two knots of its own
channel's cell, so JᵀJ is tridiagonal and is summed without the Jacobian.
Any other cube's Jacobian takes each point's cell corners from the
tonemap's own kernel in :mod:`hdrpcal.cubelut` and adds only the chain rule.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._table import read_table, reject_first
from .colorspace import (SRGB_LINEAR_BREAK, _Frozen, _checked, _finite_number,
                         _floats, _freeze, srgb_decode, srgb_decode3)
# Not called here; the benchmark tracer requires this module binding.
from .colorspace import srgb_encode3  # noqa: F401
from .cubelut import (ACTIVE_START, DEFAULT_GRID_SIZE, CubeLUT, KnotGrid,
                      _cell_corners, _interpolate, _locate, default_knot_grid)
from .display import AchromaticDisplay, ChromaticDisplay
from .errors import FitError, ValidationError
from .harness import (MATERIAL_FLOOR, SampleBatch, check_seed,
                      predict_unprocessed)
from .scene import DEFAULT_SCALE_CONSTANT, _post_process

#: Points of the log-spaced grid a refined correction cube is fit on.
REFINE_POINTS = 2048
REFINE_MAX_SOLVES = 100  # linear solves of the refinement, per channel
#: Fewest Lambertian samples the gain regression accepts.
MIN_SCALE_SAMPLES = 100
#: Band of the peak, as fractions, whose points fit an impulse response's
#: flank lines.
APEX_BAND = (0.2, 0.8)
#: Largest sweep output that still counts as no response.
NO_RESPONSE_LEVEL = 1e-6
#: Share of the knot-fit samples held out for scoring.
HOLDOUT_FRACTION = 0.2
KNOT_FIT_MAX_EVALS = 3100  # points the knot fit scores, its start too: MINPACK's 100·(n + 1)
KNOT_FIT_TOL = 1e-8  # relative, on its reduction in sum of squares, step and gradient


@dataclass(frozen=True)
class GammaCorrectionSpec:
    """A display plus the displayable input range r.

    With the default r = 1 the chromatic tonemap reduces to the plain
    per-channel form (1 + w_k)*u_k - w_k.  Choosing r equal to one of the
    knot coordinates puts the tonemap's top kink on a knot, which a
    piecewise-linear cube can represent exactly; with r strictly inside a
    knot cell no [0, 1]-valued cube can track the kink closely.
    """

    display: AchromaticDisplay | ChromaticDisplay
    input_range: float = 1.0

    def __post_init__(self):
        if not _finite_number(self.input_range):
            raise ValidationError("input range must be a finite number")
        if self.input_range <= 0:
            raise ValidationError("input range must be > 0")
        if isinstance(self.display, ChromaticDisplay):
            if np.any(self.display.weights < 0):
                raise ValidationError("chromatic correction requires nonnegative "
                                      "background weights")
        elif not isinstance(self.display, AchromaticDisplay):
            raise ValidationError(f"not a display model: {self.display!r}")

    @property
    def _channels(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel background ratios w_k and gammas, as two (3,) arrays:
        an achromatic display is three equal channels."""
        if isinstance(self.display, ChromaticDisplay):
            return self.display.weights, self.display.gammas
        return np.full(3, self.display.w), np.full(3, self.display.gamma)

    @property
    def cutoffs(self) -> np.ndarray:
        """Per-channel cutoff u0 below which output sits at the display floor."""
        w, _ = self._channels
        return self.input_range * w / (1.0 + w)

    def channel_tonemaps(self):
        """Three callables mapping unprocessed arrays to tonemapped arrays."""
        return tuple(functools.partial(_gamma_tonemap, w=w, gamma=gamma,
                                       r=self.input_range)
                     for w, gamma in zip(*self._channels))


def _gamma_tonemap(u, w, gamma, r: float):
    """f(u) = s(h^-1(clip((1 + w)*u/r - w, 0, 1))) with h(v) = v**gamma;
    ``w`` and ``gamma`` broadcast against ``u``.  A scalar u gives a float with
    an array element's bits: it goes as one, since numpy's scalar power is libm's."""
    arr = _checked(u, "channel_tonemaps", hi=np.inf)
    arg = np.clip((1.0 + w) * np.atleast_1d(arr) / r - w, 0.0, 1.0)
    out = srgb_decode(arg ** (1.0 / gamma))
    return float(out[0]) if np.ndim(u) == 0 else out


def gamma_tonemap(spec: GammaCorrectionSpec, u):
    """Exact gamma-correction tonemap of (..., 3) triplets, either display kind."""
    arr = _checked(u, "gamma_tonemap", triplet=True, hi=np.inf)
    return _gamma_tonemap(arr, *spec._channels, spec.input_range)


def _bvls(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x in [0, 1]^n minimizing x.hess.x / 2 - rhs.x, for hess = AᵀA and rhs = Aᵀy:
    Lawson-Hanson's active-set NNLS with an upper bound too (Stark & Parker 1995).
    A variable at a bound is exactly 0 or 1; NaN after REFINE_MAX_SOLVES solves."""
    x, free, grow = np.zeros(rhs.size), np.zeros(rhs.size, bool), True
    for _ in range(REFINE_MAX_SOLVES):
        if grow:  # free the bound variable the gradient pulls inward most
            pull = np.where(free, 0.0, np.where(x == 1, -1.0, 1.0) * (rhs - hess @ x))
            if pull.max() <= 0:
                return x
            free[np.argmax(pull)] = True
        z = x.copy()
        z[free] = np.linalg.solve(hess[np.ix_(free, free)], (rhs - hess @ (x * ~free))[free])
        out = free & ((z < 0) | (z > 1))
        if not out.any():
            x, grow = z, True
            continue
        bound, grow = (z > 1).astype(float), False
        ratio = np.where(out, (bound - x) / np.where(out, z - x, 1.0), np.inf)
        x = x + ratio.min() * (z - x)
        hit = ratio == ratio.min()
        x[hit], free[hit] = bound[hit], False
    return np.full(rhs.size, np.nan)


def build_correction_cube(spec: GammaCorrectionSpec, knots: KnotGrid | None = None,
                          refine: bool = False) -> CubeLUT:
    """Gamma-correction cube: per channel, the exact tonemap sampled at the
    active knot coordinates (inactive knots copy the first active value).

    With ``refine``, the per-channel knot outputs are re-fit by bounded
    linear least squares (:func:`_bvls`, outputs in [0, 1]) so that the
    interpolated tonemap tracks the exact one over a dense log-spaced grid on
    [u*_first, r] plus the endpoints {0, r}.  Refinement never increases that
    grid's sum-of-squares error; if the solver stops at its cap the
    point-construction cube is returned with a warning.
    """
    grid = knots if knots is not None else default_knot_grid()
    active = grid.active_values
    r = spec.input_range
    start = grid.active_start - 1
    w, gamma = (p[:, None] for p in spec._channels)  # one row per channel
    curves = np.clip(_gamma_tonemap(active, w, gamma, r), 0.0, 1.0)

    if refine:
        if r <= active[0]:
            raise ValidationError("input range must exceed the first active knot")
        xs = np.unique(np.concatenate([
            [0.0, r], np.geomspace(active[0], r, REFINE_POINTS)]))
        # Column j: the separable tonemap's interpolation of knot j's unit impulse.
        mat = np.stack([np.interp(xs, active, e) for e in np.eye(active.size)], axis=1)
        supported = np.flatnonzero(mat.sum(axis=0) > 0)  # the others' columns are all zero
        sub = mat[:, supported]
        hess, targets = sub.T @ sub, _gamma_tonemap(xs, w, gamma, r)
        for c in range(3):
            y = targets[c]
            sse_point = float(np.sum((mat @ curves[c] - y) ** 2))
            refined = curves[c].copy()
            refined[supported] = _bvls(hess, sub.T @ y)
            if not np.sum((mat @ refined - y) ** 2) <= sse_point:  # or NaN: at the cap
                warnings.warn(f"refinement did not improve channel {c}; "
                              "keeping point construction", stacklevel=2)
            else:
                curves[c] = refined

    full = np.pad(curves, ((0, 0), (start, 0)), mode="edge")
    return CubeLUT._from_curves(full, title="gamma correction")


@dataclass(frozen=True)
class ScaleEstimate:
    """Result of the pipeline-gain regression."""

    c: float
    slope: float
    n_samples: int
    n_channel_points: int
    n_saturated: int


def estimate_scale_constant(samples: SampleBatch) -> ScaleEstimate:
    """Estimate the pipeline gain from Lambertian samples rendered with
    tonemapping disabled.

    Predicted unprocessed values (computed with unit gain) are regressed
    through the origin against actual unprocessed values s(v); the gain is
    the inverse of the slope.  Channel observations at the framebuffer
    ceiling (v >= 1) are excluded: clipping makes them uninformative.
    """
    samples = samples[samples.lambertian]
    if len(samples) < MIN_SCALE_SAMPLES:
        raise FitError(f"need >= {MIN_SCALE_SAMPLES} lambertian samples, "
                       f"got {len(samples)}")
    predicted = predict_unprocessed(samples, scale_constant=1.0)
    v = samples.v
    actual = srgb_decode3(v)
    # The ceiling test is tolerant: encode(1.0) lands one ulp under 1.
    keep = v < 1.0 - 1e-9
    x = actual[keep]
    y = predicted[keep]
    denom = float(np.sum(x * x))
    if denom == 0.0 or float(np.sum(y * y)) == 0.0:
        raise FitError("all predictions or observations are zero")
    slope = float(np.sum(x * y)) / denom
    if slope <= 0:
        raise FitError(f"non-positive regression slope {slope!r}")
    return ScaleEstimate(c=1.0 / slope, slope=slope, n_samples=len(samples),
                         n_channel_points=int(keep.sum()),
                         n_saturated=int((~keep).sum()))


@dataclass(frozen=True, eq=False)
class DeltaSweep(_Frozen):
    """Scalar tonemap response to impulse cube ``m``: (input, output) pairs,
    stored as read-only copies, the inputs >= 0 and the outputs clipped to [0, 1]."""

    m: int
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        u = _checked(_floats(self.inputs, "DeltaSweep inputs", copy=True), "DeltaSweep inputs",
                     hi=np.inf)
        t = _floats(self.outputs, "DeltaSweep outputs")
        if not _finite_number(self.m, integer=True):
            raise ValidationError(f"sweep index must be an integer, got {self.m!r}")
        if u.ndim != 1 or u.shape != t.shape or u.size < 4:
            raise ValidationError("sweep needs matching input/output vectors "
                                  "(length >= 4)")
        if np.any(np.diff(u) <= 0):
            raise ValidationError("sweep inputs must be strictly increasing")
        if not np.all((t >= -1e-12) & (t <= 1 + 1e-12)):  # NaN fails too
            raise ValidationError("sweep outputs must lie in [0, 1]")
        _freeze(self, inputs=u, outputs=np.clip(t, 0.0, 1.0))


def load_sweeps(file) -> list[DeltaSweep]:
    """Read a sweep CSV (header ``m,u,t``) from a text stream: one
    :class:`DeltaSweep` per impulse index ``m``, in ascending ``m``, each
    with its rows in ascending ``u``."""
    (ut, m), problem, explain = read_table(file, "m,u,t", "iff", "sweep CSV")
    reject_first(problem | (ut[:, 0] < 0) | (ut[:, 1] < -1e-12) | (ut[:, 1] > 1 + 1e-12),
                 explain, "sweep CSV", "u < 0 or t outside [0, 1]")  # DeltaSweep's rules
    del problem, explain  # and the line numbers: only the sweeps' copies of their rows grow
    order = np.lexsort((ut[:, 0], m))  # stable: by m, then u
    indices, counts = np.unique(m, return_counts=True)
    del m
    try:  # a tied u, or fewer than 4 rows; k is the sweep being built
        return [DeltaSweep(m=(k := index), inputs=ut[rows, 0], outputs=ut[rows, 1])
                for index, rows in zip(indices.tolist(), np.split(order, np.cumsum(counts)[:-1]))]
    except ValidationError as exc:
        raise ValidationError(f"sweep CSV: sweep {k}: {exc}") from None


@dataclass(frozen=True, eq=False)
class DeltaEstimateReport:
    estimates: np.ndarray
    no_response: tuple[int, ...]
    anomalies: dict[int, str] = field(default_factory=dict)


def _sweep_apex(sweep: DeltaSweep) -> tuple[float, str | None]:
    """Apex abscissa of a triangular response: where its two flank lines meet.

    A flank is the line fit to its points within :data:`APEX_BAND` of the
    peak or, where the peak's plateau reaches that end of the sweep, the
    level line at the peak.  Falls back to the raw argmax (flagged as an
    anomaly) when a flank has neither or the two lines are parallel.
    """
    u, t = sweep.inputs, sweep.outputs
    peak = float(t.max())
    near_peak = t >= peak * (1.0 - 1e-9)
    p_first = int(np.argmax(near_peak))
    p_last = int(len(t) - 1 - np.argmax(near_peak[::-1]))
    anomaly = None
    if (np.any(np.diff(t[:p_first + 1]) < -1e-9 * peak)
            or np.any(np.diff(t[p_last:]) > 1e-9 * peak)):
        anomaly = "non-unimodal response"

    def flank(side: np.ndarray, plateau: bool):  # its band points' line, or the level line
        if np.count_nonzero(side) >= 2:
            return np.polyfit(u[side], t[side], 1)
        return (0.0, peak) if plateau else (np.nan, np.nan)

    band, at = (t >= APEX_BAND[0] * peak) & (t <= APEX_BAND[1] * peak), np.arange(t.size)
    (a1, b1), (a2, b2) = (flank(band & (at < p_first), p_first == 0),
                          flank(band & (at > p_last), p_last == t.size - 1))
    if abs(a1 - a2) > 0:  # false for parallel lines, and for a missing flank's NaN
        return (b2 - b1) / (a1 - a2), anomaly
    return float(u[int(np.argmax(t))]), anomaly or "flank fit failed; used argmax"


def estimate_knots_delta(sweeps) -> tuple[KnotGrid, DeltaEstimateReport]:
    """Estimate the default grid's knot coordinates from impulse-cube sweeps.

    Takes one sweep per active knot index and at most one per other index
    in 1..32, which is optional and expected to be flat ("no response").
    """
    active, by_m = range(ACTIVE_START, DEFAULT_GRID_SIZE + 1), {}
    for s in sweeps:
        if not 1 <= s.m <= DEFAULT_GRID_SIZE or by_m.setdefault(s.m, s) is not s:
            raise FitError(f"sweep {s.m}: expected one sweep per index in 1..{DEFAULT_GRID_SIZE}")
    missing = [m for m in active if m not in by_m]
    if missing:
        raise FitError(f"missing sweeps for knot indices {missing}")

    inactive = [m for m in range(1, ACTIVE_START) if m in by_m]
    no_response = [m for m in inactive if float(by_m[m].outputs.max()) <= NO_RESPONSE_LEVEL]
    anomalies = {m: "unexpected response at inactive knot" for m in inactive
                 if m not in no_response}
    estimates = np.empty(len(active))
    for m in active:
        if float(by_m[m].outputs.max()) <= NO_RESPONSE_LEVEL:
            raise FitError(f"sweep {m} is flat; cannot estimate its knot")
        estimates[m - ACTIVE_START], anomaly = _sweep_apex(by_m[m])
        if anomaly:
            anomalies[m] = anomaly

    order = np.argsort(estimates, kind="stable")
    if not np.array_equal(order, np.arange(estimates.size)):
        anomalies[0] = "estimates were not monotone in m; sorted"
    estimates = estimates[order]
    try:
        grid = KnotGrid.from_active(estimates)
    except ValidationError as exc:
        raise FitError(f"knot estimates are not strictly increasing: {exc}")
    return grid, DeltaEstimateReport(estimates=estimates,
                                     no_response=tuple(no_response),
                                     anomalies=anomalies)


@dataclass(frozen=True, eq=False)
class KnotOptimizeReport:
    objective_init: float
    objective_final: float
    n_train: int
    n_holdout: int
    n_excluded: int
    train_median_255: float
    holdout_median_255: float
    n_evaluations: int
    converged: bool
    unsupported_knots: tuple[int, ...] = ()
    notes: tuple[str, ...] = ()


def _predict(knots: np.ndarray, u: np.ndarray, lut: CubeLUT) -> np.ndarray:
    """Framebuffer values of unprocessed ``u`` tonemapped by ``lut`` over
    the active knot coordinates ``knots``."""
    return _post_process(u, lambda x: _interpolate(knots, lut, x))


def _encode_slope(t: np.ndarray) -> np.ndarray:
    """dv/dt, the sRGB encode slope at the tonemapped value t clipped to [0, 1]."""
    t = np.clip(t, 0.0, 1.0)
    return np.where(t <= SRGB_LINEAR_BREAK, 12.92, (1.055 / 2.4) * np.maximum(
        t, SRGB_LINEAR_BREAK) ** (1.0 / 2.4 - 1.0))


def _weight_slopes(knots: np.ndarray, u: np.ndarray, idx: np.ndarray) -> tuple:
    """dw/dk_lo = (u - k_hi)/d^2 and dw/dk_hi = (k_lo - u)/d^2 of the in-cell
    weights w of ``u`` in the knot cells ``idx`` of width d, or 0 where u is clamped."""
    lo, hi = knots[idx], knots[idx + 1]
    dw = np.where((u > knots[0]) & (u < knots[-1]), 1.0 / (hi - lo) ** 2, 0.0)
    return (u - hi) * dw, (lo - u) * dw


def _knot_jacobian(knots: np.ndarray, u: np.ndarray, lut: CubeLUT) -> np.ndarray:
    """d/dknots of ``_predict(knots, u, lut).ravel()``, (3N, K): an axis
    weight w moves with the knots by :func:`_weight_slopes`, dt/dw comes from
    the 8 cell corners (a separable cube has only the own-axis term), dv/dt is
    the sRGB encode slope at the trilinear blend t of the same corners."""
    idx, w, corners, t = _cell_corners(knots, lut, u)
    weights = np.stack([1.0 - w, w])  # (2, N, 3)
    dt_dw = np.stack([np.einsum("pqnc,pn,qn->nc", np.diff(corners, axis=a).squeeze(a),
                                *(weights[..., b] for b in range(3) if b != a))
                      for a in range(3)], axis=-1)  # (N, channel, axis)
    dt_dw *= _encode_slope(t)[..., None]
    values = np.tile(dt_dw, 2) * np.hstack(_weight_slopes(knots, u, idx))[:, None]
    flat = (np.arange(3 * len(u)).reshape(-1, 3, 1) * knots.size
            + np.hstack([idx, idx + 1])[:, None])  # (N, channel, axis and knot)
    return np.bincount(flat.ravel(), values.ravel(),
                       minlength=3 * len(u) * knots.size).reshape(-1, knots.size)


def _knot_normal_equations(knots: np.ndarray, u: np.ndarray, lut: CubeLUT,
                           r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ and Jᵀr of J = ``_knot_jacobian(knots, u, lut)`` and residuals ``r``.
    Under a separable cube row (n, c) of J is g times u[n, c]'s two :func:`_weight_slopes`
    at its cell's knots, g the encode slope times the curve's slope in the cell:
    JᵀJ is tridiagonal, and is summed without J."""
    curves = lut.separable_channels()
    if curves is None:
        jac = _knot_jacobian(knots, u, lut)
        return jac.T @ jac, r @ jac
    idx, w = _locate(knots, u)
    active = np.array(curves)[:, lut.size - knots.size:]  # (channel, knot)
    flat = idx + np.arange(0, active.size, knots.size)  # in channel c's row
    c_lo, c_hi = active.take(flat), active.take(flat + 1)
    g = _encode_slope(c_lo + w * (c_hi - c_lo)) * (c_hi - c_lo)
    i, (a, b) = idx.ravel(), (np.ravel(g * s) for s in _weight_slopes(knots, u, idx))
    at = functools.partial(np.bincount, minlength=knots.size)  # sums per knot
    off = at(i, a * b)[:-1]
    hess = np.diag(at(i, a * a) + at(i + 1, b * b)) + np.diag(off, 1) + np.diag(off, -1)
    return hess, at(i, a * r) + at(i + 1, b * r)


def _knots_from_log_gaps(a: np.ndarray) -> np.ndarray:
    """Knots k_1 = exp(a_0), k_{i+1} = k_i + exp(a_i): increasing by construction."""
    return np.exp(a[0]) + np.concatenate([[0.0], np.cumsum(np.exp(a[1:]))])


def estimate_knots_optimize(datasets, init: KnotGrid, *,
                            scale_constant: float = DEFAULT_SCALE_CONSTANT,
                            seed: int = 0
                            ) -> tuple[KnotGrid, KnotOptimizeReport]:
    """Estimate knot coordinates by minimizing model prediction error.

    ``datasets`` is a list of (samples, CubeLUT) pairs, each rendered under
    a known cube.  Samples with any material component below
    :data:`~hdrpcal.harness.MATERIAL_FLOOR` are excluded (the rendering
    model is biased there), and a :data:`HOLDOUT_FRACTION` drawn from
    ``seed`` (a non-negative integer) is scored but never optimized on.
    The fit runs Levenberg-Marquardt steps (Marquardt's scaling, Nielsen's
    damping) over the log of the first knot and the log gaps between
    neighbours, so the knots stay strictly increasing; each solves JᵀJ and
    Jᵀr of the exact Jacobian, summed set by set (under a separable cube JᵀJ
    is tridiagonal and is built without the Jacobian), and one whose solve fails
    or whose knots overflow or tie is rejected.  As MINPACK's, it converges
    once the step, the relative reduction in sum of squares or the gradient
    falls to :data:`KNOT_FIT_TOL`, and stops after :data:`KNOT_FIT_MAX_EVALS`
    points.  ``n_evaluations`` counts a training pass per trial and per
    accepted point.  ``unsupported_knots`` (1-based grid indices, as in the
    knot CSV) and ``notes`` name the knots no training residual depends on
    at the solution; ``notes`` also says when the fit stops unconverged.
    """
    if len(datasets) < 2:
        raise FitError("need samples under at least 2 distinct cubes")
    if init.active_start != ACTIVE_START:
        raise FitError("optimization expects the standard active range")
    if init.active_values[0] <= 0:  # the log-gap parameters cannot hold a zero knot
        raise FitError("optimization needs a first active knot > 0")

    rng = np.random.default_rng(check_seed(seed))
    train_sets, holdout_sets = [], []
    n_excluded = n_train = n_holdout = 0
    for samples, lut in datasets:
        if lut.size != init.size:
            raise ValidationError(f"cube size {lut.size} != knot grid size {init.size}")
        keep = np.all(samples.m >= MATERIAL_FLOOR, axis=1)
        n_excluded += int(np.sum(~keep))
        kept = samples[keep]
        if not len(kept):
            continue
        u = predict_unprocessed(kept, scale_constant=scale_constant)
        v = kept.v
        holdout = rng.random(len(kept)) < HOLDOUT_FRACTION
        if np.any(~holdout):
            train_sets.append((u[~holdout], v[~holdout], lut))
        if np.any(holdout):
            holdout_sets.append((u[holdout], v[holdout], lut))
        n_train += int(np.sum(~holdout))
        n_holdout += int(np.sum(holdout))
    if not train_sets:
        raise FitError("no training samples survive the material filter")
    if 3 * n_train < init.active_values.size:
        raise FitError(f"{n_train} training samples give fewer residuals "
                       f"than the {init.active_values.size} knots to fit")

    evaluations = 0

    def residuals(a: np.ndarray) -> tuple[list[np.ndarray] | None, float]:
        # One training pass and its SSE, or (None, inf) for knots that overflow or tie.
        nonlocal evaluations
        evaluations += 1
        knots = _knots_from_log_gaps(a)
        if not (np.isfinite(knots[-1]) and np.all(np.diff(knots) > 0)):
            return None, np.inf
        fun = [(_predict(knots, u, lut) - v).ravel() for u, v, lut in train_sets]
        return fun, float(sum(r @ r for r in fun))

    def normal_equations(a: np.ndarray, fun: list[np.ndarray]):
        # One Jacobian pass, reduced set by set to JᵀJ and Jᵀr over the knots.
        nonlocal evaluations
        evaluations += 1
        knots = _knots_from_log_gaps(a)
        hess, grad = map(sum, zip(*(_knot_normal_equations(knots, u, lut, r)
                                    for (u, _, lut), r in zip(train_sets, fun))))
        t = np.tril(np.ones_like(hess)) * np.exp(a)  # dk_i/da_j = exp(a_j) for j <= i
        return t.T @ hess @ t, grad @ t, np.flatnonzero(np.diag(hess) == 0)

    a = np.log(np.concatenate([init.active_values[:1], np.diff(init.active_values)]))
    fun, sse_init = residuals(a)
    if fun is None:
        raise FitError("initial knots are not strictly increasing from their log gaps")
    hess, grad, no_support = normal_equations(a, fun)
    sse, mu, nu, converged = sse_init, 1e-6, 2.0, False  # near Gauss-Newton: a good init
    for _ in range(KNOT_FIT_MAX_EVALS - 1):
        scale = np.where(np.diag(hess) > 0, np.diag(hess), 1.0)  # Marquardt's D²
        if converged or np.all(np.abs(grad) <= KNOT_FIT_TOL * np.sqrt(scale * sse)):
            converged = True
            break
        with np.errstate(all="ignore"):
            try:
                step = np.linalg.solve(hess + mu * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                step = np.full_like(a, np.nan)
            trial, sse_trial = residuals(a + step)
            predicted = step @ (hess + 2 * mu * np.diag(scale)) @ step  # >= 0, as MINPACK's
            ratio = float((sse - sse_trial) / predicted)
        converged = (np.linalg.norm(step) <= KNOT_FIT_TOL * (np.linalg.norm(a) + KNOT_FIT_TOL)
                     or (abs(sse - sse_trial) <= KNOT_FIT_TOL * sse
                         and predicted <= KNOT_FIT_TOL * sse and ratio <= 2.0))
        if ratio > 0:
            a, fun, sse = a + step, trial, sse_trial
            hess, grad, no_support = normal_equations(a, fun)
        mu, nu = ((mu * max(1 / 3, 1 - (2 * min(ratio, 1.0) - 1) ** 3), 2.0) if ratio > 0
                  else (mu * nu, 2 * nu))  # Nielsen's rule
    notes = [] if converged else [f"no tolerance met in {KNOT_FIT_MAX_EVALS} points"]

    knots = _knots_from_log_gaps(a)
    unsupported = tuple((no_support + init.active_start).tolist())
    if unsupported:
        notes.append("unsupported knots: " + ", ".join(map(str, unsupported)))
    grid = KnotGrid.from_active(knots, size=init.size, active_start=init.active_start)

    holdout = [np.abs(_predict(knots, u, lut) - v).ravel() for u, v, lut in holdout_sets]
    return grid, KnotOptimizeReport(
        objective_init=sse_init, objective_final=sse,
        n_train=n_train, n_holdout=n_holdout, n_excluded=n_excluded,
        train_median_255=float(np.median(np.abs(np.concatenate(fun))) * 255.0),
        holdout_median_255=(float(np.median(np.concatenate(holdout)) * 255.0)
                            if holdout else float("nan")),
        n_evaluations=evaluations, converged=bool(converged),
        unsupported_knots=unsupported, notes=tuple(notes))
