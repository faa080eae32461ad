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

The estimators recover the pipeline's hidden constants from rendered
samples: the global gain from a regression through the origin, and the
tonemapping knot coordinates either from impulse-cube sweeps or by direct
optimization of model predictions.  The latter is a nonlinear least-squares
problem, solved by one Levenberg-Marquardt call with the exact Jacobian
over the log of the first knot and of the gaps between knots.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares, lsq_linear

from .colorspace import SRGB_LINEAR_BREAK, srgb_decode, srgb_decode3
# Not called here; the benchmark tracer requires this module binding.
from .colorspace import srgb_encode3  # noqa: F401
from .cubelut import (ACTIVE_START, DEFAULT_GRID_SIZE, CubeLUT, KnotGrid,
                      _interpolate, _locate, _separable_outputs, default_knot_grid)
from .display import AchromaticDisplay, ChromaticDisplay
from .errors import (DegenerateDataError, EstimationError, FitError,
                     ValidationError)
from .harness import (MATERIAL_FLOOR, SampleBatch, check_seed,
                      predict_unprocessed)
from .scene import DEFAULT_SCALE_CONSTANT, _post_process

#: Points of the log-spaced grid a refined correction cube is fit on.
REFINE_POINTS = 2048
#: Fewest Lambertian samples the gain regression accepts.
MIN_SCALE_SAMPLES = 100
#: Band of the peak, as fractions, whose points fit an impulse response's
#: flank lines.
APEX_BAND = (0.2, 0.8)
#: Largest sweep output that still counts as no response.
NO_RESPONSE_LEVEL = 1e-6
#: Share of the knot-fit samples held out for scoring.
HOLDOUT_FRACTION = 0.2


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
        if not np.isfinite(self.input_range) or self.input_range <= 0:
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
    ``w`` and ``gamma`` broadcast against ``u``, and a scalar u gives a float."""
    arr = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0):
        raise ValidationError("unprocessed values must be finite and >= 0")
    arg = np.clip((1.0 + w) * arr / r - w, 0.0, 1.0)
    out = srgb_decode(arg ** (1.0 / gamma))
    return float(out) if np.ndim(u) == 0 else out


def gamma_tonemap(spec: GammaCorrectionSpec, u):
    """Exact gamma-correction tonemap of (..., 3) triplets, either display kind."""
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValidationError(f"expected (..., 3) input, got shape {arr.shape}")
    return np.stack([f(arr[..., k]) for k, f in enumerate(spec.channel_tonemaps())],
                    axis=-1)


def _hat_matrix(knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Interpolation weights of each knot output at points x (with the
    clamp-to-active-range semantics of the tonemap)."""
    idx, w = _locate(knots, x)
    mat = np.zeros((x.size, knots.size))
    rows = np.arange(x.size)
    mat[rows, idx] = 1.0 - w
    mat[rows, idx + 1] += w
    return mat


def build_correction_cube(spec: GammaCorrectionSpec, knots: KnotGrid | None = None,
                          refine: bool = False) -> CubeLUT:
    """Gamma-correction cube: per channel, the exact tonemap sampled at the
    active knot coordinates (inactive knots copy the first active value).

    With ``refine``, the per-channel knot outputs are re-fit by bounded
    linear least squares so that the interpolated tonemap tracks the exact
    one over a dense log-spaced grid on [u*_first, r] plus the endpoints
    {0, r}.  Refinement never increases that grid's sum-of-squares error;
    if the solver fails to converge the point-construction cube is returned
    with a warning.
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
        mat = _hat_matrix(active, xs)
        supported = np.flatnonzero(mat.sum(axis=0) > 0)
        frozen = np.setdiff1d(np.arange(active.size), supported)
        targets = _gamma_tonemap(xs, w, gamma, r)
        for c in range(3):
            y = targets[c]
            sse_point = float(np.sum((mat @ curves[c] - y) ** 2))
            y_adj = y - mat[:, frozen] @ curves[c][frozen]
            # bvls is an active-set method: knots pinned at a bound come out
            # exactly 0 or 1, keeping emitted cubes clean.
            res = lsq_linear(mat[:, supported], y_adj, bounds=(0.0, 1.0),
                             method="bvls", tol=1e-14)
            refined = curves[c].copy()
            refined[supported] = res.x
            sse_refined = float(np.sum((mat @ refined - y) ** 2))
            if not res.success or sse_refined > sse_point:
                warnings.warn(f"refinement did not improve channel {c}; "
                              "keeping point construction", stacklevel=2)
            else:
                curves[c] = refined

    full = np.empty((3, grid.size))
    full[:, start:] = curves
    full[:, :start] = curves[:, :1]
    return CubeLUT(_separable_outputs(full), title="gamma correction")


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
        raise DegenerateDataError("all predictions or observations are zero")
    slope = float(np.sum(x * y)) / denom
    if slope <= 0:
        raise DegenerateDataError(f"non-positive regression slope {slope!r}")
    return ScaleEstimate(c=1.0 / slope, slope=slope, n_samples=len(samples),
                         n_channel_points=int(keep.sum()),
                         n_saturated=int((~keep).sum()))


@dataclass(frozen=True, eq=False)
class DeltaSweep:
    """Scalar tonemap response to one impulse cube: (input, output) pairs."""

    m: int
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.inputs, dtype=float)
        t = np.asarray(self.outputs, dtype=float)
        if u.ndim != 1 or u.shape != t.shape or u.size < 4:
            raise ValidationError("sweep needs matching input/output vectors "
                                  "(length >= 4)")
        if np.any(np.diff(u) <= 0):
            raise ValidationError("sweep inputs must be strictly increasing")
        if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
            raise ValidationError("sweep outputs must lie in [0, 1]")
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", np.clip(t, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class DeltaEstimateReport:
    estimates: np.ndarray
    no_response: tuple[int, ...]
    anomalies: dict[int, str] = field(default_factory=dict)


def _sweep_apex(sweep: DeltaSweep) -> tuple[float, str | None]:
    """Apex abscissa of a triangular response via flank-line intersection.

    Falls back to the raw argmax (flagged as an anomaly) when the flanks
    cannot be fit.
    """
    u, t = sweep.inputs, sweep.outputs
    peak = float(t.max())
    near_peak = t >= peak * (1.0 - 1e-9)
    p_first = int(np.argmax(near_peak))
    p_last = int(len(t) - 1 - np.argmax(near_peak[::-1]))

    rising = t[:p_first + 1]
    falling = t[p_last:]
    anomaly = None
    if (np.any(np.diff(rising) < -1e-9 * peak)
            or np.any(np.diff(falling) > 1e-9 * peak)):
        anomaly = "non-unimodal response"

    lo, hi = APEX_BAND[0] * peak, APEX_BAND[1] * peak
    left = np.flatnonzero((t >= lo) & (t <= hi) & (np.arange(t.size) < p_first))
    right = np.flatnonzero((t >= lo) & (t <= hi) & (np.arange(t.size) > p_last))

    if left.size >= 2 and right.size >= 2:
        a1, b1 = np.polyfit(u[left], t[left], 1)
        a2, b2 = np.polyfit(u[right], t[right], 1)
        if a1 - a2 != 0:
            return (b2 - b1) / (a1 - a2), anomaly
    elif left.size < 2 and p_first == 0 and right.size >= 2:
        # Plateau reaches the low end of the sweep (clamped region): the apex
        # is where the falling flank meets the plateau level.
        a2, b2 = np.polyfit(u[right], t[right], 1)
        if a2 != 0:
            return (peak - b2) / a2, anomaly
    elif right.size < 2 and p_last == t.size - 1 and left.size >= 2:
        a1, b1 = np.polyfit(u[left], t[left], 1)
        if a1 != 0:
            return (peak - b1) / a1, anomaly
    return float(u[int(np.argmax(t))]), anomaly or "flank fit failed; used argmax"


def estimate_knots_delta(sweeps) -> tuple[KnotGrid, DeltaEstimateReport]:
    """Estimate the default grid's knot coordinates from impulse-cube sweeps.

    Requires one sweep per active knot index; sweeps for the inactive
    indices are optional and expected to be flat ("no response").
    """
    active = range(ACTIVE_START, DEFAULT_GRID_SIZE + 1)
    by_m = {s.m: s for s in sweeps}
    missing = [m for m in active if m not in by_m]
    if missing:
        raise EstimationError(f"missing sweeps for knot indices {missing}")

    no_response = []
    anomalies: dict[int, str] = {}
    for m in range(1, ACTIVE_START):
        if m in by_m:
            if float(by_m[m].outputs.max()) <= NO_RESPONSE_LEVEL:
                no_response.append(m)
            else:
                anomalies[m] = "unexpected response at inactive knot"

    estimates = np.empty(len(active))
    for m in active:
        sweep = by_m[m]
        if float(sweep.outputs.max()) <= NO_RESPONSE_LEVEL:
            raise EstimationError(f"sweep {m} is flat; cannot estimate its knot")
        apex, anomaly = _sweep_apex(sweep)
        if anomaly:
            anomalies[m] = anomaly
        estimates[m - ACTIVE_START] = apex

    if np.any(np.diff(estimates) <= 0):
        order = np.argsort(estimates, kind="stable")
        if not np.array_equal(order, np.arange(estimates.size)):
            anomalies[0] = "estimates were not monotone in m; sorted"
        estimates = estimates[order]
    try:
        grid = KnotGrid.from_active(estimates)
    except ValidationError as exc:
        raise EstimationError(f"knot estimates are not strictly increasing: {exc}")
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


def _knot_jacobian(knots: np.ndarray, u: np.ndarray, lut: CubeLUT) -> np.ndarray:
    """d/dknots of ``_predict(knots, u, lut).ravel()``, (3N, K).  In a cell of
    width d an axis weight w has dw/dk_lo = (x - k_hi)/d^2 and dw/dk_hi =
    -(x - k_lo)/d^2, or 0 where x is clamped; dt/dw comes from the 8 cell
    corners (a separable cube has only the own-axis term), dv/dt is the
    sRGB encode slope."""
    n, start = lut.size, lut.size - knots.size
    idx, w = _locate(knots, np.clip(u, knots[0], knots[-1]))
    o = np.array([0, 1])
    cell = ((idx[:, 0] + start) * n + idx[:, 1] + start) * n + idx[:, 2] + start
    corners = lut.outputs.reshape(-1, 3).take(  # (2, 2, 2, N, 3)
        cell + ((o[:, None, None] * n + o[:, None]) * n + o)[..., None], axis=0)
    weights = np.stack([1.0 - w, w])  # (2, N, 3)
    dt_dw = np.stack([np.einsum("pqnc,pn,qn->nc", np.diff(corners, axis=a).squeeze(a),
                                *(weights[..., b] for b in range(3) if b != a))
                      for a in range(3)], axis=-1)  # (N, channel, axis)
    t = np.clip(_interpolate(knots, lut, u), 0.0, 1.0)
    dt_dw *= np.where(t <= SRGB_LINEAR_BREAK, 12.92, (1.055 / 2.4) * np.maximum(
        t, SRGB_LINEAR_BREAK) ** (1.0 / 2.4 - 1.0))[..., None]
    lo, hi = knots[idx], knots[idx + 1]
    dw = np.where((u > knots[0]) & (u < knots[-1]), 1.0 / (hi - lo) ** 2, 0.0)
    values = np.tile(dt_dw, 2) * np.hstack([(u - hi) * dw, (lo - u) * dw])[:, None]
    flat = (np.arange(3 * len(u)).reshape(-1, 3, 1) * knots.size
            + np.hstack([idx, idx + 1])[:, None])  # (N, channel, axis and knot)
    return np.bincount(flat.ravel(), values.ravel(),
                       minlength=3 * len(u) * knots.size).reshape(-1, knots.size)


def _knots_from_log_gaps(a: np.ndarray) -> np.ndarray:
    """Knots k_1 = exp(a_0), k_{i+1} = k_i + exp(a_i): increasing by
    construction."""
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
    The fit is one nonlinear least-squares solve of the training prediction
    residuals (``scipy.optimize.least_squares``, Levenberg-Marquardt with
    the exact Jacobian) over the log of the first knot and the log gaps
    between neighbours, so the knots stay strictly increasing without a
    penalty.  ``n_evaluations`` counts residual and Jacobian evaluations
    alike, one pass over the training data each.  ``unsupported_knots``
    (1-based grid indices, as in the knot CSV) and ``notes`` name the knots
    no training residual depends on at the solution; ``notes`` also holds
    the solver's message when it stops without converging.
    """
    if len(datasets) < 2:
        raise EstimationError("need samples under at least 2 distinct cubes")
    if init.active_start != ACTIVE_START:
        raise EstimationError("optimization expects the standard active range")

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
        raise EstimationError("no training samples survive the material filter")
    if 3 * n_train < init.active_values.size:
        raise EstimationError(f"{n_train} training samples give fewer residuals "
                              f"than the {init.active_values.size} knots to fit")

    evaluations = 0
    rows = np.cumsum([0] + [3 * len(u) for u, _, _ in train_sets])

    def residuals(a: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        knots = _knots_from_log_gaps(a)
        return np.concatenate([(_predict(knots, u, lut) - v).ravel()
                               for u, v, lut in train_sets])

    def knot_jacobian(knots: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        jac = np.empty((rows[-1], knots.size))
        for (u, _, lut), lo, hi in zip(train_sets, rows, rows[1:]):
            jac[lo:hi] = _knot_jacobian(knots, u, lut)
        return jac

    def jacobian(a: np.ndarray) -> np.ndarray:
        # k_i = exp(a_0) + ... + exp(a_i), so dk_i/da_j = exp(a_j) for j <= i
        jac = knot_jacobian(_knots_from_log_gaps(a))
        for j in range(a.size - 2, -1, -1):
            jac[:, j] += jac[:, j + 1]
        return np.multiply(jac, np.exp(a), out=jac)

    a0 = np.log(np.concatenate([init.active_values[:1],
                                np.diff(init.active_values)]))
    sse_init = float(np.sum(residuals(a0) ** 2))
    notes: list[str] = []

    if sse_init <= 1e-20:
        a_best, sse_final = a0, sse_init
        converged = True
        notes.append("initial grid already optimal")
    else:
        res = least_squares(residuals, a0, jac=jacobian, method="lm")
        a_best, sse_final = res.x, float(np.sum(res.fun ** 2))
        converged = bool(res.success)
        if not converged:
            notes.append(res.message)

    knots = _knots_from_log_gaps(a_best)
    if np.any(np.diff(knots) <= 0):
        raise EstimationError("optimized knots are not strictly increasing")
    unsupported = tuple((np.flatnonzero(~knot_jacobian(knots).any(axis=0))
                         + init.active_start).tolist())
    if unsupported:
        notes.append("unsupported knots: " + ", ".join(map(str, unsupported)))
    grid = KnotGrid.from_active(knots, size=init.size,
                                active_start=init.active_start)

    def median_err(sets) -> float:
        errs = [np.abs(_predict(knots, u, lut) - v).ravel()
                for u, v, lut in sets]
        return float(np.median(np.concatenate(errs)) * 255.0) if errs else float("nan")

    report = KnotOptimizeReport(
        objective_init=sse_init, objective_final=sse_final,
        n_train=n_train, n_holdout=n_holdout, n_excluded=n_excluded,
        train_median_255=median_err(train_sets),
        holdout_median_255=median_err(holdout_sets),
        n_evaluations=evaluations, converged=converged,
        unsupported_knots=unsupported, notes=tuple(notes))
    return grid, report
