"""Synthetic-scene generation, sample I/O, and model validation.

The generator mirrors the random-scene experiment used to probe the real
pipeline: each sample draws a material color, surface orientation, light
colors, intensities and direction, renders the post-processed value through
the in-package pipeline (the synthetic oracle), and records everything.

Samples are held column-wise in a :class:`SampleBatch`; every function
that takes samples takes a batch, and one observation is a one-row batch.
A batch's columns are checked once against the sample contract: by the
constructor, or by :func:`load_samples`, which names the file lines that
break it.  Slices, masks and joins of checked batches are not checked again:

- every field is finite, and ``m`` and ``v`` are in [0, 1];
- on Lambertian rows, ``d`` is in [0, 1], ``a``, ``i_d`` and ``i_a`` are
  >= 0, and ``n`` and ``l`` are unit vectors within
  :data:`INGEST_NORM_TOL`.

Generation is counter-based and deterministic: sample *i* is computed from
its own block of :data:`DRAWS_PER_SAMPLE` uniforms of one Philox stream
keyed by the seed, so it depends only on (seed, *i*) and the first *k*
samples do not depend on the requested count.  Seeds are non-negative
integers.  The generated samples changed once, when generation moved from
one seed sequence per sample to this single stream.

Sample CSV schema (one header line, then one row per sample):

    kind,m_r,m_g,m_b,n_x,n_y,n_z,d_r,d_g,d_b,i_d,l_x,l_y,l_z,
    a_r,a_g,a_b,i_a,e,v_r,v_g,v_b

``kind`` is "lambertian" or "unlit"; unlit rows carry zeros in the lighting
and normal fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import svgplot
from ._table import PROBLEMS, read_table, write_rows
from .colorspace import _Frozen, _checked, _finite_number, _floats, _freeze, quantize_8bit
# Not called here; the benchmark tracer requires this module binding.
from .colorspace import srgb_encode3  # noqa: F401
from .errors import SampleFormatError, ValidationError
from .scene import (DEFAULT_SCALE_CONSTANT, _post_process,
                    lambertian_unprocessed_arrays, post_process,
                    unlit_unprocessed)

SAMPLE_CSV_HEADER = ("kind,m_r,m_g,m_b,n_x,n_y,n_z,d_r,d_g,d_b,i_d,"
                     "l_x,l_y,l_z,a_r,a_g,a_b,i_a,e,v_r,v_g,v_b")

#: Direction from the rendered surface toward the camera; generated normals
#: stay on this hemisphere so the surface faces the viewer.
CAMERA_DIRECTION = np.array([0.0, 0.0, -1.0])

#: Largest accepted distance of a normal or light direction from unit norm.
INGEST_NORM_TOL = 1e-6

#: Samples with any material component below this floor are scored apart
#: (validation) or left out (the knot fit): the rendering model is biased
#: for dark materials.
MATERIAL_FLOOR = 0.2

#: Width of the block of uniforms each generated sample consumes.
DRAWS_PER_SAMPLE = 16

_KINDS = ("lambertian", "unlit")
_TRIPLETS = ("m", "n", "d", "l", "a", "v")
#: Numeric batch columns, in CSV column order.
_ROW_FIELDS = ("m", "n", "d", "i_d", "l", "a", "i_a", "e", "v")
_COLUMNS = ("lambertian", *_ROW_FIELDS)
_CSV_ROW = "%s," + ",".join(["%.17g"] * 21) + "\n"
_REPORT_ROW = "%s," + ",".join(["%.10g"] * 9) + "\n"


@dataclass(frozen=True, eq=False)
class SampleBatch(_Frozen):
    """Recorded observations as columns; row i of every column is sample i.

    ``lambertian`` is the kind mask (False marks an unlit sample).  ``m``,
    ``d`` and ``a`` are the material, directional-light and ambient colors,
    ``n`` and ``l`` the normal and light direction, ``i_d`` and ``i_a`` the
    intensities, ``e`` the exposure and ``v`` the recorded post-processed
    value; triplet columns have shape (N, 3), the others (N,).  The
    constructor copies the columns, checks them against the sample contract
    (see the module docstring) and stores them read-only; a broken row
    raises ``ValidationError("sample {i}: {problem}")``.

    A batch supports ``len``, ``+`` with another batch, and slice or
    boolean-mask indexing (yielding a batch, not checked again).
    """

    lambertian: np.ndarray
    m: np.ndarray
    n: np.ndarray
    d: np.ndarray
    i_d: np.ndarray
    l: np.ndarray
    a: np.ndarray
    i_a: np.ndarray
    e: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lambertian, dtype=bool)
        if lam.ndim != 1:
            raise ValidationError("sample kind mask must be one-dimensional")
        columns = {"lambertian": lam}
        for name in _ROW_FIELDS:
            arr = np.array(getattr(self, name), dtype=float)
            shape = (lam.size, 3) if name in _TRIPLETS else (lam.size,)
            if arr.shape != shape:
                raise ValidationError(f"sample column {name}: expected shape "
                                      f"{shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"sample column {name} must be finite")
            columns[name] = arr
        problems = _sample_problems(**columns)
        if problems.any():
            i, k = divmod(int(np.argmax(problems)), problems.shape[1])
            raise ValidationError(f"sample {i}: {_ROW_PROBLEMS[4 + k]}")
        _freeze(self, **columns)

    @property
    def kinds(self) -> np.ndarray:
        """Kind name of each sample."""
        return np.where(self.lambertian, *_KINDS)

    def __len__(self) -> int:
        return self.lambertian.size

    __iter__ = None  # a batch has no row objects

    def __getitem__(self, key) -> SampleBatch:
        if isinstance(key, (int, np.integer)):
            raise TypeError("index a SampleBatch by slice or boolean mask, not integer")
        rows = np.arange(len(self))[key]  # a key picks rows; each column keeps its shape
        if rows.ndim != 1:
            raise ValidationError("sample kind mask must be one-dimensional")
        return _freeze(object.__new__(SampleBatch),
                       **{name: getattr(self, name)[rows] for name in _COLUMNS})

    def __add__(self, other: SampleBatch) -> SampleBatch:
        return _freeze(object.__new__(SampleBatch),
                       **{name: np.concatenate([getattr(self, name), getattr(other, name)])
                          for name in _COLUMNS})


def check_seed(seed) -> int:
    """``seed`` as an int; a seed is an int >= 0, a numpy integer counts and a bool does not."""
    if not _finite_number(seed, integer=True) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def predict_unprocessed(samples: SampleBatch,
                        scale_constant: float = DEFAULT_SCALE_CONSTANT) -> np.ndarray:
    """Unprocessed values implied by each sample's scene parameters."""
    if not _finite_number(scale_constant) or scale_constant <= 0:
        raise ValidationError("scale constant must be > 0")
    lam = samples.lambertian
    u = np.zeros_like(samples.m)
    if np.any(lam):
        # The render takes the scene columns in CSV order (all but v).
        u[lam] = lambertian_unprocessed_arrays(
            *(getattr(samples, name)[lam] for name in _ROW_FIELDS[:-1]),
            scale_constant=scale_constant)
    if not np.all(lam):
        u[~lam] = unlit_unprocessed(samples.m[~lam])
    return u


def predict_values(samples: SampleBatch, tonemap=None,
                   scale_constant: float = DEFAULT_SCALE_CONSTANT,
                   quantize: bool = False) -> np.ndarray:
    """Post-processed values implied by the full model for each sample;
    ``tonemap`` is as in :func:`hdrpcal.scene.post_process`."""
    u = predict_unprocessed(samples, scale_constant)
    v = _post_process(u, None if tonemap is None else tonemap.apply)
    return quantize_8bit(v) if quantize else v


def _sphere(z_draw: np.ndarray, phi_draw: np.ndarray) -> np.ndarray:
    """Unit vectors uniform on the sphere, from two uniforms each."""
    z = 2.0 * z_draw - 1.0
    phi = 2.0 * np.pi * phi_draw
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def generate_samples(count: int, seed: int, kind: str = "lambertian",
                     tonemap=None, quantize: bool = False,
                     scale_constant: float = DEFAULT_SCALE_CONSTANT,
                     *, ambient_color_max: float = 1.0,
                     directional_intensity_range: tuple[float, float] = (0.0, 2.0),
                     ambient_intensity_range: tuple[float, float] = (0.0, 2.0),
                     exposure_choices=(0.0,)) -> SampleBatch:
    """Generate ``count`` random scene samples, rendered by the model itself.

    Material and directional-light colors are uniform on [0, 1]^3; the
    ambient color is uniform on [0, ambient_color_max]^3; intensities are
    uniform on the given ranges; directions are uniform on the unit sphere
    (normals restricted to the camera-facing hemisphere); the exposure is
    drawn from ``exposure_choices``.  Sample i depends only on the
    arguments other than ``count`` and on its own block of
    :data:`DRAWS_PER_SAMPLE` uniforms from one Philox stream seeded by
    ``seed``, a non-negative integer.
    """
    if not _finite_number(count, integer=True) or count < 1:
        raise ValidationError("count must be >= 1")
    if kind not in _KINDS:
        raise ValidationError(f"unknown material kind {kind!r}")
    for name, rng_pair in (("directional", directional_intensity_range),
                           ("ambient", ambient_intensity_range)):
        if not (all(map(_finite_number, rng_pair)) and 0 <= rng_pair[0] <= rng_pair[1]):
            raise ValidationError(f"invalid {name} intensity range {rng_pair}")
    if not _finite_number(ambient_color_max) or ambient_color_max < 0:
        raise ValidationError("ambient_color_max must be >= 0")
    choices = _floats(exposure_choices, "exposure_choices")
    if choices.ndim != 1 or not np.all(np.isfinite(choices)):
        raise ValidationError("exposure_choices must be a finite 1-D array")
    if not choices.size:
        raise ValidationError("exposure_choices must be nonempty")
    rng = np.random.Generator(np.random.Philox(check_seed(seed)))
    draws = rng.random((count, DRAWS_PER_SAMPLE))

    zeros, zeros3 = np.zeros(count), np.zeros((count, 3))
    if kind == "unlit":
        cols = dict(n=zeros3, d=zeros3, i_d=zeros, l=zeros3, a=zeros3,
                    i_a=zeros, e=zeros)
    else:
        n = _sphere(draws[:, 3], draws[:, 4])
        n[n @ CAMERA_DIRECTION < 0] *= -1.0
        d_lo, d_hi = directional_intensity_range
        a_lo, a_hi = ambient_intensity_range
        pick = np.minimum((draws[:, 15] * choices.size).astype(int),
                          choices.size - 1)
        cols = dict(n=n, d=draws[:, 5:8], i_d=d_lo + (d_hi - d_lo) * draws[:, 8],
                    l=_sphere(draws[:, 9], draws[:, 10]),
                    a=ambient_color_max * draws[:, 11:14],
                    i_a=a_lo + (a_hi - a_lo) * draws[:, 14], e=choices[pick])
    cols.update(lambertian=np.full(count, kind == "lambertian"), m=draws[:, 0:3])
    v = predict_values(_freeze(object.__new__(SampleBatch), **cols), tonemap=tonemap,
                       scale_constant=scale_constant, quantize=quantize)
    return SampleBatch(v=v, **cols)


def save_samples(samples: SampleBatch, file) -> None:
    """Write samples in the CSV schema; floats keep full precision."""
    file.write(SAMPLE_CSV_HEADER + "\n")
    write_rows(file, _CSV_ROW, [getattr(samples, name) for name in _ROW_FIELDS],
               samples.kinds)


#: Row problems in per-row precedence order: a rejected row reports the
#: first one that applies.  The ones from ``PROBLEMS`` are found by
#: ``read_table``, which also words them.
_ROW_PROBLEMS = (
    PROBLEMS[1],
    PROBLEMS[2],
    "unknown kind {kind!r}",
    PROBLEMS[3],
    "material color outside [0, 1]",
    "post-processed value outside [0, 1]",
    "non-unit normal",
    "non-unit light direction",
    "light color outside [0, 1]",
    "negative light parameters",
)


def _sample_problems(lambertian, m, n, d, i_d, l, a, i_a, e, v) -> np.ndarray:
    """The sample contract: one boolean column per problem in
    ``_ROW_PROBLEMS[4:]``, true where a row breaks that rule (``e`` has no
    rule beyond being finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        n_off, l_off = (np.abs(np.linalg.norm(x, axis=1) - 1.0) > INGEST_NORM_TOL
                        for x in (n, l))

    def outside_unit(x):
        return np.any((x < 0) | (x > 1), axis=1)

    return np.column_stack([
        outside_unit(m),
        outside_unit(v),
        lambertian & n_off,
        lambertian & l_off,
        lambertian & outside_unit(d),
        lambertian & (np.any(a < 0, axis=1) | (i_d < 0) | (i_a < 0)),
    ])


def load_samples(file) -> SampleBatch:
    """Read and validate samples; raises with offending line numbers.

    Ingested unit vectors are accepted within 1e-6 of unit norm (text
    round-tripping from external engines loses precision) and renormalized.
    """
    (floats, kinds), problem, explain = read_table(
        file, SAMPLE_CSV_HEADER, "s" + "f" * 21, "sample CSV", SampleFormatError)
    lam = kinds == "lambertian"
    ends = np.cumsum([3 if name in _TRIPLETS else 1 for name in _ROW_FIELDS]).tolist()
    columns = {"lambertian": lam} | {  # views of the one float block
        name: floats[:, end - 3:end] if name in _TRIPLETS else floats[:, end - 1]
        for name, end in zip(_ROW_FIELDS, ends)}
    checks = np.column_stack([  # one column per _ROW_PROBLEMS entry
        problem == 1,
        problem == 2,
        ~lam & (kinds != "unlit"),
        problem == 3,
        _sample_problems(**columns),
    ])
    rejected = np.flatnonzero(np.any(checks, axis=1))
    if rejected.size:
        first = np.argmax(checks, axis=1)
        located = explain(rejected)
        detail = "; ".join(
            f"line {line}: " + (text if _ROW_PROBLEMS[first[i]] in PROBLEMS
                                else _ROW_PROBLEMS[first[i]].format(kind=kinds[i]))
            for i, (line, text) in zip(rejected[:5], located))
        raise SampleFormatError(
            f"rejected {rejected.size} sample row(s): {detail}",
            rows=tuple(line for line, _ in located))

    # Renormalize only when the text actually lost precision, so saved
    # samples round-trip bit for bit.  Unlit rows may hold any finite vectors.
    with np.errstate(over="ignore"):
        for vec in (columns["n"], columns["l"]):
            norm = np.linalg.norm(vec, axis=1)
            off = lam & (np.abs(norm - 1.0) > 1e-12)
            vec[off] /= norm[off, None]
    floats.setflags(write=False)
    return _freeze(object.__new__(SampleBatch), **columns)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Per-sample prediction errors and the pooled summary statistics.

    ``median_abs_255`` is the median of |predicted - actual| over all
    channels of all samples, expressed as a multiple of 1/255; the filtered
    variant excludes samples with any material component below the floor.
    """

    kinds: np.ndarray
    material: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray
    errors: np.ndarray
    median_abs_255: float
    filtered_median_abs_255: float
    n_excluded: int
    material_floor: float
    association: np.ndarray  # rows of (bin_low, bin_high, n, median_abs_255)

    def to_csv(self, file) -> None:
        file.write("kind,pred_r,pred_g,pred_b,actual_r,actual_g,actual_b,"
                   "err_r,err_g,err_b\n")
        write_rows(file, _REPORT_ROW, [self.predicted, self.actual, self.errors],
                   self.kinds)
        file.write(f"# median_abs_error_255 = {self.median_abs_255:.10g}\n")
        file.write(f"# filtered_median_abs_error_255 = "
                   f"{self.filtered_median_abs_255:.10g}\n")
        file.write(f"# excluded_by_material_floor = {self.n_excluded}\n")
        file.write(f"# material_floor = {self.material_floor:.10g}\n")

    def to_svg(self, file) -> None:
        actual, predicted, errors = self.actual, self.predicted, self.errors
        guide = 1.0 / 255.0
        err_span = max(float(np.max(np.abs(errors))), guide) * 1.15
        svgplot.scatter_panels([
            {"title": "predicted vs actual", "xlabel": "actual v",
             "ylabel": "predicted v", "xlim": (0.0, 1.0), "ylim": (0.0, 1.0),
             "points": [(actual, predicted, "#1f6fb4")],
             "lines": [(0.0, 0.0, 1.0, 1.0, "#333", None)]},
            {"title": "prediction error", "xlabel": "actual v",
             "ylabel": "predicted - actual", "xlim": (0.0, 1.0),
             "ylim": (-err_span, err_span),
             "points": [(actual, errors, "#b43a1f")],
             "lines": [(0.0, guide, 1.0, guide, "#555", "4 3"),
                       (0.0, -guide, 1.0, -guide, "#555", "4 3"),
                       (0.0, 0.0, 1.0, 0.0, "#333", None)]},
        ], file)


def validate_model(samples: SampleBatch, tonemap=None,
                   scale_constant: float = DEFAULT_SCALE_CONSTANT,
                   quantize: bool = False,
                   material_floor: float = MATERIAL_FLOOR) -> ValidationReport:
    """Compare model predictions against recorded sample values."""
    if not len(samples):
        raise ValidationError("validate_model needs at least one sample")
    predicted = predict_values(samples, tonemap=tonemap,
                               scale_constant=scale_constant, quantize=quantize)
    errors = predicted - samples.v
    median = float(np.median(np.abs(errors)) * 255.0)
    keep = np.all(samples.m >= material_floor, axis=1)
    n_excluded = int(np.sum(~keep))
    filtered = (float(np.median(np.abs(errors[keep])) * 255.0)
                if np.any(keep) else float("nan"))

    edges = np.linspace(0.0, 1.0, 11)
    assoc = []
    m_flat = samples.m.ravel()
    err_flat = np.abs(errors).ravel()
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (m_flat >= lo) & (m_flat < hi if hi < 1.0 else m_flat <= hi)
        assoc.append([lo, hi, int(mask.sum()),
                      float(np.median(err_flat[mask]) * 255.0) if mask.any()
                      else float("nan")])
    return ValidationReport(kinds=samples.kinds, material=samples.m,
                            predicted=predicted, actual=samples.v, errors=errors,
                            median_abs_255=median,
                            filtered_median_abs_255=filtered,
                            n_excluded=n_excluded, material_floor=material_floor,
                            association=np.array(assoc))


def simulate_characterization(display, levels, tonemap=None,
                              mode: str = "achromatic"):
    """In-silico characterization: drive unprocessed levels through the
    pipeline and read the modeled display output.

    Achromatic mode shows u = (x, x, x) per level and reads luminance;
    chromatic mode ramps each channel separately and reads XYZ.  Returns
    the arrays ``(u, v, readings)``: the (N, 3) unprocessed and
    post-processed triplets and the readings, luminance (N,) or XYZ (N, 3).
    """
    levels = _checked(levels, "simulate_characterization", hi=np.inf)
    if levels.ndim != 1:
        raise ValidationError("simulate_characterization: expected 1-D levels, "
                              f"got shape {levels.shape}")
    if mode == "achromatic":
        u = np.repeat(levels[:, None], 3, axis=1)
    elif mode == "chromatic":
        u = (np.eye(3)[:, None, :] * levels[:, None]).reshape(-1, 3)
    else:
        raise ValidationError(f"unknown characterization mode {mode!r}")
    v = post_process(u, tonemap)
    return u, v, (display.luminance(v[:, 0]) if mode == "achromatic"
                  else display.xyz(v))
