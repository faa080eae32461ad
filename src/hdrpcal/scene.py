"""Forward rendering model: materials, lights, and post-processing.

A Lambertian surface under one directional and one ambient light renders to
unprocessed values

    u_k = c * s(m_k) * (i_d * s(d_k) * max(cos theta, 0) / pi + i_a * a_k) / 2**e

where ``s`` is the sRGB transfer function (:func:`hdrpcal.colorspace.srgb_decode`),
``cos theta = l . n``, ``e`` is the exposure and ``c`` the empirically fitted
pipeline gain.  An unlit material renders to u_k = s(m_k) regardless of
lighting and exposure.  Post-processing maps unprocessed values through a
tonemap ``f`` and the inverse transfer function: v = s^-1(f(u)); with
tonemapping disabled ``f`` is the identity clamped to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colorspace import _encode, quantize_8bit, srgb_decode3
from .errors import ValidationError

#: Default pipeline gain, estimated from rendered samples (see
#: :func:`hdrpcal.calibrate.estimate_scale_constant`).
DEFAULT_SCALE_CONSTANT = 0.822

UNIT_NORM_TOL = 1e-9


def _triplet(x, name: str, lo: float | None = None,
             hi: float | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{name}: expected 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: components must be finite")
    if lo is not None and np.any(arr < lo):
        raise ValidationError(f"{name}: component below {lo}")
    if hi is not None and np.any(arr > hi):
        raise ValidationError(f"{name}: component above {hi}")
    return arr


def _unit_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValidationError(f"{name}: expected a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not np.isfinite(norm) or abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(f"{name}: must be a unit vector (norm {norm!r})")
    return arr


@dataclass(frozen=True, eq=False)
class DirectionalLight:
    """Directional source; ``direction`` points toward the light."""

    color: np.ndarray
    intensity: float
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "color", _triplet(self.color, "light color", 0.0, 1.0))
        object.__setattr__(self, "direction", _unit_vector(self.direction, "light direction"))
        if not np.isfinite(self.intensity) or self.intensity < 0:
            raise ValidationError("directional intensity must be >= 0")


@dataclass(frozen=True, eq=False)
class AmbientLight:
    """Uniform source; color components are unbounded above."""

    color: np.ndarray
    intensity: float

    def __post_init__(self):
        object.__setattr__(self, "color", _triplet(self.color, "ambient color", 0.0))
        if not np.isfinite(self.intensity) or self.intensity < 0:
            raise ValidationError("ambient intensity must be >= 0")


@dataclass(frozen=True)
class RenderContext:
    """Exposure and pipeline gain shared by all Lambertian renders.

    The gain defaults to the fitted 0.822 but stays configurable because it
    is an empirical constant of the engine version, not a law.
    """

    exposure: float = 0.0
    scale_constant: float = DEFAULT_SCALE_CONSTANT

    def __post_init__(self):
        if not np.isfinite(self.exposure):
            raise ValidationError("exposure must be finite")
        if not np.isfinite(self.scale_constant) or self.scale_constant <= 0:
            raise ValidationError("scale constant must be > 0")


def lambertian_unprocessed(material, normal, light: DirectionalLight,
                           ambient: AmbientLight,
                           context: RenderContext | None = None) -> np.ndarray:
    """Unprocessed value of a Lambertian surface under both light sources;
    checks its arguments, then renders with
    :func:`lambertian_unprocessed_arrays`."""
    ctx = context if context is not None else RenderContext()
    return lambertian_unprocessed_arrays(
        _triplet(material, "material", 0.0, 1.0), _unit_vector(normal, "normal"),
        light.color, light.intensity, light.direction, ambient.color,
        ambient.intensity, ctx.exposure, scale_constant=ctx.scale_constant)


def lambertian_unprocessed_arrays(m, n, d, i_d, l, a, i_a, e,
                                  scale_constant: float = DEFAULT_SCALE_CONSTANT,
                                  norm_tol: float = UNIT_NORM_TOL) -> np.ndarray:
    """Vectorized Lambertian render over (N, 3) / (N,) parameter arrays."""
    m = np.asarray(m, float)
    n = np.asarray(n, float)
    d = np.asarray(d, float)
    l = np.asarray(l, float)
    a = np.asarray(a, float)
    i_d = np.asarray(i_d, float)
    i_a = np.asarray(i_a, float)
    e = np.asarray(e, float)
    for vec, name in ((n, "normal"), (l, "light direction")):
        norms = np.linalg.norm(vec, axis=-1)
        if np.any(np.abs(norms - 1.0) > norm_tol):
            raise ValidationError(f"{name}: non-unit vector in batch")
    cos_theta = np.maximum(np.einsum("...i,...i->...", l, n), 0.0)
    direct = i_d[..., None] * srgb_decode3(d) * cos_theta[..., None] / np.pi
    return (scale_constant * srgb_decode3(m) *
            (direct + i_a[..., None] * a) / 2.0 ** e[..., None])


def unlit_unprocessed(m) -> np.ndarray:
    """Unprocessed value of an unlit material: u = s(m), lighting ignored."""
    return srgb_decode3(np.asarray(m, dtype=float))


def light_direction_from_rotation(x_deg: float, y_deg: float,
                                  z_deg: float = 0.0) -> np.ndarray:
    """Lighting direction implied by the editor's Euler rotation parameters.

    With all rotations zero the light travels toward +z, so the direction
    *toward* the source is (0, 0, -1).  The z rotation never affects the
    result.  Angles are in degrees, matching the editor fields.
    """
    if not (np.isfinite(x_deg) and np.isfinite(y_deg) and np.isfinite(z_deg)):
        raise ValidationError("rotation angles must be finite")
    x = np.radians(x_deg)
    y = np.radians(y_deg)
    return np.array([-np.cos(x) * np.sin(y), np.sin(x), -np.cos(x) * np.cos(y)])


def post_process(u, tonemap=None) -> np.ndarray:
    """Map unprocessed values to post-processed values: v = s^-1(f(u)).

    ``tonemap`` is any object with an ``apply`` method mapping (..., 3)
    arrays in [0, inf) to [0, 1], such as a
    :class:`~hdrpcal.cubelut.CubeTonemap`; ``None`` disables tonemapping,
    making f the identity clamped to the displayable range [0, 1].
    """
    arr = np.asarray(u, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValidationError(f"expected (..., 3) unprocessed values, "
                              f"got shape {arr.shape}")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValidationError("unprocessed values must be finite and >= 0")
    return _post_process(arr, None if tonemap is None else tonemap.apply)


def _post_process(u: np.ndarray, f=None) -> np.ndarray:
    """v = s^-1(clip(f(u))) for ``u`` its callers have checked; ``f`` maps
    (N, 3) arrays to tonemapped values and None is the clamped identity."""
    t = np.clip(u, 0.0, 1.0) if f is None else np.asarray(f(u), dtype=float)
    # Rounding slack is clamped; NaN fails this test too.
    if not np.all((t >= -1e-12) & (t <= 1.0 + 1e-12)):
        raise ValidationError("tonemap output outside [0, 1]")
    return _encode(np.clip(t, 0.0, 1.0))


def render(kind: str, *, material, normal=None, light: DirectionalLight | None = None,
           ambient: AmbientLight | None = None, context: RenderContext | None = None,
           tonemap=None, quantize: bool = False) -> np.ndarray:
    """Full pipeline for one observation: unprocessed -> tonemap -> v.

    ``kind`` is "lambertian" or "unlit".  With ``quantize`` the result is
    rounded to 8-bit framebuffer precision.
    """
    if kind == "lambertian":
        if normal is None or light is None or ambient is None:
            raise ValidationError("lambertian render needs normal, light and ambient")
        u = lambertian_unprocessed(material, normal, light, ambient, context)
    elif kind == "unlit":
        u = unlit_unprocessed(_triplet(material, "material", 0.0, 1.0))
    else:
        raise ValidationError(f"unknown material kind {kind!r}")
    v = post_process(u, tonemap)
    return quantize_8bit(v) if quantize else v
