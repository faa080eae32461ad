"""Forward rendering model: rendering equations and post-processing.

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

import numpy as np

from .colorspace import _encode, srgb_decode3
from .errors import ValidationError

#: Default pipeline gain, estimated from rendered samples (see
#: :func:`hdrpcal.calibrate.estimate_scale_constant`).
DEFAULT_SCALE_CONSTANT = 0.822


def lambertian_unprocessed_arrays(m, n, d, i_d, l, a, i_a, e,
                                  scale_constant: float = DEFAULT_SCALE_CONSTANT
                                  ) -> np.ndarray:
    """Lambertian render over (N, 3) / (N,) parameter arrays, for columns
    a :class:`~hdrpcal.harness.SampleBatch` has checked (unit ``n`` and
    ``l``, colors and intensities in range) and a gain > 0."""
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

