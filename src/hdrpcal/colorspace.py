"""Fixed nonlinearities of the render pipeline.

The pipeline applies the IEC 61966-2-1 sRGB transfer function (a short
linear toe followed by a 2.4-exponent power segment) to material and
directional-light colors, and its inverse to tonemapped values before they
reach the framebuffer.  Framebuffer values are quantized to multiples of
1/255.

All operations are pure, accept scalars or numpy arrays, and raise
:class:`~hdrpcal.errors.ValidationError` on out-of-domain input.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ValidationError

# Encoded-side breakpoint of the piecewise sRGB curve.
SRGB_ENCODED_BREAK = 0.04045
# Linear-side breakpoint, defined as the exact image of the encoded one so
# that encode(decode(x)) == x to machine precision on all of [0, 1].
SRGB_LINEAR_BREAK = SRGB_ENCODED_BREAK / 12.92

CHANNEL_NAMES = ("r", "g", "b")


def _checked(x, op: str, triplet: bool = False, hi: float = 1.0) -> np.ndarray:
    """``x`` as a float array after the one domain check of the package's
    input arrays: finite and within [0, hi] (1 or inf); ``triplet`` also
    requires shape (..., 3) and names the first offending channel.  Every
    message starts with ``op``; input numpy cannot make a float array of
    counts as not finite."""
    arr = _floats(x, op)
    if triplet and arr.shape[-1:] != (3,):
        raise ValidationError(f"{op}: expected shape (..., 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{op}: input must be finite")
    bad = (arr < 0.0) | (arr > hi)
    if np.any(bad):
        if triplet:
            channel = int(np.argmax(np.any(bad.reshape(-1, 3), axis=0)))
            where = f"channel {CHANNEL_NAMES[channel]}"
        else:
            where = f"input {float(arr[bad].flat[0])}"
        raise ValidationError(f"{op}: {where} outside [0, {hi:g}]")
    return arr


def _floats(x, op: str, copy: bool | None = None) -> np.ndarray:
    """``x`` as a float array, a private copy if ``copy``; input numpy cannot
    convert raises :func:`_checked`'s error for non-finite input."""
    try:
        return np.array(x, dtype=float, copy=copy)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{op}: input must be finite") from None


def _finite_number(x, integer: bool = False) -> bool:
    """The one scalar rule: ``x`` is an int, or a float unless ``integer``, of
    finite float value; a numpy scalar counts as its Python value, a bool does not."""
    x = x.item() if isinstance(x, np.generic) else x
    return type(x) in ((int,) if integer else (int, float)) and abs(x) <= sys.float_info.max


def _freeze(obj, **arrays):
    """Store ``arrays`` read-only on ``obj``, a frozen dataclass; return ``obj``."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
    return obj


class _Frozen:
    """Base of the :func:`_freeze` classes: a copied or unpickled object stays read-only."""

    def __setstate__(self, state: dict) -> None:  # where pickle and copy restore an object
        self.__dict__.update(state)
        _freeze(self, **{name: v for name, v in state.items() if isinstance(v, np.ndarray)})


def _decode(arr: np.ndarray) -> np.ndarray:
    """The sRGB decoding formula, without the domain check."""
    return np.where(arr <= SRGB_ENCODED_BREAK,
                    arr / 12.92,
                    ((arr + 0.055) / 1.055) ** 2.4)


def _encode(arr: np.ndarray) -> np.ndarray:
    """The sRGB encoding formula, without the domain check."""
    # The power branch is written so that the fixed point at 1 is exact.
    return np.where(arr <= SRGB_LINEAR_BREAK,
                    arr * 12.92,
                    1.055 * (arr ** (1.0 / 2.4) - 1.0) + 1.0)


def srgb_decode(x):
    """Map an encoded value in [0, 1] to its linear value in [0, 1].

    x/12.92 below the breakpoint 0.04045, ((x + 0.055)/1.055)**2.4 above.
    Monotone increasing with fixed points at 0 and 1.
    """
    out = _decode(_checked(x, "srgb_decode"))
    return float(out) if np.ndim(x) == 0 else out


def srgb_encode(y):
    """Exact functional inverse of :func:`srgb_decode` on [0, 1]."""
    out = _encode(_checked(y, "srgb_encode"))
    return float(out) if np.ndim(y) == 0 else out


def srgb_decode3(t):
    """Componentwise :func:`srgb_decode` over (..., 3) color triplets."""
    return _decode(_checked(t, "srgb_decode3", triplet=True))


def srgb_encode3(t):
    """Componentwise :func:`srgb_encode` over (..., 3) color triplets."""
    return _encode(_checked(t, "srgb_encode3", triplet=True))


def quantize_8bit(t):
    """Round each component to the nearest multiple of 1/255.

    Ties round half away from zero.  The pipeline's actual rounding mode is
    undocumented; this choice matches common rasterizer behavior and is
    idempotent.
    """
    arr = _checked(t, "quantize_8bit", triplet=True)
    return np.floor(arr * 255.0 + 0.5) / 255.0
