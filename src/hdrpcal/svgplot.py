"""Minimal self-contained SVG scatter plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from ._table import write_rows

_PANEL_W = 420
_PANEL_H = 380
_MARGIN = 52
POINT_RADIUS = 1.6


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(v, lim: tuple[float, float], start: float, span: float) -> np.ndarray:
    """Pixel positions of the data values ``v`` on an axis that maps ``lim``
    onto ``span`` pixels from pixel ``start``, flattened: a view of ``v`` is
    not copied before the arithmetic."""
    v = np.asarray(v, dtype=float)
    lo, hi = lim
    frac = (v - lo) / (hi - lo) if hi > lo else np.full(v.shape, 0.5)
    return (start + frac * span).ravel()


def _panel(file, x_off: int, spec: dict) -> None:
    """Write one panel's SVG elements, one per line: the frame, axis labels
    and limits, then each point set and each line of ``spec``."""
    x0, x1 = x_off + _MARGIN, x_off + _PANEL_W - _MARGIN
    y0, y1 = _PANEL_H - _MARGIN, _MARGIN
    (xlo, xhi), (ylo, yhi) = spec["xlim"], spec["ylim"]

    def pixels(xs, ys):  # SVG y runs down
        return (_scale(xs, spec["xlim"], x0, _PANEL_W - 2 * _MARGIN),
                _scale(ys, spec["ylim"], y0, -(_PANEL_H - 2 * _MARGIN)))

    elems = [
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="#000" stroke-width="1"/>',
        f'<text x="{(x0 + x1) / 2}" y="{y1 - 10}" text-anchor="middle" '
        f'font-size="13">{spec["title"]}</text>',
        f'<text x="{(x0 + x1) / 2}" y="{y0 + 34}" text-anchor="middle" '
        f'font-size="11">{spec["xlabel"]}</text>',
        f'<text x="{x_off + 14}" y="{(y0 + y1) / 2}" text-anchor="middle" '
        f'font-size="11" transform="rotate(-90 {x_off + 14} {(y0 + y1) / 2})">'
        f'{spec["ylabel"]}</text>',
    ]
    for value, pos in ((xlo, x0), (xhi, x1)):
        elems.append(f'<text x="{pos}" y="{y0 + 16}" text-anchor="middle" '
                     f'font-size="10">{_fmt(value)}</text>')
    for value, pos in ((ylo, y0), (yhi, y1)):
        elems.append(f'<text x="{x0 - 6}" y="{pos + 3}" text-anchor="end" '
                     f'font-size="10">{_fmt(value)}</text>')
    file.write("\n".join(elems) + "\n")
    for xs, ys, color in spec["points"]:
        circle = ('<circle cx="%.6g" cy="%.6g" '
                  f'r="{POINT_RADIUS}" fill="{color}" fill-opacity="0.55"/>\n')
        write_rows(file, circle, pixels(xs, ys))
    for xa, ya, xb, yb, color, dash in spec["lines"]:
        (xa, xb), (ya, yb) = pixels((xa, xb), (ya, yb))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        file.write(f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" '
                   f'y2="{_fmt(yb)}" stroke="{color}" stroke-width="1"{dash_attr}/>\n')


def scatter_panels(panels: list[dict], file) -> None:
    """Write side-by-side scatter panels to ``file`` as one SVG.  A panel is
    a dict: ``title``, ``xlabel``, ``ylabel``; ``xlim`` and ``ylim`` as (lo,
    hi); ``points``, a list of (xs, ys, color); and ``lines``, a list of (x0,
    y0, x1, y1, color, dash) with ``dash`` an SVG dash pattern or None."""
    width = _PANEL_W * len(panels)
    file.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">\n'
               '<rect width="100%" height="100%" fill="white"/>\n')
    for k, spec in enumerate(panels):
        _panel(file, k * _PANEL_W, spec)
    file.write("</svg>\n")
