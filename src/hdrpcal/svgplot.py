"""Minimal self-contained SVG scatter plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from ._table import format_floats

_PANEL_W = 420
_PANEL_H = 380
_MARGIN = 52
POINT_RADIUS = 1.6


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Panel:
    def __init__(self, x_off: int, title: str, xlabel: str, ylabel: str,
                 xlim: tuple[float, float], ylim: tuple[float, float]):
        self.x_off = x_off
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlim = xlim
        self.ylim = ylim
        self.elems: list[str] = []

    def _sx(self, x):
        lo, hi = self.xlim
        frac = (x - lo) / (hi - lo) if hi > lo else np.full(np.shape(x), 0.5)
        return self.x_off + _MARGIN + frac * (_PANEL_W - 2 * _MARGIN)

    def _sy(self, y):
        lo, hi = self.ylim
        frac = (y - lo) / (hi - lo) if hi > lo else np.full(np.shape(y), 0.5)
        return _PANEL_H - _MARGIN - frac * (_PANEL_H - 2 * _MARGIN)

    def points(self, xs, ys, color: str = "#1f6fb4"):
        cx, cy = format_floats([self._sx(np.asarray(xs, dtype=float).ravel()),
                                self._sy(np.asarray(ys, dtype=float).ravel())], ".6g")
        tail = f'" r="{POINT_RADIUS}" fill="{color}" fill-opacity="0.55"/>'
        self.elems.extend(('<circle cx="' + cx + '" cy="' + cy + tail).tolist())

    def line(self, x0, y0, x1, y1, color: str = "#333", dash: str | None = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elems.append(
            f'<line x1="{_fmt(self._sx(x0))}" y1="{_fmt(self._sy(y0))}" '
            f'x2="{_fmt(self._sx(x1))}" y2="{_fmt(self._sy(y1))}" '
            f'stroke="{color}" stroke-width="1"{dash_attr}/>')

    def render(self) -> str:
        x0, x1 = self.x_off + _MARGIN, self.x_off + _PANEL_W - _MARGIN
        y0, y1 = _PANEL_H - _MARGIN, _MARGIN
        frame = [
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            'fill="none" stroke="#000" stroke-width="1"/>',
            f'<text x="{(x0 + x1) / 2}" y="{y1 - 10}" text-anchor="middle" '
            f'font-size="13">{self.title}</text>',
            f'<text x="{(x0 + x1) / 2}" y="{y0 + 34}" text-anchor="middle" '
            f'font-size="11">{self.xlabel}</text>',
            f'<text x="{self.x_off + 14}" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'font-size="11" transform="rotate(-90 {self.x_off + 14} {(y0 + y1) / 2})">'
            f'{self.ylabel}</text>',
        ]
        for value, pos in ((self.xlim[0], x0), (self.xlim[1], x1)):
            frame.append(f'<text x="{pos}" y="{y0 + 16}" text-anchor="middle" '
                         f'font-size="10">{_fmt(value)}</text>')
        for value, pos in ((self.ylim[0], y0), (self.ylim[1], y1)):
            frame.append(f'<text x="{x0 - 6}" y="{pos + 3}" text-anchor="end" '
                         f'font-size="10">{_fmt(value)}</text>')
        return "\n".join(frame + self.elems)


def scatter_panels(panels: list[_Panel], file) -> None:
    width = _PANEL_W * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
             '<rect width="100%" height="100%" fill="white"/>']
    parts.extend(p.render() for p in panels)
    parts.append("</svg>")
    file.write("\n".join(parts) + "\n")


def make_panel(index: int, title: str, xlabel: str, ylabel: str,
               xlim: tuple[float, float], ylim: tuple[float, float]) -> _Panel:
    return _Panel(index * _PANEL_W, title, xlabel, ylabel, xlim, ylim)
