"""Minimal SVG rendering of a control chart.

One polyline for the EWMA trajectory, a solid center line, dotted control
limits, and an optional vertical separator between the fitting and
monitoring segments.  Kept dependency-free on purpose; the output is a
static display, not an interactive plot.
"""

from __future__ import annotations

import numpy as np

from ._rows import CHUNK_ROWS, format_rows

_W, _H = 900, 420
_MARGIN = 50
#: the text around the "x" and "y" of a marker for an out-of-limit point
_MARKER = ('<circle cx="', '" cy="', '" r="3.5" fill="firebrick"/>')


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def render_chart_svg(
    z,
    center: float,
    ucl: float,
    lcl: float,
    separator: int | None = None,
    title: str = "modified EWMA chart",
) -> str:
    """Return the SVG document for an EWMA series with its limits."""
    z = np.asarray(z, dtype=float)
    n = max(len(z), 2)
    y_lo = min(float(z.min(initial=lcl)), lcl)
    y_hi = max(float(z.max(initial=ucl)), ucl)
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(t):
        return _scale(t, 0, n - 1, _MARGIN, _W - _MARGIN)

    def py(v):
        return _scale(v, y_lo, y_hi, _H - _MARGIN, _MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for value, dash, color, label in (
        (center, "", "black", "center"),
        (ucl, "4 4", "firebrick", "ucl"),
        (lcl, "4 4", "firebrick", "lcl"),
    ):
        y = float(py(value))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(
            f'<line x1="{_MARGIN}" y1="{y:.2f}" x2="{_W - _MARGIN}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="1"{dash_attr}/>'
        )
        lines.append(
            f'<text x="{_W - _MARGIN + 4}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    if separator is not None and 0 < separator < n:
        x = float(px(separator - 0.5))
        lines.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN}" x2="{x:.2f}" y2="{_H - _MARGIN}" '
            f'stroke="gray" stroke-width="1"/>'
        )
    if len(z):
        # formatted a chunk at a time: lists of all the coordinates would
        # raise the peak memory of a long chart.  A marker copies the text of
        # its polyline point, so a chart with many points out of the limits
        # costs little more than one with few.
        xs, ys = px(np.arange(len(z))), py(z)
        out = (z > ucl) | (z < lcl)
        points, markers = [], []
        for start in range(0, len(z), CHUNK_ROWS):
            chunk = slice(start, start + CHUNK_ROWS)
            piece = "".join(format_rows("%.2f,%.2f", " ", (xs[chunk], ys[chunk])))
            points.append(piece)
            hits = np.flatnonzero(out[chunk]).tolist()
            if hits:
                # each "x,y" of the polyline becomes the middle of a marker
                head, mid, tail = _MARKER
                pairs = piece.split(" ")
                middles = (tail + "\n" + head).join([pairs[i] for i in hits])
                markers.append(head + middles.replace(",", mid) + tail)
        lines.append(
            f'<polyline points="{" ".join(points)}" fill="none" stroke="steelblue" '
            f'stroke-width="1.5"/>'
        )
        lines += markers
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
