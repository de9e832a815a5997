"""Minimal SVG rendering of a control chart.

One polyline for the EWMA trajectory, a solid center line, dotted control
limits, and an optional vertical separator between the fitting and
monitoring segments.  Kept dependency-free on purpose; the output is a
static display, not an interactive plot.

Of the points in each pixel column the polyline keeps the first, last,
lowest and highest (M4: Jugel, Jerzak, Hackenbroich & Markl 2014, the same
line as the full series at that width) and every non-finite one; a marker
sits on each kept point out of the limits.
"""

from __future__ import annotations

import numpy as np

_W, _H = 900, 420
_MARGIN = 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=float) - lo) * (out_hi - out_lo) / span


def _m4_vertices(z: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Indices, in time order, of the first, last, lowest and highest point
    of each run of equal ``columns`` (which do not decrease), and of every
    non-finite point; of tied points the earliest."""
    first = np.diff(columns, prepend=columns[0] - 1) != 0
    run = np.cumsum(first) - 1
    finite = np.isfinite(z)
    keep = first | np.append(first[1:], True) | ~finite
    starts = np.flatnonzero(first)
    for extreme, fill in ((np.minimum, np.inf), (np.maximum, -np.inf)):
        values = np.where(finite, z, fill)
        hits = np.flatnonzero(values == extreme.reduceat(values, starts)[run])
        keep[hits[np.diff(run[hits], prepend=-1) != 0]] = True
    return np.flatnonzero(keep)


def render_chart_svg(
    z,
    center: float,
    ucl: float,
    lcl: float,
    separator: int | None = None,
) -> str:
    """Return the SVG document for an EWMA series with its limits."""
    z = np.asarray(z, dtype=float)
    n = max(len(z), 2)
    finite = z[np.isfinite(z)]
    y_lo = float(finite.min(initial=lcl))
    y_hi = float(finite.max(initial=ucl))
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
        f'font-family="sans-serif" font-size="15">modified EWMA chart</text>',
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
        xs = px(np.arange(len(z)))
        t = _m4_vertices(z, np.floor(xs).astype(np.int64))
        # x, y of each kept point in turn; one % call formats them all, as
        # format(v, ".2f") formats each
        xy = np.column_stack([xs[t], py(z[t])])
        points = "%.2f,%.2f " * len(t) % tuple(xy.ravel().tolist())
        lines.append(
            f'<polyline points="{points[:-1]}" fill="none" stroke="steelblue" '
            f'stroke-width="1.5"/>'
        )
        out = xy[(z[t] > ucl) | (z[t] < lcl)]
        if len(out):
            marker = '<circle cx="%.2f" cy="%.2f" r="3.5" fill="firebrick"/>\n'
            lines.append((marker * len(out) % tuple(out.ravel().tolist()))[:-1])
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
