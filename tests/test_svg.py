"""SVG chart rendering: array-scaled coordinates equal the per-point formula."""

import numpy as np
import pytest

from bfchart._rows import CHUNK_ROWS
from bfchart.svg import render_chart_svg


def scale_one(value, lo, hi, out_lo, out_hi):
    """The per-point pixel formula: one float in, one float out."""
    span = hi - lo if hi > lo else 1.0
    return float((out_lo + (np.asarray([value], dtype=float) - lo)
                  * (out_hi - out_lo) / span)[0])


def reference_svg(z, center, ucl, lcl, separator=None, title="modified EWMA chart"):
    """The chart document built one point at a time."""
    w, h, margin = 900, 420, 50
    z = np.asarray(z, dtype=float)
    n = max(len(z), 2)
    y_lo = min(float(z.min(initial=lcl)), lcl)
    y_hi = max(float(z.max(initial=ucl)), ucl)
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(t):
        return scale_one(t, 0, n - 1, margin, w - margin)

    def py(v):
        return scale_one(v, y_lo, y_hi, h - margin, margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    for value, dash, color, label in (
        (center, "", "black", "center"),
        (ucl, "4 4", "firebrick", "ucl"),
        (lcl, "4 4", "firebrick", "lcl"),
    ):
        y = py(value)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{w - margin}" y2="{y:.2f}" '
            f'stroke="{color}" stroke-width="1"{dash_attr}/>'
        )
        lines.append(
            f'<text x="{w - margin + 4}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    if separator is not None and 0 < separator < n:
        x = px(separator - 0.5)
        lines.append(
            f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{h - margin}" '
            f'stroke="gray" stroke-width="1"/>'
        )
    if len(z):
        points = " ".join(f"{px(t):.2f},{py(v):.2f}" for t, v in enumerate(z))
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="steelblue" '
            f'stroke-width="1.5"/>'
        )
        for t, v in enumerate(z):
            if v > ucl or v < lcl:
                lines.append(
                    f'<circle cx="{px(t):.2f}" cy="{py(v):.2f}" r="3.5" '
                    f'fill="firebrick"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def test_matches_per_point_formula_with_out_of_limit_points():
    rng = np.random.default_rng(3)
    z = np.cumsum(rng.standard_normal(997)) * 0.05
    z[[10, 400, 401, 990]] = [2.5, -3.1, 4.0, -2.2]
    document = render_chart_svg(z, 0.1, 1.2, -1.0, separator=300)
    assert document.count("<circle") >= 4
    assert document == reference_svg(z, 0.1, 1.2, -1.0, separator=300)


def test_degenerate_inputs_match_per_point_formula():
    for z in (np.empty(0), np.array([0.3]), np.full(5, 2.0)):
        assert render_chart_svg(z, 0.0, 1.0, -1.0) == reference_svg(z, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
def test_polyline_across_chunk_boundaries(n):
    z = np.cumsum(np.random.default_rng(n).standard_normal(n)) * 0.05
    z[-1] = -0.0
    assert render_chart_svg(z, 0.0, 1.0, -1.0, separator=n // 2) == reference_svg(
        z, 0.0, 1.0, -1.0, separator=n // 2
    )


@pytest.mark.parametrize("n", [CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
def test_markers_across_chunk_boundaries(n):
    z = np.random.default_rng(n).uniform(-0.9, 0.9, n)
    edges = sorted({0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1})
    z[edges] = [2.5, -3.0, 1.5, -1.25][:len(edges)]
    document = render_chart_svg(z, 0.0, 1.0, -1.0, separator=7)
    assert document.count("<circle") == len(edges)
    assert document == reference_svg(z, 0.0, 1.0, -1.0, separator=7)


def test_every_point_out_of_limits_and_non_finite_tail():
    n = CHUNK_ROWS + 3
    z = np.where(np.arange(n) % 2, 5.0, -5.0) * np.linspace(1.0, 2.0, n)
    assert render_chart_svg(z, 0.0, 1.0, -1.0).count("<circle") == n
    assert render_chart_svg(z, 0.0, 1.0, -1.0) == reference_svg(z, 0.0, 1.0, -1.0)
    z[-5:] = np.nan
    assert render_chart_svg(z, 0.0, 1.0, -1.0) == reference_svg(z, 0.0, 1.0, -1.0)
