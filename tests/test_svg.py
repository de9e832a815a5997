"""SVG chart rendering against the per-point formula.

A chart of at most two points a pixel column draws every point, byte for
byte as the per-point reference writes it.  A longer one draws, in each
pixel column, the column's first, last, lowest and highest point (M4),
each with its per-point text, and a marker on each drawn point out of the
limits; ``assert_draws_m4`` checks that against the full series.
"""

import itertools
import math
import re

import numpy as np
import pytest

from bfchart._rows import CHUNK_ROWS
from bfchart.svg import render_chart_svg


def scale_one(value, lo, hi, out_lo, out_hi):
    """The per-point pixel formula: one float in, one float out."""
    span = hi - lo if hi > lo else 1.0
    return float((out_lo + (np.asarray([value], dtype=float) - lo)
                  * (out_hi - out_lo) / span)[0])


def pixel_scales(z, ucl, lcl, w=900, h=420, margin=50):
    """The per-point x and y pixel formulas of a chart of ``z``; the y range
    spans the limits and the finite points."""
    n = max(len(z), 2)
    finite = [v for v in np.asarray(z, dtype=float).tolist() if math.isfinite(v)]
    y_lo = min([lcl, *finite])
    y_hi = max([ucl, *finite])
    pad = 0.08 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(t):
        return scale_one(t, 0, n - 1, margin, w - margin)

    def py(v):
        return scale_one(v, y_lo, y_hi, h - margin, margin)

    return px, py


def reference_svg(z, center, ucl, lcl, separator=None, title="modified EWMA chart",
                  draw_points=True):
    """The chart document built one point at a time, every point drawn
    (or none, without ``draw_points``)."""
    w, h, margin = 900, 420, 50
    z = np.asarray(z, dtype=float)
    n = max(len(z), 2)
    px, py = pixel_scales(z, ucl, lcl)
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
    if len(z) and draw_points:
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


def drawn(document):
    """The (x, y) text of each polyline vertex and of each marker."""
    points = re.search(r'<polyline points="([^"]*)"', document)
    vertices = [tuple(p.split(",")) for p in points.group(1).split(" ")] if points else []
    markers = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="3.5"', document)
    return vertices, markers


def assert_draws_m4(document, z, center, ucl, lcl, separator=None):
    """Everything but the points is the reference's; in each pixel column
    (the floor of the per-point x) the drawn points are its first, last,
    lowest and highest (the earliest of ties), with every non-finite point,
    in time order and each with its per-point text; markers sit on exactly
    the drawn points out of the limits."""
    z = np.asarray(z, dtype=float)
    assert [line for line in document.split("\n")
            if not line.startswith(("<polyline", "<circle"))] == reference_svg(
        z, center, ucl, lcl, separator=separator, draw_points=False).split("\n")
    px, py = pixel_scales(z, ucl, lcl)
    xs = [px(t) for t in range(len(z))]
    text = [(f"{x:.2f}", f"{py(v):.2f}") for x, v in zip(xs, z.tolist())]
    column = [math.floor(x) for x in xs]
    time_of = {x: t for t, (x, _) in enumerate(text)}
    assert len(time_of) == len(z)  # each x text names one point
    vertices, markers = drawn(document)
    kept = [time_of[x] for x, _ in vertices]
    assert kept == sorted(set(kept))
    assert vertices == [text[t] for t in kept]
    marked = [t for t in kept if z[t] > ucl or z[t] < lcl]
    assert markers == [text[t] for t in marked]
    shown_in = {c: list(ts) for c, ts in itertools.groupby(kept, key=column.__getitem__)}
    for c, group in itertools.groupby(range(len(z)), key=column.__getitem__):
        points, shown = list(group), shown_in[c]
        finite = [t for t in points if np.isfinite(z[t])]
        want = {points[0], points[-1]} | (set(points) - set(finite))
        if finite:
            # the lowest and highest point, the earliest of ties
            for extreme in (min, max):
                best = extreme(z[finite])
                want.add(next(t for t in finite if z[t] == best))
        assert set(shown) == want
        # a column with a point beyond a limit draws one beyond it, and so
        # (by the markers' check above) has a marker there
        for beyond in (z > ucl, z < lcl):
            if beyond[points].any():
                assert any(beyond[t] for t in shown)


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
    document = render_chart_svg(z, 0.0, 1.0, -1.0, separator=n // 2)
    assert_draws_m4(document, z, 0.0, 1.0, -1.0, separator=n // 2)
    assert len(drawn(document)[0]) < n


@pytest.mark.parametrize("n", [CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
def test_markers_across_chunk_boundaries(n):
    z = np.random.default_rng(n).uniform(-0.9, 0.9, n)
    edges = sorted({0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1})
    z[edges] = [2.5, -3.0, 1.5, -1.25][:len(edges)]
    document = render_chart_svg(z, 0.0, 1.0, -1.0, separator=7)
    assert document.count("<circle") == len(edges)
    assert_draws_m4(document, z, 0.0, 1.0, -1.0, separator=7)


def test_every_point_out_of_limits_and_non_finite_tail():
    n = CHUNK_ROWS + 3
    z = np.where(np.arange(n) % 2, 5.0, -5.0) * np.linspace(1.0, 2.0, n)
    document = render_chart_svg(z, 0.0, 1.0, -1.0)
    assert document.count("<circle") == len(drawn(document)[0])
    assert_draws_m4(document, z, 0.0, 1.0, -1.0)
    z[-5:] = np.nan
    z[n // 2] = np.inf
    assert_draws_m4(render_chart_svg(z, 0.0, 1.0, -1.0), z, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_leaves_the_scale_to_the_finite_ones(bad):
    z = np.r_[np.linspace(-2.0, 2.0, 10), bad]
    document = render_chart_svg(z, 0.0, 1.0, -1.0)
    assert document == reference_svg(z, 0.0, 1.0, -1.0)
    # the center and limit lines sit where they sit without the point
    lines = [line for line in document.split("\n") if line.startswith("<line")]
    assert lines == [line for line in render_chart_svg(z[:-1], 0.0, 1.0, -1.0).split("\n")
                     if line.startswith("<line")]


def test_ties_keep_the_earliest_point():
    z = np.round(np.cumsum(np.random.default_rng(6).standard_normal(6000)) * 0.05, 1)
    assert_draws_m4(render_chart_svg(z, 0.0, 1.0, -1.0), z, 0.0, 1.0, -1.0)


def test_a_chart_of_1e5_points_stays_small():
    z = np.cumsum(np.random.default_rng(5).standard_normal(100_490)) * 0.05
    document = render_chart_svg(z, 0.0, 1.0, -1.0, separator=490)
    vertices, markers = drawn(document)
    assert len(vertices) <= 4 * 801
    assert 0 < len(markers) <= len(vertices)
    assert len(document.encode()) < 300_000
