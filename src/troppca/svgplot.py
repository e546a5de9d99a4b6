"""Minimal deterministic SVG scatter plots.

Hand-rolled rather than delegated to a plotting package so that identical
inputs always produce byte-identical files: fixed canvas, fixed palette, no
timestamps, no renderer-dependent metadata.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# matplotlib's tab10, a conventional categorical palette
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH = 760
_HEIGHT = 540
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 55
_LEGEND_WIDTH = 300


def _axis_bounds(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(
    x: Sequence[float],
    y: Sequence[float],
    groups: Sequence[str] | None = None,
    *,
    xlabel: str,
    ylabel: str,
) -> str:
    """Scatter plot as an SVG string; one circle per point, under the two axis labels.

    When ``groups`` is given, points are colored per group and a legend
    lists each group with its frequency, ordered by frequency (ties by
    label) so color assignment is stable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D and of equal length")
    n = x.size
    if groups is not None and len(groups) != n:
        raise ValueError("need one group label per point")

    legend: list[tuple[str, int, str]] = []
    if groups is None:
        colors = [PALETTE[0]] * n
        width = _WIDTH
    else:
        counts: dict[str, int] = {}
        for g in groups:
            counts[g] = counts.get(g, 0) + 1
        ordered = sorted(counts, key=lambda g: (-counts[g], g))
        color_of = {g: PALETTE[i % len(PALETTE)] for i, g in enumerate(ordered)}
        colors = [color_of[g] for g in groups]
        legend = [(g, counts[g], color_of[g]) for g in ordered]
        width = _WIDTH + _LEGEND_WIDTH

    x0, x1 = _axis_bounds(x)
    y0, y1 = _axis_bounds(y)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(value):  # a float or an array of them
        return _MARGIN_LEFT + (value - x0) / (x1 - x0) * plot_w

    def sy(value):
        return _HEIGHT - _MARGIN_BOTTOM - (value - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_HEIGHT}" '
        f'viewBox="0 0 {width} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{width}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]

    for tick in np.linspace(x0, x1, 6):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_HEIGHT - _MARGIN_BOTTOM}" x2="{px:.2f}" '
            f'y2="{_HEIGHT - _MARGIN_BOTTOM + 5}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in np.linspace(y0, y1, 6):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="#444444" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    cx, cy = 20, _MARGIN_TOP + plot_h / 2
    parts.append(
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 {cx} {cy:.1f})">{_escape(ylabel)}</text>'
    )

    # sx and sy over whole arrays: the same float operations in the same order
    for px, py, color in zip(sx(x).tolist(), sy(y).tolist(), colors):
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}" '
            f'fill-opacity="0.75" stroke="none"/>'
        )

    if legend:
        lx = _WIDTH + 10
        parts.append(
            f'<text x="{lx}" y="{_MARGIN_TOP + 4}" font-family="sans-serif" '
            f'font-size="13">topologies (frequency)</text>'
        )
        for row, (label, count, color) in enumerate(legend):
            ly = _MARGIN_TOP + 24 + 20 * row
            parts.append(f'<circle cx="{lx + 6}" cy="{ly - 4}" r="5" fill="{color}"/>')
            parts.append(
                f'<text x="{lx + 18}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{_escape(label)} ({count})</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
