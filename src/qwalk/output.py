"""Deterministic CSV and SVG writers for fidelity series and operators.

All text output uses ``\\n`` line endings and fixed numeric formatting so
that identical inputs produce byte-identical files on every platform. The
writers format Python floats taken from each series with ``tolist()``, and
the SVG title is escaped with ``str.replace`` (``&``, ``<`` and ``>``, the
mapping of ``xml.sax.saxutils.escape``): importing the XML package would pull
in ``urllib``, ``http``, ``email``, ``socket`` and ``ssl`` for one call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .scenarios import FidelitySeries

__all__ = ["write_csv", "render_svg", "write_matrix_csv"]

CSV_HEADER = "t,fidelity_noiseless,fidelity_noisy"


def write_csv(series: FidelitySeries, path: str | Path) -> None:
    """Write one fidelity series as CSV.

    Header ``t,fidelity_noiseless,fidelity_noisy``; the third column is
    left empty when the series has no noisy data. Values carry 12
    significant digits.
    """
    noiseless = series.noiseless.tolist()
    if series.noisy is None:
        rows = [f"{t},{value:.12g}," for t, value in enumerate(noiseless)]
    else:
        rows = [f"{t},{value:.12g},{noisy:.12g}"
                for t, (value, noisy) in enumerate(zip(noiseless, series.noisy.tolist()))]
    lines = [CSV_HEADER, *rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_matrix_csv(matrix, path: str | Path) -> None:
    """Write a real matrix as CSV with ``%.6f`` entries."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {matrix.shape}")
    lines = [",".join(f"{value:.6f}" for value in row) for row in matrix.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# Fixed plot geometry (pixels).
_WIDTH, _HEIGHT = 840, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 30, 50, 60
_COLORS = {"noiseless": "#1f77b4", "noisy": "#d62728"}


def _x_ticks(t_max: int) -> list[int]:
    if t_max <= 5:
        return list(range(t_max + 1))
    step = max(1, int(round(t_max / 5)))
    ticks = list(range(0, t_max + 1, step))
    if ticks[-1] != t_max:
        ticks.append(t_max)
    return ticks


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(series: FidelitySeries, path: str | Path, title: str) -> None:
    """Render the series as a standalone SVG line chart.

    One labelled polyline per curve (fidelity in [0, 1] against the time
    step), with axes, tick labels and a legend. A single-point series is
    drawn as a marker since a one-vertex polyline has no extent.
    """
    n_points = len(series.noiseless)
    if n_points < 1:
        raise ValueError("cannot render an empty series")
    t_max = max(n_points - 1, 1)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(t: float) -> float:
        return _LEFT + plot_w * t / t_max

    def py(f: float) -> float:
        return _TOP + plot_h * (1.0 - f)

    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    # Axes and gridlines.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = py(frac)
        parts.append(
            f'<line x1="{_LEFT}" y1="{y:.1f}" x2="{_LEFT + plot_w}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{frac:g}</text>'
        )
    for tick in _x_ticks(t_max):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_TOP + plot_h}" x2="{x:.1f}" y2="{_TOP + plot_h + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick}</text>'
        )
    parts.append(
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 16}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time step</text>'
    )
    parts.append(
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">fidelity</text>'
    )

    curves = [("noiseless", series.noiseless)]
    if series.noisy is not None:
        curves.append(("noisy", series.noisy))

    # The same IEEE operations as px and py, element by element.
    xs = (_LEFT + plot_w * np.arange(n_points) / t_max).tolist()
    for label, values in curves:
        color = _COLORS[label]
        ys = (_TOP + plot_h * (1.0 - values)).tolist()
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if n_points == 1:
            parts.append(f'<circle cx="{xs[0]:.2f}" cy="{ys[0]:.2f}" r="3.5" fill="{color}"/>')

    # Legend, top-right inside the plot area.
    legend_x = _LEFT + plot_w - 130
    for i, (label, _) in enumerate(curves):
        y = _TOP + 16 + 18 * i
        color = _COLORS[label]
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
