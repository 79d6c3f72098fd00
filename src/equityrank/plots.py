"""Minimal hand-rolled SVG output for trade-off curves.

One polyline per policy on a log-scaled unfairness axis versus a linear
effectiveness axis. The output is plain SVG 1.1 markup with no external
dependencies, and is byte-deterministic for a given input.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Mapping, Sequence

__all__ = ["write_tradeoff_svg"]

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f")

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 40, 55


def escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, then ``>``, then ``<`` replaced by
    their entities, as ``xml.sax.saxutils.escape`` does without importing it,
    which would pull in urllib, http.client, email and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _log_floor(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    return min(positive) / 10.0 if positive else 1e-12


def write_tradeoff_svg(
    path: str | Path,
    curves: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "effectiveness vs unfairness",
) -> None:
    """Write one polyline per policy; x is log10(unfairness), y effectiveness."""
    if not curves or all(len(points) == 0 for points in curves.values()):
        raise ValueError("nothing to plot")
    floor = _log_floor([u for points in curves.values() for u, _ in points])
    xs = [math.log10(max(u, floor)) for points in curves.values() for u, _ in points]
    ys = [e for points in curves.values() for _, e in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{escape(title)}</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{MARGIN_T + plot_h}" stroke="black"/>',
    ]

    decade_lo, decade_hi = math.ceil(x_lo), math.floor(x_hi)
    step = max(1, (decade_hi - decade_lo) // 8 + 1) if decade_hi > decade_lo else 1
    for d in range(decade_lo, decade_hi + 1, step):
        x = px(float(d))
        parts.append(f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" y2="{MARGIN_T + plot_h + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">1e{d}</text>'
        )
    for i in range(6):
        y_val = y_lo + i * (y_hi - y_lo) / 5
        y = py(y_val)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{y_val:.3f}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">unfairness (log scale)</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">effectiveness</text>'
    )

    for idx, (policy, points) in enumerate(curves.items()):
        color = PALETTE[idx % len(PALETTE)]
        coords = [(px(math.log10(max(u, floor))), py(e)) for u, e in points]
        point_str = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{point_str}"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
        legend_y = MARGIN_T + 16 + 18 * idx
        legend_x = MARGIN_L + plot_w + 14
        parts.append(
            f'<line x1="{legend_x}" y1="{legend_y - 4}" x2="{legend_x + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y}" font-size="12" '
            f'font-family="sans-serif">{escape(policy)}</text>'
        )

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
