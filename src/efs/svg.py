"""Static SVG scatter plots for eyeballing experiments."""

from __future__ import annotations

import math

import numpy as np

SIZE = 800
MARGIN = 30
POINT_RADIUS = 2.0
STAR_RADIUS = 7.0

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def _plane(points) -> np.ndarray:
    """The first two coordinates of each point; 1-D points sit at y = 0."""
    a = np.asarray(points, dtype=np.float64)
    if a.shape[1] == 1:
        a = np.hstack([a, np.zeros_like(a)])
    return a[:, :2]


def _scale(points: np.ndarray, extra=None):
    all_pts = points if extra is None or len(extra) == 0 else np.vstack([points, extra])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    scale = (SIZE - 2 * MARGIN) / span
    center = (lo + hi) / 2.0

    def to_px(p):
        x = SIZE / 2 + (p[0] - center[0]) * scale
        y = SIZE / 2 - (p[1] - center[1]) * scale  # SVG y grows downward
        return x, y

    return to_px


def _star_path(cx: float, cy: float, r: float) -> str:
    pts = []
    for i in range(10):
        rad = r if i % 2 == 0 else 0.4 * r
        ang = -math.pi / 2 + i * math.pi / 5
        pts.append(f"{cx + rad * math.cos(ang):.2f},{cy + rad * math.sin(ang):.2f}")
    return " ".join(pts)


def write_scatter_svg(path, points, labels=None, stars=None):
    """Render points (colored by label) and optional generated-sample stars.

    Only the first two coordinates are drawn; higher-dimensional data is
    projected onto its leading pair, and 1-D data is drawn at y = 0.
    """
    points = _plane(points)
    stars2 = None if stars is None else _plane(stars)
    to_px = _scale(points, stars2)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for i, p in enumerate(points):
        color = PALETTE[int(labels[i]) % len(PALETTE)] if labels is not None else PALETTE[0]
        x, y = to_px(p)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{POINT_RADIUS}" fill="{color}"/>')
    if stars2 is not None:
        for p in stars2:
            x, y = to_px(p)
            lines.append(f'<polygon points="{_star_path(x, y, STAR_RADIUS)}" '
                         f'fill="black" stroke="gold" stroke-width="1"/>')
    lines.append("</svg>")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
