"""Minimal deterministic SVG output: cylinder point clouds and, optionally,
per-angle projection interval bars."""

from __future__ import annotations

import math

from .errors import LevelTooLarge
from .favard import merge_intervals
from .ifs import DiskBody, exceeds

SVG_SIZE = 640  # pixels across the point cloud
GLYPH_CAP = 200_000  # circles of one drawing


def _fmt(v):
    return f"{v:.6f}"


def render_svg(ifs, depth, theta=None):
    """Point cloud of level-depth cylinder centers sized by r_u * R0.

    Output bytes are a pure function of the arguments.
    """
    if exceeds(ifs.m, depth, GLYPH_CAP):
        raise LevelTooLarge(f"{ifs.m}^{depth} glyphs exceed cap {GLYPH_CAP}")
    cover = ifs.cover(depth)
    xs, ys = cover.images(*ifs.center)
    radii = cover.r * ifs.R0
    cx, cy = ifs.center
    r0 = max(ifs.R0, 1e-9)
    margin = 1.1
    scale = SVG_SIZE / (2.0 * r0 * margin)

    def sx(x):
        return (x - cx) * scale + SVG_SIZE / 2.0

    def sy(y):
        return SVG_SIZE / 2.0 - (y - cy) * scale

    bar_h = 40 if theta is not None else 0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE + bar_h}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE + bar_h}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE + bar_h}" fill="white"/>',
    ]
    for x, y, r in zip(xs.tolist(), ys.tolist(), radii.tolist()):
        rr = max(r * scale, 0.3)
        lines.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{_fmt(rr)}" '
            'fill="steelblue" fill-opacity="0.6"/>'
        )
    if theta is not None:
        merged = merge_intervals(*DiskBody(ifs.center, ifs.R0).interval(cover, theta))
        y0 = SVG_SIZE + 10
        for a, b in merged.intervals:
            x0 = (a - (cx * math.cos(theta) + cy * math.sin(theta))) * scale + SVG_SIZE / 2.0
            w = (b - a) * scale
            lines.append(
                f'<rect x="{_fmt(x0)}" y="{y0}" width="{_fmt(max(w, 0.2))}" '
                'height="20" fill="darkorange"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
