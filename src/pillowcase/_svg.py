"""Minimal deterministic SVG 1.1 writer for pillowcase figures.

Figures draw the fundamental rectangle [0, pi] x [0, 2 pi] with corner
markers, optional fold-image circles, and curves clipped into the rectangle
through their lattice-and-flip translates.  Output bytes depend only on the
input data (fixed precision, no timestamps).
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f"]

_SCALE = 120.0
_MARGIN = 30.0


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _to_px(pt):
    x = _MARGIN + _SCALE * pt[0]
    y = _MARGIN + _SCALE * (TWO_PI - pt[1])
    return x, y


def _polyline_svg(points: np.ndarray, color: str, width: float = 1.2) -> str:
    # _to_px over the rows at once; formatting Python floats is faster than
    # formatting numpy scalars, and prints the same digits
    xs = (_MARGIN + _SCALE * points[:, 0]).tolist()
    ys = (_MARGIN + _SCALE * (TWO_PI - points[:, 1])).tolist()
    coords = " ".join(f"{x:.6f},{y:.6f}" for x, y in zip(xs, ys))
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" points="{coords}"/>')


def _clip_segments(lift: np.ndarray):
    """Translate every segment into the fundamental rectangle; segments that
    straddle the boundary are drawn from both sides (slight overdraw)."""
    segs = []
    for sign in (1, -1):
        pts = sign * lift
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        for m in range(int(np.floor(-hi[0] / TWO_PI)) - 1,
                       int(np.ceil((np.pi - lo[0]) / TWO_PI)) + 2):
            for n in range(int(np.floor(-hi[1] / TWO_PI)) - 1,
                           int(np.ceil((TWO_PI - lo[1]) / TWO_PI)) + 2):
                shifted = pts + np.array([TWO_PI * m, TWO_PI * n])
                inside = ((shifted[:, 0] >= -0.02) & (shifted[:, 0] <= np.pi + 0.02)
                          & (shifted[:, 1] >= -0.02) & (shifted[:, 1] <= TWO_PI + 0.02))
                # the runs of inside points: starts where the padded mask
                # steps up, ends where it steps down
                step = np.diff(np.concatenate(([0], inside.view(np.int8), [0])))
                for a, b in zip(np.flatnonzero(step == 1).tolist(),
                                np.flatnonzero(step == -1).tolist()):
                    if b - a >= 2:
                        segs.append(shifted[a:b])
    return segs


def scene_svg(curves, fold_image=None, title: str = "") -> str:
    """Render named curves (list of (name, ImmersedCurve)) over the
    fundamental rectangle."""
    w = 2 * _MARGIN + _SCALE * np.pi
    h = 2 * _MARGIN + _SCALE * TWO_PI
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
        f'<rect x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN)}" '
        f'width="{_fmt(_SCALE * np.pi)}" height="{_fmt(_SCALE * TWO_PI)}" '
        'fill="white" stroke="black" stroke-width="1.5"/>',
    ]
    if title:
        out.append(f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_MARGIN - 10)}" '
                   f'font-size="14" font-family="monospace">{title}</text>')
    for cx in (0.0, np.pi):
        for cy in (0.0, np.pi, TWO_PI):
            px, py = _to_px((cx, cy))
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                       'fill="black"/>')
    if fold_image is not None:
        for comp in fold_image.components:
            for seg in _clip_segments(comp.lift):
                out.append(_polyline_svg(seg, "#bbbbbb", 1.0))
    for k, (name, curve) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        for comp in curve.components:
            for seg in _clip_segments(comp.lift):
                out.append(_polyline_svg(seg, color))
        out.append(f'<text x="{_fmt(_MARGIN + 4)}" y="{_fmt(_MARGIN + 16 + 14 * k)}" '
                   f'font-size="12" font-family="monospace" fill="{color}">'
                   f'{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
