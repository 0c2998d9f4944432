"""Minimal deterministic SVG 1.1 writer for pillowcase figures.

Figures draw the fundamental rectangle [0, pi] x [0, 2 pi] with corner
markers, optional fold-image circles, and curves clipped into the rectangle
through their lattice-and-flip translates.  Output bytes depend only on the
input data (fixed precision, no timestamps).
"""

from __future__ import annotations

import numpy as np

from .curves import translates
from .words import TWO_PI

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


def _text(s: str) -> str:
    """Escape text content for XML; '>' is legal there and keeps its byte."""
    return s.replace("&", "&amp;").replace("<", "&lt;")


def _polyline_svg(points: np.ndarray, color: str, width: float = 1.2) -> str:
    # _to_px over the rows, then one % over the interleaved Python floats
    xs = _MARGIN + _SCALE * points[:, 0]
    ys = _MARGIN + _SCALE * (TWO_PI - points[:, 1])
    flat = np.column_stack((xs, ys)).ravel().tolist()
    coords = " ".join(["%.6f,%.6f"] * len(points)) % tuple(flat)
    return (f'<polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}" points="{coords}"/>')


def _clip_segments(lift: np.ndarray):
    """Translate every segment into the fundamental rectangle, through the
    ``translates`` whose box meets it; segments that straddle the boundary
    are drawn from both sides (slight overdraw)."""
    lo, hi = (-0.02, -0.02), (np.pi + 0.02, TWO_PI + 0.02)
    segs = []
    for sign, shift in translates(lo, hi, lift):
        shifted = sign * lift + shift
        inside = ((shifted[:, 0] >= lo[0]) & (shifted[:, 0] <= hi[0])
                  & (shifted[:, 1] >= lo[1]) & (shifted[:, 1] <= hi[1]))
        # the runs of inside points: starts where the padded mask steps up,
        # ends where it steps down
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
                   f'font-size="14" font-family="monospace">{_text(title)}</text>')
    for cx in (0.0, np.pi):
        for cy in (0.0, np.pi, TWO_PI):
            px, py = _to_px((cx, cy))
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
                       'fill="black"/>')
    if fold_image is not None:
        for comp in fold_image.components:
            for seg in _clip_segments(comp.lift):
                out.append(_polyline_svg(seg, "#bbbbbb", 1.0))
    # a component drawn again in its color (D(Dt) is two equal copies) is
    # formatted once; the keys copy the lifts, so they go before the join
    drawn = {}
    for k, (name, curve) in enumerate(curves):
        color = PALETTE[k % len(PALETTE)]
        for comp in curve.components:
            key = (color, comp.lift.tobytes())
            if key not in drawn:
                drawn[key] = [_polyline_svg(seg, color)
                              for seg in _clip_segments(comp.lift)]
            out += drawn[key]
        out.append(f'<text x="{_fmt(_MARGIN + 4)}" y="{_fmt(_MARGIN + 16 + 14 * k)}" '
                   f'font-size="12" font-family="monospace" fill="{color}">'
                   f'{_text(name)}</text>')
    del drawn
    out.append("</svg>")
    return "\n".join(out) + "\n"
