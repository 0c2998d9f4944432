"""Immersed-curve calculus in the pillowcase.

A curve is a list of components, each carried as a polyline lift in the plane
(the universal cover of the base torus).  Circle components close up to a
lattice vector in 2 pi Z^2 (their torus homology); good-arc components run
from one half-lattice corner point to another and stay away from corners in
between.  Points of the pillowcase are plane orbits under the group generated
by the lattice translations and u -> -u, so comparisons and intersections
test lattice-and-flip translates of segment pairs (``translates``, the one
walk over them, which the SVG writer's clip takes too).

Supported operations: doubling and twisted doubling of circles, the
figure-eight circle supported by a good arc (equivariant double pushed off
along the normal by a -2s cos profile), transverse intersection counting,
a regular-homotopy proxy invariant tuple per component, and the Hausdorff
distance of curve images in character coordinates, by an exact
nearest-segment search.  Both searches, for crossings in the plane and for
nearest segments in R^3, skip runs of consecutive segments by their boxes
(``_run_boxes``).  Crossings are arrays: one search returns every hit of a
lift pair at once, one rule (``distinct_rows``) drops duplicate hits, and
``intersect`` and ``self_intersections`` return an ``IntersectionResult``
of arrays.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .projection import r3_of_orbit
from .words import TWO_PI, wrapped_angle

CORNER_CLASSES = [(0, 0), (1, 0), (0, 1), (1, 1)]

# immersion proxy: a polyline turning by more than this between neighboring
# segments is not resolved as an immersion
TURN_LIMIT = np.deg2rad(15.0)

# crossings at a smaller angle (rad) are not transverse
ANGLE_TOL = 1e-3
# crossings this near a corner are not points of the open pillowcase
CORNER_TOL = 1e-6
# largest |coordinate| of a curve's lift: below it a float's spacing is
# at most 2^-33 (about 1.2e-10), a tenth of the 1e-9 corner rule of
# ``CurveComponent.validate``, so reducing a vertex mod 2 pi keeps its place
# against the corners; at 1e300 no digit of the reduction is left
COORD_MAX = 1e6


class GenericPositionError(RuntimeError):
    """A tangential or overlapping crossing was detected."""


class CurveError(ValueError):
    pass


@dataclass
class CurveComponent:
    kind: str  # "circle" | "good_arc"
    lift: np.ndarray  # (n, 2) polyline in the plane

    def __post_init__(self):
        self.lift = np.asarray(self.lift, dtype=float)
        if self.lift.ndim != 2 or self.lift.shape[1] != 2 or len(self.lift) < 3:
            raise CurveError("component lift must be an (n>=3, 2) polyline")
        if self.kind not in ("circle", "good_arc"):
            raise CurveError(f"unknown component kind {self.kind!r}")

    @property
    def period(self) -> np.ndarray:
        """Lift displacement over one traversal (2 pi times the homology
        class for circles)."""
        return self.lift[-1] - self.lift[0]

    def homology(self) -> tuple[int, int]:
        if self.kind != "circle":
            raise CurveError("homology class applies to circle components")
        lam = self.period / TWO_PI
        hom = np.round(lam).astype(int)
        if np.max(np.abs(lam - hom)) > 1e-7:
            raise CurveError(f"circle lift does not close modulo the lattice: {lam}")
        return int(hom[0]), int(hom[1])

    def validate(self):
        if not np.all(np.isfinite(self.lift)):
            raise CurveError("component lift has a coordinate that is not "
                             "finite")
        if np.max(np.abs(self.lift)) > COORD_MAX:
            raise CurveError(f"component lift has a coordinate beyond "
                             f"{COORD_MAX:g} in absolute value")
        lens = np.linalg.norm(np.diff(self.lift, axis=0), axis=1)
        if np.any(lens < 1e-12):
            raise CurveError("degenerate polyline segment")
        turns = turning_angles(self.lift, closed=self.kind == "circle")
        if self.kind == "circle":
            self.homology()
        if np.max(turns) > TURN_LIMIT:
            raise CurveError(
                f"polyline turns by {np.rad2deg(np.max(turns)):.1f} deg; not an "
                "immersion at this resolution")
        if self.kind == "good_arc":
            for end in (self.lift[0], self.lift[-1]):
                if np.max(np.abs(end / np.pi - np.round(end / np.pi))) > 1e-7:
                    raise CurveError("good arc must start and end at corner "
                                     "lattice points")
        # the corners are punctures: every segment keeps off them, but a
        # good arc's first and last segments end on its end corners
        seg, corner = _corners_near_segments(self.lift, 1e-9)
        if self.kind == "good_arc":
            end = np.round(self.lift[np.where(seg == 0, 0, -1)] / np.pi)
            seg = seg[~(np.isin(seg, (0, len(self.lift) - 2))
                        & np.all(corner == end, axis=1))]
        if len(seg):
            raise CurveError(f"{self.kind.replace('_', ' ')} passes through "
                             "a corner")
        return self


def turning_angles(lift: np.ndarray, closed: bool = False) -> np.ndarray:
    """Absolute angles (rad) by which a polyline turns between neighboring
    segments; ``closed`` adds the turn from the last segment to the first."""
    seg = np.diff(lift, axis=0)
    ang = np.arctan2(seg[:, 1], seg[:, 0])
    if closed:
        ang = np.append(ang, ang[0])
    return np.abs(wrapped_angle(np.diff(ang)))


def _corner_lattice_distance(pts: np.ndarray) -> np.ndarray:
    """Distance of plane points to the half-lattice pi Z^2."""
    r = pts / np.pi
    return np.pi * np.max(np.abs(r - np.round(r)), axis=1)


def _corners_near_segments(lift: np.ndarray, tol: float):
    """(segment index, corner / pi) for each corner of pi Z^2 within ``tol``
    < pi/4 of a segment of a polyline, in ``_corner_lattice_distance``'s
    L-infinity distance: per lattice column (row, if steep) that a segment
    spans, the corner nearest its crossing, 2^16 candidates at a time."""
    a, b = lift[:-1] / np.pi, lift[1:] / np.pi
    steep = np.abs(b - a)[:, 1] > np.abs(b - a)[:, 0]
    a, b = (np.where(steep[:, None], x[:, ::-1], x) for x in (a, b))
    lo = np.floor(np.minimum(a, b)[:, 0])
    n = (np.ceil(np.maximum(a, b)[:, 0]) - lo + 1).astype(int)
    out = []
    for block in np.split(np.arange(len(n)), np.searchsorted(
            np.cumsum(n), np.arange(2 ** 16, n.sum(), 2 ** 16))):
        seg = np.repeat(block, n[block])
        k = lo[seg] + np.arange(len(seg)) - np.searchsorted(seg, seg)
        p, d = a[seg], (b - a)[seg]
        t = (k - p[:, 0]) / d[:, 0]
        m = np.round(p[:, 1] + np.clip(t, 0, 1) * d[:, 1])
        # on the segment's line |x - k| = |y - m| where the distance is least
        t = np.clip(t - (p[:, 1] + t * d[:, 1] - m) * np.sign(d[:, 1])
                    / np.abs(d).sum(axis=1), 0, 1)
        corner = np.column_stack([k, m])
        near = np.pi * np.max(np.abs(p + t[:, None] * d - corner), axis=1) < tol
        out.append((seg[near], np.where(steep[seg[near], None],
                                        corner[near, ::-1], corner[near])))
    return tuple(map(np.concatenate, zip(*out)))


@dataclass
class ImmersedCurve:
    components: list[CurveComponent]
    side: str = "P0"
    name: str = ""

    def __post_init__(self):
        if self.side not in ("P0", "P1"):
            raise CurveError(f"unknown side {self.side!r}")

    def validate(self) -> "ImmersedCurve":
        if not self.components:
            raise CurveError("curve has no components")
        for c in self.components:
            c.validate()
        return self

    def relabel(self, side: str) -> "ImmersedCurve":
        return ImmersedCurve([CurveComponent(c.kind, c.lift.copy())
                              for c in self.components], side, self.name)

    def to_json(self) -> str:
        return json.dumps({
            "side": self.side,
            "components": [{"kind": c.kind, "lift": c.lift.tolist()}
                           for c in self.components],
        })

    @classmethod
    def from_json(cls, text: str) -> "ImmersedCurve":
        """The curve of a JSON file; a missing key or a value of the wrong
        shape raises CurveError naming it."""
        # json's decoder recurses once per level of nesting
        try:
            data = json.loads(text)
        except RecursionError:
            raise CurveError("the curve file is nested too deeply") from None
        if not (isinstance(data, dict)
                and isinstance(data.get("components"), list)):
            raise CurveError('a curve file is a JSON object with a '
                             '"components" list')
        comps = []
        for k, c in enumerate(data["components"]):
            if not isinstance(c, dict) or not {"kind", "lift"} <= c.keys():
                raise CurveError(f'component {k} is not an object with '
                                 f'"kind" and "lift" keys')
            try:
                lift = np.asarray(c["lift"], dtype=float)
            except (TypeError, ValueError):
                raise CurveError(f"component {k}: lift is not a list of "
                                 f"[gamma, theta] number pairs") from None
            # json reads an integer literal as a Python int of any size
            except OverflowError:
                raise CurveError(f"component {k}: lift has a number beyond "
                                 f"the float range") from None
            comps.append(CurveComponent(c["kind"], lift))
        return cls(comps, data.get("side", "P0"))


# ---------------------------------------------------------------------------
# standard curves
# ---------------------------------------------------------------------------

def _polyline(fn, t0: float, t1: float, n: int) -> np.ndarray:
    ts = np.linspace(t0, t1, n)
    return np.array([fn(t) for t in ts], dtype=float)


def bottom_edge(n: int = 361) -> ImmersedCurve:
    """The bottom pillowcase edge as a good arc."""
    return ImmersedCurve([CurveComponent("good_arc",
                                         _polyline(lambda t: (t, 0.0), 0.0, np.pi, n))],
                         "P0", "beta")


def slope_one_arc(n: int = 361) -> ImmersedCurve:
    return ImmersedCurve([CurveComponent("good_arc",
                                         _polyline(lambda t: (t, t), 0.0, np.pi, n))],
                         "P0", "slope_one")


def slope_two_arc(n: int = 721) -> ImmersedCurve:
    return ImmersedCurve([CurveComponent("good_arc",
                                         _polyline(lambda t: (t, 2 * t), 0.0, np.pi, n))],
                         "P0", "slope_two")


def wavy_arc(amplitude: float = 0.35, n: int = 721) -> ImmersedCurve:
    """A non-edge, non-linear good arc joining the corners (0,0) and (pi,pi)."""
    return ImmersedCurve([CurveComponent(
        "good_arc",
        _polyline(lambda t: (t, t + amplitude * np.sin(t)), 0.0, np.pi, n))],
        "P0", "wavy")


def vertical_circle(n: int = 721) -> ImmersedCurve:
    """The embedded vertical circle at gamma = pi/2."""
    return ImmersedCurve([CurveComponent(
        "circle", _polyline(lambda t: (np.pi / 2, t), 0.0, TWO_PI, n))],
        "P0", "b_ver")


# ---------------------------------------------------------------------------
# doubling and the figure eight
# ---------------------------------------------------------------------------

def double(c: ImmersedCurve) -> ImmersedCurve:
    """Compose each circle with the trivial double cover: duplicate it."""
    comps = []
    for comp in c.components:
        if comp.kind != "circle":
            raise CurveError("double is defined on circle components")
        comps.append(CurveComponent("circle", comp.lift.copy()))
        comps.append(CurveComponent("circle", comp.lift.copy()))
    return ImmersedCurve(comps, c.side, f"D({c.name})" if c.name else "")


def twisted_double(c: ImmersedCurve) -> ImmersedCurve:
    """Compose each circle with the connected double cover: traverse twice."""
    comps = []
    for comp in c.components:
        if comp.kind != "circle":
            raise CurveError("twisted_double is defined on circle components")
        lam = comp.period
        second = comp.lift[1:] + lam
        comps.append(CurveComponent("circle", np.vstack([comp.lift, second])))
    return ImmersedCurve(comps, c.side, f"Dt({c.name})" if c.name else "")


def equivariant_circle_lift(comp: CurveComponent) -> np.ndarray:
    """Closed-up-to-lattice lift of the equivariant double of a good arc:
    the arc followed by its point reflection through the endpoint corner."""
    if comp.kind != "good_arc":
        raise CurveError("equivariant lift applies to good arcs")
    end = comp.lift[-1]
    reflected = 2 * end - comp.lift[-2::-1]
    return np.vstack([comp.lift, reflected])


def _resample_arclength(path: np.ndarray, n: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    want = np.linspace(0.0, total, n)
    x = np.interp(want, cum, path[:, 0])
    y = np.interp(want, cum, path[:, 1])
    return np.column_stack([x, y])


def figure_eight(arc: ImmersedCurve, s: float, n: int = 1440) -> ImmersedCurve:
    """The figure-eight circle supported by a good arc.

    The equivariant circle lift of the arc is pushed off along its unit
    normal by -2 s cos(sigma), sigma the arclength-proportional parameter
    with sigma = 0 at the starting corner.  The result is a single circle
    with one transverse double point; it is the same unparameterized curve
    for s and -s.
    """
    if len(arc.components) != 1 or arc.components[0].kind != "good_arc":
        raise CurveError("figure_eight expects a single good-arc component")
    if not (0 < abs(s) <= 1):
        raise CurveError("figure_eight requires 0 < |s| <= 1")
    comp = arc.components[0]
    base = _resample_arclength(equivariant_circle_lift(comp), n + 1)
    # tangents by centered differences (closed up to the lattice period)
    lam = base[-1] - base[0]
    prev = np.vstack([base[-2] - lam, base[:-1]])
    nxt = np.vstack([base[1:], base[1] + lam])
    tan = nxt - prev
    tan /= np.linalg.norm(tan, axis=1)[:, None]
    normal = np.column_stack([-tan[:, 1], tan[:, 0]])
    # curvature guard: the offset must stay inside the normal injectivity radius
    dtan = np.linalg.norm(np.diff(tan, axis=0), axis=1)
    dsig = np.linalg.norm(np.diff(base, axis=0), axis=1)
    kappa = np.max(dtan / np.maximum(dsig, 1e-12))
    if 2 * abs(s) * kappa > 0.5:
        raise CurveError(
            f"offset 2|s| = {2 * abs(s):.3f} exceeds the reach of the arc's "
            f"curvature (max kappa = {kappa:.2f}); use a smaller s")
    sigma = np.linspace(0.0, TWO_PI, n + 1)
    out = base - (2 * s * np.cos(sigma))[:, None] * normal
    comp_out = CurveComponent("circle", out)
    return ImmersedCurve([comp_out], arc.side,
                         f"F8({arc.name})" if arc.name else "F8")


# ---------------------------------------------------------------------------
# intersections in the quotient
# ---------------------------------------------------------------------------

_RUN = 8  # consecutive segments under one box of the crossing search
_RUN_PAIRS = 256  # candidate box pairs per pass of the crossing search


def _runs(n: int, size: int) -> np.ndarray:
    """Indices 0..n-1 in rows of ``size``; the last row repeats n - 1."""
    return np.minimum(np.arange(-(-n // size) * size), n - 1).reshape(-1, size)


def _run_boxes(P0, P1, size, pad=0.0):
    """The segments' boxes, widened by ``pad``, their ``_runs`` of
    ``size``, and the boxes of the runs.  In d dimensions a box is a column
    of 2 d rows: the d lower ends, then the d upper ends."""
    d = P0.shape[1]
    box = np.empty((2 * d, len(P0)))
    np.minimum(P0.T, P1.T, out=box[:d])
    np.maximum(P0.T, P1.T, out=box[d:])
    box[:d] -= pad
    box[d:] += pad
    start = np.arange(0, len(P0), size)
    run_box = np.concatenate([np.minimum.reduceat(box[:d], start, axis=1),
                              np.maximum.reduceat(box[d:], start, axis=1)])
    return box, _runs(len(P0), size), run_box


def _meet(a, i, b, j) -> np.ndarray:
    """Whether boxes a[:, i] and b[:, j] meet, gathered row by row."""
    return (a[0, i] <= b[2, j]) & (b[0, j] <= a[2, i]) & \
        (a[1, i] <= b[3, j]) & (b[1, j] <= a[3, i])


def _sweep(P0, P1):
    """One side of the crossing search, built once: P's run boxes, widened
    by 1e-6, sorted by their lower end along the axis in which their
    centres spread the most, with the running maximum of their upper ends
    along it.  Returns (segment boxes, runs, run boxes, axis, running max)."""
    box, runs, run_box = _run_boxes(P0, P1, _RUN, 1e-6)
    centre = run_box[:2] + run_box[2:]
    ax = int(np.argmax(centre.max(axis=1) - centre.min(axis=1)))
    order = np.argsort(run_box[ax], kind="stable")
    run_box = run_box[:, order]
    return box, runs[order], run_box, ax, np.maximum.accumulate(run_box[2 + ax])


def _segment_crossings(P0, P1, sweep, Q0, Q1):
    """Proper crossings between two segment families, ``sweep`` being
    ``_sweep(P0, P1)``.  Each run box of Q takes the window of P's sorted
    run boxes that can meet it along the sweep axis (``searchsorted`` on
    their lower ends and on the running maximum of their upper ends); the
    window pairs go in passes of ``_RUN_PAIRS``, and the segment pairs of
    the run pairs whose boxes meet are tested, segment boxes first.

    Returns index pairs, parameters, points, and the crossing angles (rad,
    in [0, pi/2]), ordered by i, then j.
    """
    box, runs, run_box, ax, reach = sweep
    qbox, qruns, qrun_box = _run_boxes(Q0, Q1, _RUN)
    first = np.searchsorted(reach, qrun_box[ax], side="left")
    count = np.maximum(np.searchsorted(run_box[ax], qrun_box[2 + ax],
                                       side="right") - first, 0)
    ends = np.cumsum(count)
    found = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0), np.empty(0))]
    for lo in range(0, int(ends[-1]), _RUN_PAIRS):
        k = np.arange(lo, min(lo + _RUN_PAIRS, ends[-1]))
        q = np.searchsorted(ends, k, side="right")
        p = first[q] + k - ends[q] + count[q]
        near = _meet(run_box, p, qrun_box, q)
        ic, jc = (x.ravel() for x in np.broadcast_arrays(
            runs[p[near], :, None], qruns[q[near], None, :]))
        near = _meet(box, ic, qbox, jc)
        ic, jc = ic[near], jc[near]
        d1 = P1[ic] - P0[ic]
        d2 = Q1[jc] - Q0[jc]
        den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        dx = Q0[jc, 0] - P0[ic, 0]
        dy = Q0[jc, 1] - P0[ic, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (dx * d2[:, 1] - dy * d2[:, 0]) / den
            u = (dx * d1[:, 1] - dy * d1[:, 0]) / den
        eps = 1e-12
        hit = (np.abs(den) > 0) & (t >= -eps) & (t < 1 - eps) & \
            (u >= -eps) & (u < 1 - eps)
        found.append((ic[hit], jc[hit], t[hit], u[hit]))
    ii, jj, tt, uu = (np.concatenate(x) for x in zip(*found))
    # (i, j) order, each pair once: the last runs repeat their last segment
    _, once = np.unique(ii * len(Q0) + jj, return_index=True)
    ii, jj, tt, uu = ii[once], jj[once], tt[once], uu[once]
    pts = P0[ii] + tt[:, None] * (P1[ii] - P0[ii])
    a1 = np.arctan2(P1[ii, 1] - P0[ii, 1], P1[ii, 0] - P0[ii, 0])
    a2 = np.arctan2(Q1[jj, 1] - Q0[jj, 1], Q1[jj, 0] - Q0[jj, 0])
    ang = np.abs(np.mod(a1 - a2 + np.pi / 2, np.pi) - np.pi / 2)
    return ii, jj, tt, uu, pts, ang


def lattice_shifts(lo_a, hi_a, lo_b, hi_b) -> list[np.ndarray]:
    """The lattice shifts 2 pi (m, n), m-major, whose image of the box
    [lo_b, hi_b] meets the box [lo_a, hi_a].  The shift range is rounded
    inward with a slack of 1e-9 lattice steps, so every shift whose image
    meets is listed, and otherwise only those that miss by less than
    2 pi 1e-9."""
    lo_a, hi_a, lo_b, hi_b = map(np.asarray, (lo_a, hi_a, lo_b, hi_b))
    k0 = np.ceil((lo_a - hi_b) / TWO_PI - 1e-9).astype(int)
    k1 = np.floor((hi_a - lo_b) / TWO_PI + 1e-9).astype(int)
    return [np.array([TWO_PI * m, TWO_PI * n])
            for m in range(k0[0], k1[0] + 1) for n in range(k0[1], k1[1] + 1)]


def translates(lo, hi, lift: np.ndarray):
    """Group elements g = (sign, shift), sign first and the shifts m-major,
    whose image of lift's box meets the box [lo, hi] (``lattice_shifts``)."""
    lo_b, hi_b = lift.min(axis=0), lift.max(axis=0)
    return [(1, s) for s in lattice_shifts(lo, hi, lo_b, hi_b)] + \
        [(-1, s) for s in lattice_shifts(lo, hi, -hi_b, -lo_b)]


def _crossings(lift_a: np.ndarray, lift_b: np.ndarray):
    """Crossings of lift_a with every translate of lift_b that can meet it,
    away from the corners (not points of the open pillowcase).

    Returns arrays (identity, i, j, t_a, t_b, points, angles), one row per
    hit: whether its translate is the identity, the segment indices, the
    polyline parameters (segment index + fraction), the crossing point on
    lift_a (rows of the (n, 2) ``points``) and the angle.

    lift_a's ``_sweep`` is built once, and every translate whose box meets
    lift_a's box, widened by 1e-6, is searched whole: the run boxes and
    segment boxes of ``_segment_crossings`` drop the segments that miss.
    The hits come translate by translate, in ``translates`` order, and
    within one translate ordered by i, then j.
    """
    A0, A1 = lift_a[:-1], lift_a[1:]
    sweep = _sweep(A0, A1)
    found = [(np.empty(0, dtype=bool), np.empty(0, dtype=np.int64),
              np.empty(0, dtype=np.int64), np.empty(0), np.empty(0),
              np.empty((0, 2)), np.empty(0))]
    for sign, shift in translates(lift_a.min(axis=0) - 1e-6,
                                  lift_a.max(axis=0) + 1e-6, lift_b):
        B = sign * lift_b + shift
        identity = sign == 1 and np.max(np.abs(shift)) < 1e-12
        ii, jj, tt, uu, pts, ang = _segment_crossings(A0, A1, sweep,
                                                      B[:-1], B[1:])
        found.append((np.full(len(ii), identity), ii, jj, tt, uu, pts, ang))
    idn, ii, jj, tt, uu, pts, ang = map(np.concatenate, zip(*found))
    far = _corner_lattice_distance(pts) >= CORNER_TOL
    return (idn[far], ii[far], jj[far], (ii + tt)[far], (jj + uu)[far],
            pts[far], ang[far])


def distinct_rows(rows: np.ndarray, tol: float, period=None) -> np.ndarray:
    """Indices of the rows of an (m, 2) array that are kept when they are
    scanned in order and a row is dropped if it, or with ``period`` its
    alternative, lies strictly within ``tol`` of a kept row in both
    coordinates.  The alternative reads the row as an unordered pair of
    points on a circle of length ``period``: each coordinate reduced into
    [-4 tol, period - 4 tol), so that one just below the period wraps to
    just below 0, and the pair sorted, so that (0, x) and (x, period) are
    one pair.  The kept rows stay sorted, and a row checks only those that
    ``bisect`` finds within 2 tol of it in the first coordinate: a
    superset of those within tol, whatever the rounding."""
    alts = [rows] if period is None else [
        rows, np.sort(np.mod(rows + 4 * tol, period) - 4 * tol, axis=1)]
    kept: list[list[float]] = []
    keep = []
    w = 2 * tol
    for k, cands in enumerate(zip(*(r.tolist() for r in alts))):
        if not any(abs(a - x) < tol and abs(b - y) < tol for x, y in cands
                   for a, b in kept[bisect_left(kept, [x - w]):
                                    bisect_right(kept, [x + w, np.inf])]):
            insort(kept, cands[0])
            keep.append(k)
    return np.array(keep, dtype=np.int64)


@dataclass
class IntersectionResult:
    """Transverse crossings, one per row of each array."""
    comp_a: np.ndarray  # component indices
    comp_b: np.ndarray
    t_a: np.ndarray  # polyline parameters (segment index + fraction)
    t_b: np.ndarray
    points: np.ndarray  # (n, 2) representatives in the plane, on a's lift
    angles: np.ndarray

    @property
    def count(self) -> int:
        return len(self.t_a)


def intersect(a: ImmersedCurve, b: ImmersedCurve, *,
              angle_tol: float = ANGLE_TOL) -> IntersectionResult:
    """Transverse intersection points of two curves on the same side.

    Counting is by strand pairs: every transverse crossing of a branch of
    ``a`` with a branch of ``b`` contributes one point, also when several
    branches pass through the same quotient point.  Crossings at angle below
    ``angle_tol`` raise GenericPositionError; crossings within
    ``CORNER_TOL`` of a corner are not points of the open pillowcase and are
    ignored.  The hits of each component pair are ordered by (t_a, t_b),
    and a hit within 1e-7 of a kept one in both parameters is dropped
    (``distinct_rows``): such duplicates arise only at shared segment
    endpoints.
    """
    if a.side != b.side:
        raise CurveError("curves live on different pillowcase factors")
    found = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
              np.empty(0), np.empty(0), np.empty((0, 2)), np.empty(0))]
    for ca, comp_a in enumerate(a.components):
        for cb, comp_b in enumerate(b.components):
            _, _, _, t_a, t_b, pts, ang = _crossings(comp_a.lift, comp_b.lift)
            low = np.flatnonzero(ang < angle_tol)
            if len(low):
                raise GenericPositionError(
                    f"tangential crossing at {pts[low[0]]} (angle below "
                    f"{angle_tol})")
            order = np.lexsort((t_b, t_a))
            keep = order[distinct_rows(np.column_stack([t_a, t_b])[order],
                                       1e-7)]
            found.append((np.full(len(keep), ca), np.full(len(keep), cb),
                          t_a[keep], t_b[keep], pts[keep], ang[keep]))
    return IntersectionResult(*map(np.concatenate, zip(*found)))


def self_intersections(comp: CurveComponent) -> IntersectionResult:
    """Transverse double points of a single component in the quotient.

    Near-tangential self-crossings (angle below ``ANGLE_TOL``) are flagged
    by exclusion (not counted).  A double point is counted once: the hits
    are ordered by (t_a, t_b), and one whose unordered parameter pair, or
    on a circle that pair mod n (parameters 0 and n are one point), lies
    within 1e-6 of a kept one is dropped (``distinct_rows``).
    """
    n = len(comp.lift) - 1
    circle = comp.kind == "circle"
    idn, i, j, ta, tb, pts, ang = _crossings(comp.lift, comp.lift)
    gap = np.abs(i - j)
    # neighbouring segments share an endpoint, and so do a circle's last
    # and first; the identity's pairs are counted once, with ta < tb
    skip = idn & ((gap <= 1) | (circle & (gap >= n - 1)) | (ta >= tb))
    keep = np.flatnonzero(~skip & (ang >= ANGLE_TOL))
    keep = keep[np.lexsort((tb[keep], ta[keep]))]
    # a crossing found via g and via g^{-1} is the same double point, with
    # the parameter pair swapped
    pairs = np.sort(np.column_stack([ta, tb])[keep], axis=1)
    keep = keep[distinct_rows(pairs, 1e-6, n if circle else None)]
    zero = np.zeros(len(keep), dtype=np.int64)
    return IntersectionResult(zero, zero, ta[keep], tb[keep], pts[keep],
                              ang[keep])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@dataclass
class ComponentInvariants:
    kind: str
    homology: tuple[int, int] | None
    corner_windings: tuple[int, int, int, int]
    double_points: int
    rotation_number: int | None

    def canonical(self) -> tuple:
        """Normalized tuple for order-free comparison.

        Reversing the traversal negates homology, windings, and turning;
        choosing the other deck lift negates homology alone.  The orbit is
        therefore factored out by normalizing the homology sign and the
        (windings, turning) sign independently.
        """
        hom = self.homology if self.homology is not None else (0, 0)
        rot = self.rotation_number if self.rotation_number is not None else 0
        hom = max(hom, (-hom[0], -hom[1]))
        cw, rot = max((self.corner_windings, rot),
                      (tuple(-w for w in self.corner_windings), -rot))
        return (self.kind, hom, cw, self.double_points, rot)


@dataclass
class CurveInvariants:
    components: list[ComponentInvariants]

    def canonical(self) -> tuple:
        return tuple(sorted(c.canonical() for c in self.components))

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveInvariants) and \
            self.canonical() == other.canonical()


def _corner_winding(comp: CurveComponent, corner_class: tuple[int, int]) -> int:
    """Signed winding of the quotient curve around one corner class.

    Strands passing within ``radius`` = 0.8 of a representative sweep some
    angle around it in the plane; the branched double cover halves angles,
    so the quotient winding is the total sweep over pi, rounded.
    """
    radius = 0.8
    lift = comp.lift
    corner = np.pi * np.array(corner_class, dtype=float)
    total = 0.0
    for shift in lattice_shifts(lift.min(axis=0) - radius - 0.1,
                                lift.max(axis=0) + radius + 0.1, corner, corner):
        rel = lift - (corner + shift)
        d = np.linalg.norm(rel, axis=1)
        if np.min(d) > radius:
            continue
        ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
        # arc endpoints sit exactly on corners; their angle is undefined
        inside = (d <= radius) & (d > 1e-9)
        # the sweeps over maximal inside runs: their steps, telescoped
        total += np.sum(np.diff(ang)[inside[:-1] & inside[1:]])
    frac = total / np.pi
    return int(np.round(frac))


def _rotation_number(comp: CurveComponent) -> int:
    seg = np.diff(comp.lift, axis=0)
    ang = np.unwrap(np.arctan2(seg[:, 1], seg[:, 0]))
    closing = wrapped_angle(ang[0] - ang[-1])
    return int(np.round((ang[-1] - ang[0] + closing) / TWO_PI))


def invariants(c: ImmersedCurve) -> CurveInvariants:
    """Proxy invariants per component: torus homology of the lift, corner
    windings, transverse double points, and the turning number (circles)."""
    out = []
    for comp in c.components:
        hom = comp.homology() if comp.kind == "circle" else None
        rot = _rotation_number(comp) if comp.kind == "circle" else None
        cw = tuple(_corner_winding(comp, cc) for cc in CORNER_CLASSES)
        dp = self_intersections(comp).count
        out.append(ComponentInvariants(comp.kind, hom, cw, dp, rot))
    return CurveInvariants(out)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

_BLOCK = 16  # consecutive segments under one run box of the distance search
_POINT_BLOCK = 32  # consecutive points under one run box of the distance search
_RUNS_PER_PASS = 8  # point runs per pass, each against every segment run
_PAIR_CHUNK = 4096  # (point, run) pairs per exact pass: 64k segment rows


def _nearest_in_block(pts, seg, blk):
    """Distance from each point to its nearest segment of run ``blk``;
    ``seg`` holds the runs' a and b - a as coordinate columns, and
    |b - a|^2.  Each sum over the coordinates runs in their order, as
    numpy's sum over a short last axis does, and gathers one coordinate's
    columns at a time."""
    a, ab, denom = seg
    dims = range(len(a))
    t = np.clip(reduce(add, ((pts[:, k, None] - a[k][blk]) * ab[k][blk]
                             for k in dims)) / denom[blk], 0.0, 1.0)
    return np.sqrt(reduce(add, (
        np.square(pts[:, k, None] - (a[k][blk] + t * ab[k][blk]))
        for k in dims))).min(axis=1)


def _least_sq(lo, hi, q_lo, q_hi):
    """Squared least distance of the boxes [lo, hi] and [q_lo, q_hi], whose
    rows are the coordinates, summed in their order."""
    return reduce(add, np.square(np.maximum(np.maximum(lo - q_hi, q_lo - hi),
                                            0.0)))


def _points_to_segments_dist(pts: np.ndarray, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest segment [a_j, b_j].

    Runs of ``_BLOCK`` segments and of ``_POINT_BLOCK`` points each sit
    under their ``_run_boxes`` box.  A point run keeps only the segment runs
    whose least box-to-box distance is at most its smallest greatest one:
    no other run holds a nearest segment of any of its points.  A point
    measures the candidate whose box is nearest, then every one whose box
    is nearer than the distance found.  Point runs and (point, run) pairs
    go in chunks, so temporaries stay at a few MB.  The bounds sum squared
    coordinate differences in the order the distances do, and rounding is
    monotone, so they bound the measured distances too.
    """
    # a measured point a + t (b - a) can round an ulp outside its segment's box
    pad = 8 * np.spacing(max(np.abs(a).max(), np.abs(b).max()))
    blocks, box = _run_boxes(a, b, _BLOCK, pad)[1:]
    runs, pbox = _run_boxes(pts, pts, _POINT_BLOCK)[1:]
    lo, hi = np.split(box, 2)
    # the last run repeats its last segment; a repeat cannot lower a min
    a_cols = [x[blocks] for x in a.T]
    ab_cols = [x[blocks] - y for x, y in zip(b.T, a_cols)]
    seg = a_cols, ab_cols, np.maximum(reduce(add, map(np.square, ab_cols)),
                                      1e-300)
    best = np.empty(len(pts))
    for first in range(0, len(runs), _RUNS_PER_PASS):
        chunk = slice(first, first + _RUNS_PER_PASS)
        run = runs[chunk]
        p_lo, p_hi = np.split(pbox[:, chunk, None], 2)
        greatest = reduce(add, np.square(np.maximum(p_hi - lo[:, None],
                                                    hi[:, None] - p_lo)))
        keep = _least_sq(lo[:, None], hi[:, None], p_lo, p_hi) <= \
            greatest.min(axis=1, keepdims=True)
        # each run's kept segment runs first, padded to the chunk's longest
        # list with slots of infinite bound
        cand = np.argsort(~keep, axis=1, kind="stable")[:, :keep.sum(1).max()]
        x = np.moveaxis(pts[run], 2, 0)[..., None]
        lower = np.where(np.take_along_axis(keep, cand, axis=1)[:, None],
                         np.sqrt(_least_sq(lo[:, cand][:, :, None],
                                           hi[:, cand][:, :, None], x, x)),
                         np.inf).reshape(-1, cand.shape[1])
        cand = np.repeat(cand, _POINT_BLOCK, axis=0)
        p = pts[run.ravel()]
        at = np.arange(len(p)), np.argmin(lower, axis=1)
        d = _nearest_in_block(p, seg, cand[at])
        lower[at] = np.inf
        pi, ki = np.nonzero(lower < d[:, None])
        bi = cand[pi, ki]
        for k in range(0, len(pi), _PAIR_CHUNK):
            pk = pi[k:k + _PAIR_CHUNK]
            np.minimum.at(d, pk, _nearest_in_block(p[pk], seg,
                                                   bi[k:k + _PAIR_CHUNK]))
        best[run.ravel()] = d
    return best


def hausdorff_r3(a: ImmersedCurve, b: ImmersedCurve) -> float:
    """Symmetric Hausdorff distance between the curves' images in the
    character-coordinate embedding."""
    polys_a = [r3_of_orbit(*c.lift.T) for c in a.components]
    polys_b = [r3_of_orbit(*c.lift.T) for c in b.components]

    def to_curve(pts, polys):  # nearest segment of any component
        return _points_to_segments_dist(pts, np.vstack([q[:-1] for q in polys]),
                                        np.vstack([q[1:] for q in polys]))

    d_ab = to_curve(np.vstack(polys_a), polys_b)
    d_ba = to_curve(np.vstack(polys_b), polys_a)
    return float(max(d_ab.max(), d_ba.max()))
