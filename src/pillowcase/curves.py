"""Immersed-curve calculus in the pillowcase.

A curve is a list of components, each carried as a polyline lift in the plane
(the universal cover of the base torus).  Circle components close up to a
lattice vector in 2 pi Z^2 (their torus homology); good-arc components run
from one half-lattice corner point to another and stay away from corners in
between.  Points of the pillowcase are plane orbits under the group generated
by the lattice translations and u -> -u, so comparisons and intersections
test lattice-and-flip translates of segment pairs.

Supported operations: doubling and twisted doubling of circles, the
figure-eight circle supported by a good arc (equivariant double pushed off
along the normal by a -2s cos profile), transverse intersection counting,
a regular-homotopy proxy invariant tuple per component, and the Hausdorff
distance of curve images in character coordinates, by an exact
nearest-segment search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

CORNER_CLASSES = [(0, 0), (1, 0), (0, 1), (1, 1)]


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

    def validate(self, turn_limit_deg: float = 15.0):
        seg = np.diff(self.lift, axis=0)
        lens = np.linalg.norm(seg, axis=1)
        if np.any(lens < 1e-12):
            raise CurveError("degenerate polyline segment")
        ang = np.arctan2(seg[:, 1], seg[:, 0])
        turns = np.abs(np.mod(np.diff(ang) + np.pi, TWO_PI) - np.pi)
        if self.kind == "circle":
            closing = np.abs(np.mod(ang[0] - ang[-1] + np.pi, TWO_PI) - np.pi)
            turns = np.append(turns, closing)
            self.homology()
        if np.max(turns) > np.deg2rad(turn_limit_deg):
            raise CurveError(
                f"polyline turns by {np.rad2deg(np.max(turns)):.1f} deg; not an "
                "immersion at this resolution")
        if self.kind == "good_arc":
            for end in (self.lift[0], self.lift[-1]):
                if np.max(np.abs(end / np.pi - np.round(end / np.pi))) > 1e-7:
                    raise CurveError("good arc must start and end at corner "
                                     "lattice points")
            interior = self.lift[1:-1]
            d = _corner_lattice_distance(interior)
            if np.min(d) < 1e-9:
                raise CurveError("good arc passes through a corner")
        return self


def _corner_lattice_distance(pts: np.ndarray) -> np.ndarray:
    """Distance of plane points to the half-lattice pi Z^2."""
    r = pts / np.pi
    return np.pi * np.max(np.abs(r - np.round(r)), axis=1)


@dataclass
class ImmersedCurve:
    components: list[CurveComponent]
    side: str = "P0"
    name: str = ""

    def __post_init__(self):
        if self.side not in ("P0", "P1"):
            raise CurveError(f"unknown side {self.side!r}")

    def validate(self) -> "ImmersedCurve":
        for c in self.components:
            c.validate()
        return self

    def relabel(self, side: str) -> "ImmersedCurve":
        return ImmersedCurve([CurveComponent(c.kind, c.lift.copy())
                              for c in self.components], side, self.name)

    def map_lift(self, fn, name: str = "") -> "ImmersedCurve":
        comps = [CurveComponent(c.kind, np.apply_along_axis(fn, 1, c.lift))
                 for c in self.components]
        return ImmersedCurve(comps, self.side, name or self.name)

    def to_json(self) -> str:
        return json.dumps({
            "side": self.side,
            "components": [{"kind": c.kind, "lift": c.lift.tolist()}
                           for c in self.components],
        })

    @classmethod
    def from_json(cls, text: str) -> "ImmersedCurve":
        data = json.loads(text)
        comps = [CurveComponent(c["kind"], np.asarray(c["lift"], dtype=float))
                 for c in data["components"]]
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


def _edge_sub_arc(corner: tuple[float, float], direction: tuple[float, float],
                  eps: float, n: int) -> CurveComponent:
    c = np.asarray(corner, dtype=float)
    d = np.asarray(direction, dtype=float)
    return CurveComponent("good_arc", _polyline(lambda t: tuple(c + t * d), 0.0,
                                                eps, n))


def standard_arcs(eps: float = 1.0, n: int = 241) -> dict[str, ImmersedCurve]:
    """The named arcs: the bottom edge, the four edge sub-arcs starting at
    each corner, and the two sloped arcs of the torus-knot example.

    The sub-arcs are embedded paths in the top or bottom edge; applying the
    half-lattice symmetries matches them up: br = w2_hat(bl), tr = w1_hat(bl),
    tl = w1_hat(br).
    """
    out = {
        "beta": bottom_edge(),
        "slope_one": slope_one_arc(),
        "slope_two": slope_two_arc(),
        "beta_bl": ImmersedCurve([_edge_sub_arc((0, 0), (1, 0), eps, n)], "P0",
                                 "beta_bl"),
        "beta_br": ImmersedCurve([_edge_sub_arc((np.pi, 0), (-1, 0), eps, n)],
                                 "P0", "beta_br"),
        "beta_tl": ImmersedCurve([_edge_sub_arc((0, np.pi), (1, 0), eps, n)],
                                 "P0", "beta_tl"),
        "beta_tr": ImmersedCurve([_edge_sub_arc((np.pi, np.pi), (-1, 0), eps, n)],
                                 "P0", "beta_tr"),
    }
    # note: the sub-arcs are not corner-to-corner, so skip full validation
    out["beta"].validate()
    out["slope_one"].validate()
    out["slope_two"].validate()
    return out


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

def _box_cells(P0, P1, cell):
    """(segment, cell, first cell of the segment's box) for every
    uniform-grid cell that a segment's bounding box touches; cells are
    integer (x, y) rows, listed x-major per segment."""
    lo = np.floor(np.minimum(P0, P1) / cell).astype(np.int64)
    span = np.floor(np.maximum(P0, P1) / cell).astype(np.int64) - lo + 1
    count = span[:, 0] * span[:, 1]
    seg = np.repeat(np.arange(len(P0)), count)
    k = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
    off = np.column_stack([k // span[seg, 1], k % span[seg, 1]])
    return seg, lo[seg] + off, lo[seg]


def _candidate_pairs(P0, P1, Q0, Q1):
    """Index pairs of segments whose bounding boxes can meet, found with a
    uniform grid over segment boxes (both families are short-segment
    polylines, so each segment touches a handful of cells).

    Pairs come ordered by i, then by the first cell of i's box they share,
    then by j; each pair once.
    """
    lens = np.concatenate([np.linalg.norm(P1 - P0, axis=1),
                           np.linalg.norm(Q1 - Q0, axis=1)])
    cell = max(1e-6, 2.0 * float(np.max(lens)))
    ip, cp, lop = _box_cells(P0, P1, cell)
    jq, cq, loq = _box_cells(Q0, Q1, cell)
    # one integer key per cell; Q's cells sorted by (key, j)
    y0 = min(cp[:, 1].min(initial=0), cq[:, 1].min(initial=0))
    width = max(cp[:, 1].max(initial=0), cq[:, 1].max(initial=0)) - y0 + 1
    kp = cp[:, 0] * width + (cp[:, 1] - y0)
    kq = cq[:, 0] * width + (cq[:, 1] - y0)
    order = np.lexsort((jq, kq))
    kq, jq, loq = kq[order], jq[order], loq[order]
    first = np.searchsorted(kq, kp, side="left")
    n = np.searchsorted(kq, kp, side="right") - first
    e = np.repeat(np.arange(kp.size), n)  # P cell entry of each match
    f = np.repeat(first - np.cumsum(n) + n, n) + np.arange(e.size)
    # two boxes share a block of cells; keep the pair at its first cell
    once = np.all(cp[e] == np.maximum(lop[e], loq[f]), axis=1)
    return ip[e[once]], jq[f[once]]


def _segment_crossings(P0, P1, Q0, Q1, angle_tol):
    """Proper crossings between two segment families (grid-culled).

    Returns index pairs, parameters, points, and a flag array marking
    near-tangential crossings.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0), np.empty(0), np.empty((0, 2)),
             np.empty(0, dtype=bool))
    ic, jc = _candidate_pairs(P0, P1, Q0, Q1)
    if len(ic) == 0:
        return empty
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
    if not np.any(hit):
        return empty
    ii = ic[hit]
    jj = jc[hit]
    tt = t[hit]
    uu = u[hit]
    pts = P0[ii] + tt[:, None] * (P1[ii] - P0[ii])
    a1 = np.arctan2(P1[ii, 1] - P0[ii, 1], P1[ii, 0] - P0[ii, 0])
    a2 = np.arctan2(Q1[jj, 1] - Q0[jj, 1], Q1[jj, 0] - Q0[jj, 0])
    ang = np.abs(np.mod(a1 - a2 + np.pi / 2, np.pi) - np.pi / 2)
    tangential = ang < angle_tol
    return ii, jj, tt, uu, pts, tangential


def _translates(lift_a: np.ndarray, lift_b: np.ndarray):
    """Group elements g = (sign, shift) whose image of lift_b can meet lift_a."""
    lo_a = lift_a.min(axis=0) - 1e-6
    hi_a = lift_a.max(axis=0) + 1e-6
    out = []
    for sign in (1, -1):
        bb = sign * lift_b
        lo_b = bb.min(axis=0)
        hi_b = bb.max(axis=0)
        k0 = np.floor((lo_a - hi_b) / TWO_PI).astype(int)
        k1 = np.ceil((hi_a - lo_b) / TWO_PI).astype(int)
        for m in range(k0[0], k1[0] + 1):
            for nn in range(k0[1], k1[1] + 1):
                out.append((sign, np.array([TWO_PI * m, TWO_PI * nn])))
    return out


@dataclass
class Intersection:
    point: np.ndarray  # representative in the plane (on curve a's lift)
    comp_a: int
    comp_b: int
    t_a: float  # polyline parameter (segment index + fraction)
    t_b: float
    angle: float


@dataclass
class IntersectionResult:
    points: list[Intersection]

    @property
    def count(self) -> int:
        return len(self.points)


def intersect(a: ImmersedCurve, b: ImmersedCurve, *, angle_tol: float = 1e-3,
              corner_tol: float = 1e-6, dedup_tol: float = 1e-7) -> IntersectionResult:
    """Transverse intersection points of two curves on the same side.

    Counting is by strand pairs: every transverse crossing of a branch of
    ``a`` with a branch of ``b`` contributes one point, also when several
    branches pass through the same quotient point.  Crossings at angle below
    ``angle_tol`` raise GenericPositionError; crossings within ``corner_tol``
    of a corner are not points of the open pillowcase and are ignored.
    """
    if a.side != b.side:
        raise CurveError("curves live on different pillowcase factors")
    found: list[Intersection] = []
    for ca, comp_a in enumerate(a.components):
        A0 = comp_a.lift[:-1]
        A1 = comp_a.lift[1:]
        for cb, comp_b in enumerate(b.components):
            hits: list[tuple[float, float, np.ndarray, float]] = []
            for sign, shift in _translates(comp_a.lift, comp_b.lift):
                B = sign * comp_b.lift + shift
                ii, jj, tt, uu, pts, tang = _segment_crossings(
                    A0, A1, B[:-1], B[1:], angle_tol)
                for k in range(len(ii)):
                    pt = pts[k]
                    if _corner_lattice_distance(pt[None, :])[0] < corner_tol:
                        continue
                    if tang[k]:
                        raise GenericPositionError(
                            f"tangential crossing at {pt} (angle below "
                            f"{angle_tol})")
                    seg = A1[ii[k]] - A0[ii[k]]
                    segb = B[jj[k] + 1] - B[jj[k]]
                    ang = np.abs(np.mod(np.arctan2(seg[1], seg[0])
                                        - np.arctan2(segb[1], segb[0])
                                        + np.pi / 2, np.pi) - np.pi / 2)
                    hits.append((ii[k] + tt[k], jj[k] + uu[k], pt, float(ang)))
            # dedup by parameter pairs (duplicates arise only at shared
            # segment endpoints)
            hits.sort(key=lambda h: (h[0], h[1]))
            kept: list[tuple[float, float, np.ndarray, float]] = []
            for h in hits:
                dup = any(abs(h[0] - k0) < dedup_tol and abs(h[1] - k1) < dedup_tol
                          for k0, k1, _, _ in kept)
                if not dup:
                    kept.append(h)
            for t_a, t_b, pt, ang in kept:
                found.append(Intersection(pt, ca, cb, t_a, t_b, ang))
    return IntersectionResult(found)


def self_intersections(comp: CurveComponent, *, angle_tol: float = 1e-3,
                       corner_tol: float = 1e-6) -> list[Intersection]:
    """Transverse double points of a single component in the quotient.

    Near-tangential self-crossings are flagged by exclusion (not counted);
    crossing pairs are counted once.
    """
    lift = comp.lift
    A0, A1 = lift[:-1], lift[1:]
    n = len(A0)
    hits: list[tuple[float, float, np.ndarray]] = []
    for sign, shift in _translates(lift, lift):
        B = sign * lift + shift
        identity = sign == 1 and np.max(np.abs(shift)) < 1e-12
        ii, jj, tt, uu, pts, tang = _segment_crossings(A0, A1, B[:-1], B[1:],
                                                       angle_tol)
        for k in range(len(ii)):
            i, j = int(ii[k]), int(jj[k])
            if identity and (abs(i - j) <= 1 or abs(i - j) >= n - 1):
                continue  # adjacent segments share an endpoint
            if tang[k]:
                continue  # flagged, not counted
            pt = pts[k]
            if _corner_lattice_distance(pt[None, :])[0] < corner_tol:
                continue
            ta, tb = i + tt[k], j + uu[k]
            if identity and ta >= tb:
                continue  # count unordered pairs once
            hits.append((ta, tb, pt))
    # a crossing found via g and via g^{-1} is the same double point: the
    # parameter pair appears swapped; dedup on unordered pairs
    kept: list[tuple[float, float]] = []
    out: list[Intersection] = []
    for ta, tb, pt in sorted(hits):
        lo, hi = min(ta, tb), max(ta, tb)
        # endpoint wrap: parameters 0 and n describe the same point on circles
        if comp.kind == "circle":
            span = n
            cand = [(lo, hi), (np.mod(lo, span), np.mod(hi, span))]
        else:
            cand = [(lo, hi)]
        dup = False
        for l0, h0 in kept:
            for l1, h1 in cand:
                if abs(l0 - l1) < 1e-6 and abs(h0 - h1) < 1e-6:
                    dup = True
        if not dup:
            kept.append((lo, hi))
            out.append(Intersection(pt, 0, 0, ta, tb, 0.0))
    return out


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

    @property
    def component_count(self) -> int:
        return len(self.components)

    def canonical(self) -> tuple:
        return tuple(sorted(c.canonical() for c in self.components))

    def __eq__(self, other) -> bool:
        return isinstance(other, CurveInvariants) and \
            self.canonical() == other.canonical()


def _corner_winding(comp: CurveComponent, corner_class: tuple[int, int],
                    radius: float = 0.8) -> int:
    """Signed winding of the quotient curve around one corner class.

    Strands passing within ``radius`` of a representative sweep some angle
    around it in the plane; the branched double cover halves angles, so the
    quotient winding is the total sweep over pi, rounded.
    """
    lift = comp.lift
    lo = lift.min(axis=0) - radius - 0.1
    hi = lift.max(axis=0) + radius + 0.1
    total = 0.0
    g0 = corner_class[0] * np.pi
    t0 = corner_class[1] * np.pi
    for m in range(int(np.floor((lo[0] - g0) / TWO_PI)),
                   int(np.ceil((hi[0] - g0) / TWO_PI)) + 1):
        for nn in range(int(np.floor((lo[1] - t0) / TWO_PI)),
                        int(np.ceil((hi[1] - t0) / TWO_PI)) + 1):
            r = np.array([g0 + TWO_PI * m, t0 + TWO_PI * nn])
            rel = lift - r
            d = np.linalg.norm(rel, axis=1)
            if np.min(d) > radius:
                continue
            ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
            # arc endpoints sit exactly on corners; their angle is undefined
            inside = (d <= radius) & (d > 1e-9)
            # sum sweeps over maximal inside runs
            k = 0
            while k < len(lift):
                if inside[k]:
                    k2 = k
                    while k2 + 1 < len(lift) and inside[k2 + 1]:
                        k2 += 1
                    total += ang[k2] - ang[k]
                    k = k2 + 1
                else:
                    k += 1
    frac = total / np.pi
    return int(np.round(frac))


def _rotation_number(comp: CurveComponent) -> int:
    seg = np.diff(comp.lift, axis=0)
    ang = np.unwrap(np.arctan2(seg[:, 1], seg[:, 0]))
    closing = np.mod(ang[0] - ang[-1] + np.pi, TWO_PI) - np.pi
    return int(np.round((ang[-1] - ang[0] + closing) / TWO_PI))


def invariants(c: ImmersedCurve) -> CurveInvariants:
    """Proxy invariants per component: torus homology of the lift, corner
    windings, transverse double points, and the turning number (circles)."""
    out = []
    for comp in c.components:
        hom = comp.homology() if comp.kind == "circle" else None
        rot = _rotation_number(comp) if comp.kind == "circle" else None
        cw = tuple(_corner_winding(comp, cc) for cc in CORNER_CLASSES)
        dp = len(self_intersections(comp))
        out.append(ComponentInvariants(comp.kind, hom, cw, dp, rot))
    return CurveInvariants(out)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def lift_to_r3(lift: np.ndarray) -> np.ndarray:
    """Character coordinates of plane points (orbit-invariant)."""
    g = lift[:, 0]
    t = lift[:, 1]
    return np.column_stack([np.cos(g), np.cos(t), np.cos(g - t)])


_BLOCK = 16  # consecutive segments under one bounding ball
_POINT_CHUNK = 256  # points per ball pass: a (256, blocks) bound matrix
_PAIR_CHUNK = 4096  # (point, block) pairs per exact pass: 64k segment rows


def _segment_dist(pts, a, ab, denom, seg):
    """Distance from each point to the segment with the same index in
    ``seg``; ``pts`` broadcasts against the rows of ``seg``."""
    ap = pts - a[seg]
    t = np.clip(np.sum(ap * ab[seg], axis=-1) / denom[seg], 0.0, 1.0)
    proj = a[seg] + t[..., None] * ab[seg]
    return np.linalg.norm(pts - proj, axis=-1)


def _points_to_segments_dist(pts: np.ndarray, a: np.ndarray,
                             b: np.ndarray) -> np.ndarray:
    """Exact distance from each point to the nearest segment [a_j, b_j].

    The segments are taken in blocks of ``_BLOCK`` consecutive ones, each
    under a bounding ball.  A point first measures the block whose ball is
    nearest, then every block whose ball is nearer than the distance found:
    no other block can hold a nearer segment.  Points and (point, block)
    pairs are processed in chunks, so temporaries stay at a few MB.
    """
    ab = b - a
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    n_seg = len(a)
    n_blk = -(-n_seg // _BLOCK)
    # the last block repeats its last segment; a repeat cannot lower a min
    blocks = np.minimum(np.arange(n_blk * _BLOCK), n_seg - 1).reshape(
        n_blk, _BLOCK)
    ends = np.concatenate([a[blocks], b[blocks]], axis=1)
    center = 0.5 * (ends.min(axis=1) + ends.max(axis=1))
    radius = np.sqrt(np.sum((ends - center[:, None]) ** 2, axis=2)).max(axis=1)
    # |p - c|^2 = |p|^2 + |c|^2 - 2 p.c is off by at most ~16 eps M^2 (M the
    # largest norm), so its root by at most 4 sqrt(eps) M < 1e-7 M
    cc = np.sum(center * center, axis=1)
    pp = np.sum(pts * pts, axis=1)
    scale = np.sqrt(max(cc.max(), pp.max(initial=0.0)))
    radius = radius + 1e-7 * (1.0 + scale)
    best = np.empty(len(pts))
    for lo in range(0, len(pts), _POINT_CHUNK):
        p = pts[lo:lo + _POINT_CHUNK]
        sq = pp[lo:lo + _POINT_CHUNK, None] + cc - 2.0 * (p @ center.T)
        lower = np.sqrt(np.maximum(sq, 0.0)) - radius
        first = np.argmin(lower, axis=1)
        d = _segment_dist(p[:, None, :], a, ab, denom, blocks[first]).min(axis=1)
        lower[np.arange(len(p)), first] = np.inf
        pi, bi = np.nonzero(lower < d[:, None])
        for k in range(0, len(pi), _PAIR_CHUNK):
            pk, bk = pi[k:k + _PAIR_CHUNK], bi[k:k + _PAIR_CHUNK]
            dk = _segment_dist(p[pk, None, :], a, ab, denom, blocks[bk])
            np.minimum.at(d, pk, dk.min(axis=1))
        best[lo:lo + _POINT_CHUNK] = d
    return best


def _points_to_polyline_dist(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline."""
    return _points_to_segments_dist(pts, poly[:-1], poly[1:])


def hausdorff_r3(a: ImmersedCurve, b: ImmersedCurve) -> float:
    """Symmetric Hausdorff distance between the curves' images in the
    character-coordinate embedding."""
    polys_a = [lift_to_r3(c.lift) for c in a.components]
    polys_b = [lift_to_r3(c.lift) for c in b.components]

    def to_curve(pts, polys):  # nearest segment of any component
        return _points_to_segments_dist(pts, np.vstack([q[:-1] for q in polys]),
                                        np.vstack([q[1:] for q in polys]))

    d_ab = to_curve(np.vstack(polys_a), polys_b)
    d_ba = to_curve(np.vstack(polys_b), polys_a)
    return float(max(d_ab.max(), d_ba.max()))
