import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase.cli import torus_knot_scene
from pillowcase.projection import r3_of_orbit

from pillow_reference import PillowPoint, clip_segments, w1_hat, w2_hat

TWO_PI = 2 * np.pi


def brute_force_quotient_intersections(a: C.ImmersedCurve, b: C.ImmersedCurve,
                                       corner_tol=1e-6):
    """Independent oracle: test every segment pair under every relevant
    lattice-and-flip translate with a direct O(n m) sweep, all (i, j) pairs
    of one translate at once."""
    hits = []
    for ia, comp_a in enumerate(a.components):
        A = comp_a.lift
        p, r = A[:-1, None], (A[1:] - A[:-1])[:, None]
        for ib, comp_b in enumerate(b.components):
            for sign in (1, -1):
                base = sign * comp_b.lift
                lo = A.min(axis=0) - base.max(axis=0) - 0.1
                hi = A.max(axis=0) - base.min(axis=0) + 0.1
                for m in range(int(np.floor(lo[0] / TWO_PI)),
                               int(np.ceil(hi[0] / TWO_PI)) + 1):
                    for n in range(int(np.floor(lo[1] / TWO_PI)),
                                   int(np.ceil(hi[1] / TWO_PI)) + 1):
                        B = base + np.array([TWO_PI * m, TWO_PI * n])
                        q, sgm = B[None, :-1], (B[1:] - B[:-1])[None]
                        den = r[..., 0] * sgm[..., 1] - r[..., 1] * sgm[..., 0]
                        d = q - p
                        with np.errstate(divide="ignore", invalid="ignore"):
                            t = (d[..., 0] * sgm[..., 1]
                                 - d[..., 1] * sgm[..., 0]) / den
                            u = (d[..., 0] * r[..., 1]
                                 - d[..., 1] * r[..., 0]) / den
                        i, j = np.nonzero(
                            (den != 0) & (-1e-12 <= t) & (t < 1 - 1e-12)
                            & (-1e-12 <= u) & (u < 1 - 1e-12))
                        t, u = t[i, j], u[i, j]
                        pt = A[i] + t[:, None] * r[i, 0]
                        far = C._corner_lattice_distance(pt) > corner_tol
                        hits += [(x, y, ia, ib) for x, y in zip(
                            (i + t)[far].tolist(), (j + u)[far].tolist())]
    # dedup parameter pairs per component pair
    out = []
    for h in sorted(hits):
        if not any(abs(h[0] - x) < 1e-7 and abs(h[1] - y) < 1e-7
                   and h[2] == ca and h[3] == cb for x, y, ca, cb in out):
            out.append(h)
    return out


def test_component_validation():
    with pytest.raises(C.CurveError):
        C.CurveComponent("circle", np.array([[0, 0], [1, 1]]))
    # circle must close modulo the lattice
    bad = C.CurveComponent("circle", C._polyline(lambda t: (t, 0.3 * t), 0,
                                                 1.0, 50))
    with pytest.raises(C.CurveError):
        bad.validate()
    # good arc endpoints must be corners
    bad = C.CurveComponent("good_arc",
                           C._polyline(lambda t: (t, 0.5), 0, np.pi, 50))
    with pytest.raises(C.CurveError):
        bad.validate()
    # a circle along an edge runs through the corners; one far out in the
    # plane has lost its place against them
    edge = C.CurveComponent("circle", C._polyline(lambda t: (0.0, t), 0,
                                                  TWO_PI, 50))
    far = C.CurveComponent("circle", C.vertical_circle().components[0].lift
                           + (2e6, 0.0))
    for bad in (edge, far):
        with pytest.raises(C.CurveError):
            bad.validate()
    C.bottom_edge().validate()
    C.vertical_circle().validate()


def test_segments_keep_off_the_corners():
    # three segments, each across more than one lattice cell, along the
    # line theta = pi + (gamma - pi) / 2: through the corner (pi, pi)
    # between two vertices, and clear of the corners once moved 0.3 up
    g = 0.5 + np.arange(4) * 4 * np.pi / 3
    line = np.column_stack([g, np.pi + (g - np.pi) / 2])
    with pytest.raises(C.CurveError, match="circle passes through a corner"):
        C.CurveComponent("circle", line).validate()
    C.CurveComponent("circle", line + (0.0, 0.3)).validate()
    # a good arc's first segment may end on its corner, not cross another
    C.CurveComponent("good_arc", [[0, 0], [1, 1], [np.pi, np.pi]]).validate()
    arc = C.CurveComponent("good_arc", [[0, 0], [4, 0], [2 * np.pi, 0]])
    with pytest.raises(C.CurveError, match="good arc passes through a corner"):
        arc.validate()
    # segments along gamma = pi + d, no vertex near a corner: the rule's
    # bound is 1e-9 from the corners (pi, pi) and (pi, 2 pi)
    for d in (1e-8, -1e-8, 1e-10, -1e-10):
        comp = C.CurveComponent("circle", C._polyline(
            lambda t: (np.pi + d, t), 0.5, 0.5 + TWO_PI, 50))
        if abs(d) > 1e-9:
            comp.validate()
        else:
            with pytest.raises(C.CurveError):
                comp.validate()


def test_equivariant_lift_closes_smoothly():
    for arc in (C.bottom_edge(), C.slope_one_arc(), C.wavy_arc()):
        lift = C.equivariant_circle_lift(arc.components[0])
        lam = lift[-1] - lift[0]
        assert np.max(np.abs(lam / TWO_PI - np.round(lam / TWO_PI))) < 1e-9
        comp = C.CurveComponent("circle", lift)
        comp.homology()
        # validate's other checks, made directly: the lift runs through the
        # two corners of the arc, which validate refuses in a circle
        assert np.all(np.isfinite(lift))
        assert np.min(np.linalg.norm(np.diff(lift, axis=0), axis=1)) >= 1e-12
        assert np.max(C.turning_angles(lift, closed=True)) <= C.TURN_LIMIT


def test_standard_arcs_and_symmetries():
    for arc in (C.bottom_edge(), C.slope_one_arc(), C.slope_two_arc()):
        arc.validate()
    a1 = C.slope_one_arc().components[0].lift
    assert np.allclose(a1[0], (0, 0)) and np.allclose(a1[-1], (np.pi, np.pi))
    a2 = C.slope_two_arc().components[0].lift
    assert np.allclose(a2[-1], (np.pi, 2 * np.pi))

    # the edge sub-arcs of length 1 from each corner, along the top or
    # bottom edge: br = w2(bl), tr = w1(bl), tl = w1(br) as pillowcase sets
    t = np.linspace(0.0, 1.0, 241)
    arcs = {"bl": (t, 0 * t), "br": (np.pi - t, 0 * t),
            "tl": (t, np.pi + 0 * t), "tr": (np.pi - t, np.pi + 0 * t)}

    def orbit_points(name):
        return [PillowPoint.from_orbit("P0", x, y) for x, y in zip(*arcs[name])]

    for target, source, m in [("br", "bl", w2_hat), ("tr", "bl", w1_hat),
                              ("tl", "br", w1_hat)]:
        got = [m(p) for p in orbit_points(source)]
        want = orbit_points(target)
        worst = max(min(g.distance(w) for w in want) for g in got)
        assert worst < 1e-9, (target, worst)


def test_double_and_twisted_double():
    bver = C.vertical_circle()
    d = C.double(bver)
    assert len(d.components) == 2
    assert all(np.allclose(c.lift, bver.components[0].lift)
               for c in d.components)
    dt = C.twisted_double(bver)
    assert len(dt.components) == 1
    assert dt.components[0].homology() == (0, 2)
    with pytest.raises(C.CurveError):
        C.double(C.bottom_edge())
    # total corner windings double under D
    f8 = C.figure_eight(C.bottom_edge(), 0.05)
    w1 = np.sum([c.corner_windings for c in C.invariants(f8).components],
                axis=0)
    w2 = np.sum([c.corner_windings for c in C.invariants(C.double(f8)).components],
                axis=0)
    assert np.all(w2 == 2 * w1)


def test_figure_eight_model():
    # the edge model: sigma -> (sigma, -2 s cos sigma), one double point at
    # the half-way corner height
    s = 0.05
    f8 = C.figure_eight(C.bottom_edge(), s, n=4096)
    model = np.column_stack([np.linspace(0, TWO_PI, 8193),
                             -2 * s * np.cos(np.linspace(0, TWO_PI, 8193))])
    pred = C.ImmersedCurve([C.CurveComponent("circle", model)], "P0")
    assert C.hausdorff_r3(f8, pred) < 1e-6
    dps = C.self_intersections(f8.components[0])
    assert dps.count == 1
    got = PillowPoint.from_orbit("P0", *dps.points[0])
    assert got.distance(PillowPoint.from_orbit("P0", np.pi / 2, 0.0)) < 1e-6


def test_figure_eight_sign_and_errors():
    a = C.figure_eight(C.wavy_arc(), 0.05)
    b = C.figure_eight(C.wavy_arc(), -0.05)
    assert C.hausdorff_r3(a, b) < 1e-9
    with pytest.raises(C.CurveError):
        C.figure_eight(C.vertical_circle(), 0.05)
    curly = C.ImmersedCurve([C.CurveComponent(
        "good_arc",
        C._polyline(lambda t: (t, t + 0.3 * np.sin(4 * t)), 0, np.pi, 721))],
        "P0")
    with pytest.raises(C.CurveError):
        C.figure_eight(curly, 0.5)  # offset beyond curvature reach


def test_invariants_examples():
    inv = C.invariants(C.vertical_circle()).components[0]
    assert inv.corner_windings == (0, 0, 0, 0)
    assert inv.homology == (0, 1)
    assert inv.double_points == 0

    inv = C.invariants(C.figure_eight(C.bottom_edge(), 0.05)).components[0]
    assert inv.double_points == 1
    w = inv.corner_windings
    assert abs(w[0]) == 1 and abs(w[1]) == 1 and w[0] == -w[1]
    assert w[2] == 0 and w[3] == 0

    empty = C.ImmersedCurve([], "P0")
    assert C.invariants(empty).components == []


def _ref_corner_winding(comp, corner_class):
    """``curves._corner_winding`` with the sweep of every maximal inside run
    taken end to end, the loop that the telescoped sum replaced."""
    radius = 0.8
    lift = comp.lift
    lo = lift.min(axis=0) - radius - 0.1
    hi = lift.max(axis=0) + radius + 0.1
    total = 0.0
    g0, t0 = corner_class[0] * np.pi, corner_class[1] * np.pi
    for m in range(int(np.floor((lo[0] - g0) / C.TWO_PI)),
                   int(np.ceil((hi[0] - g0) / C.TWO_PI)) + 1):
        for nn in range(int(np.floor((lo[1] - t0) / C.TWO_PI)),
                        int(np.ceil((hi[1] - t0) / C.TWO_PI)) + 1):
            rel = lift - [g0 + C.TWO_PI * m, t0 + C.TWO_PI * nn]
            d = np.linalg.norm(rel, axis=1)
            ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
            inside = (d <= radius) & (d > 1e-9)
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
    return int(np.round(total / np.pi))


def _ref_translates(lift_a, lift_b):
    """The double loop ``curves.translates`` ran before ``lattice_shifts``."""
    lo_a = lift_a.min(axis=0) - 1e-6
    hi_a = lift_a.max(axis=0) + 1e-6
    out = []
    for sign in (1, -1):
        bb = sign * lift_b
        k0 = np.floor((lo_a - bb.max(axis=0)) / C.TWO_PI).astype(int)
        k1 = np.ceil((hi_a - bb.min(axis=0)) / C.TWO_PI).astype(int)
        for m in range(k0[0], k1[0] + 1):
            for nn in range(k0[1], k1[1] + 1):
                out.append((sign, np.array([C.TWO_PI * m, C.TWO_PI * nn])))
    return out


def _ref_corner_representatives(lift, corner_class):
    """The corner representatives ``curves._corner_winding`` looped over
    before ``lattice_shifts``."""
    lo = lift.min(axis=0) - 0.8 - 0.1
    hi = lift.max(axis=0) + 0.8 + 0.1
    g0, t0 = corner_class[0] * np.pi, corner_class[1] * np.pi
    return [np.array([g0 + C.TWO_PI * m, t0 + C.TWO_PI * nn])
            for m in range(int(np.floor((lo[0] - g0) / C.TWO_PI)),
                           int(np.ceil((hi[0] - g0) / C.TWO_PI)) + 1)
            for nn in range(int(np.floor((lo[1] - t0) / C.TWO_PI)),
                            int(np.ceil((hi[1] - t0) / C.TWO_PI)) + 1)]


def _ref_clip_segments(lift):
    """``_svg._clip_segments`` with its own, one wider, shift ranges."""
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
                inside = ((shifted[:, 0] >= -0.02)
                          & (shifted[:, 0] <= np.pi + 0.02)
                          & (shifted[:, 1] >= -0.02)
                          & (shifted[:, 1] <= TWO_PI + 0.02))
                k = 0
                while k < len(inside):
                    if inside[k]:
                        k2 = k
                        while k2 + 1 < len(inside) and inside[k2 + 1]:
                            k2 += 1
                        if k2 + 1 - k >= 2:
                            segs.append(shifted[k:k2 + 1])
                        k = k2 + 1
                    else:
                        k += 1
    return segs


def _meets(lo_a, hi_a, lo_b, hi_b) -> bool:
    """Whether the boxes [lo_a, hi_a] and [lo_b, hi_b] meet."""
    return bool(np.all(lo_b <= hi_a) and np.all(hi_b >= lo_a))


def test_lattice_shifts_match_the_loops_they_replaced():
    # the loops rounded their shift ranges outward; ``lattice_shifts`` lists
    # the same shifts, less those whose image misses the box
    from pillowcase import _svg

    rng = np.random.default_rng(17)
    lifts = [c.lift for cur in (
        C.bottom_edge(), C.vertical_circle(), C.slope_two_arc(), C.wavy_arc(),
        C.twisted_double(C.vertical_circle()),
        C.figure_eight(C.bottom_edge(), 0.05)) for c in cur.components]
    # random walks anywhere in the plane, some on lattice lines
    lifts += [np.cumsum(rng.normal(0, rng.choice([0.05, 0.5]), (50, 2)),
                        axis=0) + rng.uniform(-30, 30, 2) for _ in range(20)]
    lifts += [np.array([[0.0, 0.0], [np.pi, TWO_PI], [TWO_PI, -np.pi]])]
    for A in lifts:
        lo, hi = A.min(axis=0) - 1e-6, A.max(axis=0) + 1e-6
        for B in lifts[::3]:
            got = C.translates(lo, hi, B)
            ref = [(g, r) for g, r in _ref_translates(A, B)
                   if _meets(lo, hi, (g * B + r).min(axis=0),
                             (g * B + r).max(axis=0))]
            assert [g for g, _ in got] == [r for r, _ in ref]
            assert all(np.array_equal(g, r) for (_, g), (_, r) in zip(got, ref))
        for cc in C.CORNER_CLASSES:
            corner = np.pi * np.array(cc, dtype=float)
            lo, hi = A.min(axis=0) - 0.8 - 0.1, A.max(axis=0) + 0.8 + 0.1
            got = [corner + shift
                   for shift in C.lattice_shifts(lo, hi, corner, corner)]
            ref = [r for r in _ref_corner_representatives(A, cc)
                   if _meets(lo, hi, r, r)]
            assert len(got) == len(ref)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
        got, ref = _svg._clip_segments(A), _ref_clip_segments(A)
        assert len(got) == len(ref)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_clip_segments_match_their_own_sign_and_shift_loop():
    # ``_svg._clip_segments`` walks ``translates``; the reference loops over
    # the signs and each signed lift's ``lattice_shifts`` itself
    from pillowcase import _svg

    folds = X.fold_image_curves(V.fold_locus("earring", 0.05))
    t = np.linspace(0.0, 1.0, 400)
    # negative coordinates across several periods in both directions
    far = np.column_stack([-3.0 - 17.0 * t, -2.0 - 20.0 * t
                           + 0.5 * np.sin(40.0 * t)])
    lifts = _scene_lifts() + [c.lift for c in folds.components] + [far]
    for A in lifts:
        got, ref = _svg._clip_segments(A), clip_segments(A)
        assert len(got) == len(ref) > 0
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


_place = st.floats(-30.0, 30.0, allow_subnormal=False)
_size = st.floats(0.0, 20.0, allow_subnormal=False)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lo_a=st.tuples(_place, _place), size_a=st.tuples(_size, _size),
       lo_b=st.tuples(_place, _place), size_b=st.tuples(_size, _size),
       touch=st.sampled_from([None, "x", "y"]),
       k=st.integers(-4, 4))
def test_lattice_shifts_are_those_whose_image_meets(lo_a, size_a, lo_b,
                                                   size_b, touch, k):
    lo_a, lo_b = np.array(lo_a), np.array(lo_b)
    hi_a, hi_b = lo_a + size_a, lo_b + size_b
    # box b moved so that its image under 2 pi k touches box a, up to
    # rounding: b's low x on a's high x, or b's high y on a's low y
    if touch == "x":
        lo_b[0] = hi_a[0] - TWO_PI * k
        hi_b[0] = lo_b[0] + size_b[0]
    elif touch == "y":
        hi_b[1] = lo_a[1] - TWO_PI * k
        lo_b[1] = hi_b[1] - size_b[1]
    got = C.lattice_shifts(lo_a, hi_a, lo_b, hi_b)
    # per axis, the shifts 2 pi k, |k| <= 30, whose image meets
    shift = TWO_PI * np.arange(-30, 31)[:, None]
    hit = (lo_b + shift <= hi_a) & (hi_b + shift >= lo_a)
    brute = {(x, y) for x in shift[hit[:, 0], 0].tolist()
             for y in shift[hit[:, 1], 0].tolist()}
    keys = [tuple(g.tolist()) for g in got]
    assert keys == sorted(keys)
    assert brute <= set(keys)
    # a listed shift misses by at most the slack, 2 pi 1e-9
    assert all(_meets(lo_a - 1e-8, hi_a + 1e-8, lo_b + g, hi_b + g)
               for g in got)


def test_corner_winding_matches_run_loop():
    curves = [C.bottom_edge(), C.vertical_circle(), C.slope_one_arc(),
              C.slope_two_arc(), C.wavy_arc(),
              C.twisted_double(C.vertical_circle()),
              C.double(C.twisted_double(C.vertical_circle())),
              C.figure_eight(C.bottom_edge(), 0.05),
              C.figure_eight(C.wavy_arc(), 0.05),
              C.double(C.figure_eight(C.bottom_edge(), 0.05))]
    nonzero = 0
    for curve in curves:
        for comp in curve.components:
            for cc in C.CORNER_CLASSES:
                w = C._corner_winding(comp, cc)
                assert w == _ref_corner_winding(comp, cc)
                nonzero += w != 0
    assert nonzero > 0


def test_invariants_naturality():
    # half-lattice shifts permute the corner classes; the reflection negates
    # the theta-component of homology
    f8 = C.figure_eight(C.bottom_edge(), 0.05)
    base = C.invariants(f8).components[0]

    shifted = C.ImmersedCurve([C.CurveComponent(
        "circle", f8.components[0].lift + (np.pi, 0.0))])
    wsh = C.invariants(shifted).components[0].corner_windings
    b = base.corner_windings
    assert wsh == (b[1], b[0], b[3], b[2])

    f8w = C.figure_eight(C.wavy_arc(), 0.05)
    mirrored = C.ImmersedCurve([C.CurveComponent(
        "circle", f8w.components[0].lift * (1.0, -1.0))])
    hom = C.invariants(f8w).components[0].homology
    hom_m = C.invariants(mirrored).components[0].homology
    assert hom_m == (hom[0], -hom[1])


def test_intersections_examples_and_oracle():
    beta = C.bottom_edge(n=121)
    bver = C.vertical_circle(n=121)
    res = C.intersect(beta, bver)
    assert res.count == 1
    got = PillowPoint.from_orbit("P0", *res.points[0])
    assert got.distance(PillowPoint.from_orbit("P0", np.pi / 2, 0.0)) < 1e-9
    assert C.intersect(bver, beta).count == 1

    s1 = C.slope_one_arc(n=61)
    s2 = C.slope_two_arc(n=121)
    res = C.intersect(s1, s2)
    oracle = brute_force_quotient_intersections(s1, s2)
    assert res.count == len(oracle) == 0

    # a case with interior crossings, checked against the oracle
    f8 = C.figure_eight(C.slope_one_arc(n=121), 0.05, n=240)
    dd = C.double(C.twisted_double(C.vertical_circle(n=61)))
    res = C.intersect(f8, dd)
    oracle = brute_force_quotient_intersections(f8, dd)
    assert res.count == len(oracle) == 8


def test_intersection_symmetry():
    f8 = C.figure_eight(C.slope_one_arc(n=121), 0.05, n=240)
    a2 = C.slope_two_arc(n=121)
    r1 = C.intersect(f8, a2)
    r2 = C.intersect(a2, f8)
    assert r1.count == r2.count == 1
    p1 = PillowPoint.from_orbit("P0", *r1.points[0])
    p2 = PillowPoint.from_orbit("P0", *r2.points[0])
    assert p1.distance(p2) < 1e-9


def test_tangential_crossing_raises():
    a = C.vertical_circle()
    # a vertical circle grazing b_ver away from the corners
    grazer = C.ImmersedCurve([C.CurveComponent(
        "circle",
        C._polyline(lambda t: (np.pi / 2 + 1e-9 * np.sin(t), t), 0, TWO_PI,
                    200))], "P0")
    with pytest.raises(C.GenericPositionError):
        C.intersect(a, grazer)


def test_side_mismatch():
    with pytest.raises(C.CurveError):
        C.intersect(C.bottom_edge(), C.vertical_circle().relabel("P1"))


def test_serialization_roundtrip():
    f8 = C.figure_eight(C.wavy_arc(), 0.05)
    text = f8.to_json()
    data = json.loads(text)
    assert data["side"] == "P0"
    assert data["components"][0]["kind"] == "circle"
    back = C.ImmersedCurve.from_json(text)
    assert C.hausdorff_r3(f8, back) < 1e-15
    assert C.invariants(back) == C.invariants(f8)


def test_good_arc_first_and_last_segments_can_cross():
    # (0, 0) to (2.5, 0), a left turn of 250 degrees on a circle of radius
    # 0.95 in 10-degree steps, then straight to the corner (0, -pi): the
    # last segment crosses the first near (1.14, 0).  Only a circle's last
    # and first segments share a vertex.
    th = np.deg2rad(np.arange(-90, 161, 10))
    turn = np.column_stack([2.5 + 0.95 * np.cos(th), 0.95 + 0.95 * np.sin(th)])
    comp = C.CurveComponent(
        "good_arc", np.vstack([[0.0, 0.0], turn, [0.0, -np.pi]])).validate()
    dps = C.self_intersections(comp)
    assert dps.count == 1
    # on the first segment and the last, the 27th
    assert (int(dps.t_a[0]), int(dps.t_b[0])) == (0, 26)
    assert np.allclose(dps.points[0], (1.1433, 0.0), atol=1e-4)


def test_figure_eight_single_double_point_across_s():
    for arc in (C.bottom_edge(), C.slope_one_arc(), C.slope_two_arc(),
                C.wavy_arc()):
        for s in (0.01, 0.05, 0.1):
            f8 = C.figure_eight(arc, s)
            assert C.self_intersections(
                f8.components[0]).count == 1, (arc.name, s)


def _random_walks():
    """(P, Q) random walks with step scales from far below to above the
    other walk's."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        P = np.cumsum(rng.normal(0, 0.1, (rng.integers(2, 200), 2)), axis=0)
        Q = np.cumsum(rng.normal(0, rng.choice([1e-3, 0.05, 0.5]),
                                 (rng.integers(2, 200), 2)), axis=0)
        yield P - rng.uniform(-2, 2, 2), Q


def _scene_lifts():
    """The lifts of the torus-knot scene's input curves."""
    dd = C.double(C.twisted_double(C.vertical_circle()))
    return [c.lift for cur in (C.slope_one_arc(), C.slope_two_arc(), dd)
            for c in cur.components]


def _near(A, B, pad):
    """Indices of A's segments whose boxes meet B's box, widened by pad."""
    lo, hi = B.min(axis=0) - pad, B.max(axis=0) + pad
    return np.flatnonzero(np.all((np.maximum(A[:-1], A[1:]) >= lo) &
                                 (np.minimum(A[:-1], A[1:]) <= hi), axis=1))


def _brute_crossings(lift_a, lift_b, pad=1e-3, chunk=256):
    """Every segment pair of lift_a and of each ``translates`` translate of
    lift_b whose boxes meet within pad, tested with the crossing predicate
    written out, in (i, j) order.  Segments that miss the other lift's box,
    widened by pad, meet no box of it and are left out first."""
    for sign, shift in C.translates(lift_a.min(axis=0) - 1e-6,
                                    lift_a.max(axis=0) + 1e-6, lift_b):
        B = sign * lift_b + shift
        identity = sign == 1 and np.max(np.abs(shift)) < 1e-12
        ia, jb = _near(lift_a, B, pad), _near(B, lift_a, pad)
        Q0, Q1 = B[jb], B[jb + 1]
        qlo, qhi = np.minimum(Q0, Q1).T, np.maximum(Q0, Q1).T
        for lo in range(0, len(ia), chunk):
            P0, P1 = lift_a[ia[lo:lo + chunk]], lift_a[ia[lo:lo + chunk] + 1]
            plo, phi = np.minimum(P0, P1).T, np.maximum(P0, P1).T
            ic, jc = np.nonzero((phi[0, :, None] + pad >= qlo[0]) &
                                (plo[0, :, None] - pad <= qhi[0]) &
                                (phi[1, :, None] + pad >= qlo[1]) &
                                (plo[1, :, None] - pad <= qhi[1]))
            d1, d2 = P1[ic] - P0[ic], Q1[jc] - Q0[jc]
            den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
            dx, dy = (Q0[jc] - P0[ic]).T
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (dx * d2[:, 1] - dy * d2[:, 0]) / den
                u = (dx * d1[:, 1] - dy * d1[:, 0]) / den
            eps = 1e-12
            hit = (np.abs(den) > 0) & (t >= -eps) & (t < 1 - eps) & \
                (u >= -eps) & (u < 1 - eps)
            pts = P0[ic] + t[:, None] * d1
            hit &= C._corner_lattice_distance(pts) >= C.CORNER_TOL
            a1 = np.arctan2(d1[:, 1], d1[:, 0])
            a2 = np.arctan2(d2[:, 1], d2[:, 0])
            ang = np.abs(np.mod(a1 - a2 + np.pi / 2, np.pi) - np.pi / 2)
            for k in np.flatnonzero(hit):
                i, j = int(ia[lo + ic[k]]), int(jb[jc[k]])
                yield identity, i, j, i + t[k], j + u[k], pts[k], float(ang[k])


def _crossing_tuples(crossings):
    return [(bool(idn), int(i), int(j), float(ta), float(tb),
             tuple(pt.tolist()), float(ang))
            for idn, i, j, ta, tb, pt, ang in crossings]


def _crossing_inputs():
    """Lift pairs: random walks, the scene's lifts, its inputs against the
    fold images and the s = 0.2 composed curves, and a case of two hits on
    one segment."""
    pairs = list(_random_walks())
    lifts = _scene_lifts()
    pairs += [(A, B) for A in lifts for B in lifts]
    inputs = [c.lift for cur in (C.slope_one_arc(), C.slope_two_arc(),
                                 C.twisted_double(C.vertical_circle()))
              for c in cur.components]
    pairs += [(A, B) for A in inputs for B in inputs]
    for variant in ("earring", "bypass"):
        circles = V.fold_locus(variant, 0.2)
        folds = [c.lift for c in
                 X.fold_image_curves(circles).components]
        pairs += [(A, B) for A in inputs for B in folds]
        for curve in (C.bottom_edge(), C.twisted_double(C.vertical_circle())):
            for c in X.compose_curve(curve, variant, 0.2,
                                     circles=circles).components:
                pairs += [(c.lift, c.lift)] + [(c.lift, B) for B in inputs]
    # Q crosses P's one segment at x = 2.4, then at x = 1.6: the two hits
    # share i and keep Q's order; Q's long last segment misses P's box
    P = np.array([[1.5, 0.0], [2.5, 0.0]])
    Q = np.array([[2.4, -0.5], [2.4, 0.5], [1.6, 0.5], [1.6, -0.5],
                  [1.6, -10.5]])
    return pairs + [(P, Q), (Q, P)]


def test_crossings_match_per_translate_reference():
    hits = 0
    for A, B in _crossing_inputs():
        got = _crossing_tuples(zip(*C._crossings(A, B)))
        ref = _crossing_tuples(_brute_crossings(A, B))
        assert got == ref
        hits += len(ref)
    assert hits > 30000


def test_hits_do_not_depend_on_the_pass_size(monkeypatch):
    inputs = [*_random_walks(), *((A, B) for A in _scene_lifts()[:1]
                                  for B in _scene_lifts())]
    ref = [_crossing_tuples(zip(*C._crossings(A, B))) for A, B in inputs]
    monkeypatch.setattr(C, "_RUN_PAIRS", 1)
    assert [_crossing_tuples(zip(*C._crossings(A, B)))
            for A, B in inputs] == ref
    assert sum(map(len, ref)) > 1000


def _literal_distinct(rows, tol, period=None):
    """The dedup rule written out: rows in order, each dropped when it, or
    with ``period`` its alternative, lies within tol of a kept row in both
    coordinates; the alternative is the row as an unordered pair on the
    circle, each coordinate reduced into [-4 tol, period - 4 tol)."""
    kept, keep = [], []
    for k, (x, y) in enumerate(rows.tolist()):
        cands = [(x, y)]
        if period is not None:
            cands.append(tuple(sorted(float(np.mod(c + 4 * tol, period)
                                            - 4 * tol) for c in (x, y))))
        if not any(abs(a - c) < tol and abs(b - d) < tol
                   for c, d in cands for a, b in kept):
            kept.append((x, y))
            keep.append(k)
    return keep


@st.composite
def _near_rows(draw):
    """Rows in clusters around a few anchors (circle parameters near 0 and
    n among them), some in chains of steps from the row before, with steps
    of 0 to 2 tol, exactly tol among them."""
    tol = draw(st.sampled_from([1e-7, 1e-6]))
    period = draw(st.sampled_from([None, 7.0, 720.0]))
    top = period or 7.0
    anchors = draw(st.lists(
        st.sampled_from([0.0, -1e-12, -1e-17, top, top - 1e-12, 3.0])
        | st.floats(-1.0, top + 1.0), min_size=1, max_size=3))
    step = st.sampled_from([-2.0, -1.0, -0.9, -0.5, 0.0, 0.3, 0.5, 0.9, 1.0,
                            1.1, 2.0])
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        if rows and draw(st.booleans()):
            x, y = rows[-1]
        else:
            x, y = draw(st.sampled_from(anchors)), draw(st.sampled_from(anchors))
        rows.append((x + tol * draw(step), y + tol * draw(step)))
    return np.array(rows).reshape(-1, 2), tol, period


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(case=_near_rows(), ordered=st.booleans())
def test_distinct_rows_matches_the_rule_written_out(case, ordered):
    rows, tol, period = case
    if ordered:  # as intersect and self_intersections pass them
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    assert (C.distinct_rows(rows, tol, period).tolist()
            == _literal_distinct(rows, tol, period))


def test_distinct_rows_merges_a_double_point_found_across_the_seam():
    # a circle's double point at its seam, found once as (0, x) and once as
    # (x, n) less a rounding error: one pair of points on the circle
    n = 3773
    rows = np.array([(0.0, 1886.5), (1886.5, n - 1e-10)])
    assert C.distinct_rows(rows, 1e-6, n).tolist() == [0]
    assert C.distinct_rows(rows, 1e-6).tolist() == [0, 1]


def test_edge_crossing_search_peak_memory():
    # quick verify's composed bottom edge: its search against itself has
    # about 65k candidate pairs, which took 6.6 MB when built at once; and
    # a long vertical lift, on which a sweep along x alone is quadratic
    edge = X.compose_curve(C.bottom_edge(), "bypass", 0.05, max_step=1.5e-3,
                           circles=V.fold_locus("bypass", 0.05))
    vertical = C.twisted_double(C.vertical_circle(10001))
    for comp, double_points in ((edge.components[0], 1),
                                (vertical.components[0], 0)):
        assert len(comp.lift) > 7000
        tracemalloc.start()
        try:
            assert C.self_intersections(comp).count == double_points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_scene_searches_few_translates(monkeypatch):
    calls = []
    search = C._segment_crossings

    def counted(*args):
        calls.append(len(args[3]))
        return search(*args)

    monkeypatch.setattr(C, "_segment_crossings", counted)
    translates = []
    listed = C.translates

    def counted_translates(*args):
        out = listed(*args)
        translates.append(len(out))
        return out

    monkeypatch.setattr(C, "translates", counted_translates)
    data = torus_knot_scene("earring", 0.05)
    assert data["forward"]["total"] == data["pullback"]["total"] == 9
    # one search per listed translate
    assert len(calls) == sum(translates)
    # translates whose box meets the other lift's box (376 when the shift
    # ranges were rounded outward)
    assert sum(translates) <= 50

def _brute_force_polyline_dist(pts, poly):
    """Every point against every segment, one segment at a time."""
    a, ab = poly[:-1], np.diff(poly, axis=0)
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-300)
    best = np.full(len(pts), np.inf)
    for j in range(len(a)):
        t = np.clip(np.sum((pts - a[j]) * ab[j], axis=1) / denom[j], 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(pts - (a[j] + t[:, None] * ab[j]),
                                               axis=1))
    return best


_coord = st.floats(-1.0, 1.0, allow_subnormal=False)


def _run_end_case():
    """A 3-D polyline with coordinates up to 1e5, and points on it and
    within 1e-12 of it where its runs of ``_BLOCK`` segments meet.  There a
    measured point a + t (b - a) can round an ulp outside its segment's
    box, toward a point just outside the box: the search's slack covers
    it (without the slack, this polyline gives a point the wrong segment)."""
    k = np.arange(49)[:, None]
    noise = np.random.default_rng(5).normal(0, 1e3, (49, 3))
    poly = [9e4, 3e4, 1e2] * np.cos(k / [9, 7, 5] - [0, np.pi / 2, 0]) + noise
    ends = poly[C._BLOCK::C._BLOCK]
    on = np.vstack([ends, 0.5 * (poly[C._BLOCK - 1::C._BLOCK] + ends)])
    return {"poly": poly, "pts": np.vstack([on, on + 1e-12, on - 1e-12])}


def _spanning_run_case():
    """One run of 32 points along [0, 10] x {0}: the run of segments that
    holds its nearest ones spans it along y = 0.1, and a run of tiny
    segments at its middle has the smallest greatest box distance.  Their
    boxes overlap in both coordinates, so only the clamp at 0 keeps the
    spanning run a candidate."""
    j = np.arange(17)[:, None]
    tiny = [5.0, -0.1] + 1e-3 * np.hstack([np.cos(j), np.sin(j)])
    line = np.column_stack([np.linspace(0, 10, 16), np.full(16, 0.1)])
    pts = np.column_stack([np.linspace(0, 10, 32), np.zeros(32)])
    return {"poly": np.vstack([tiny, line]), "pts": pts}


@settings(derandomize=True, database=None, max_examples=90, deadline=None)
@given(poly=st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=2,
                     max_size=90),
       pts=st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1,
                    max_size=40),
       walk=st.booleans(), spread=st.sampled_from([1e-3, 1.0, 10.0]),
       dim=st.sampled_from([2, 3, 4]))
@example(**_run_end_case(), walk=False, spread=1.0, dim=3)
@example(**_spanning_run_case(), walk=False, spread=1.0, dim=2)
def test_polyline_distance_matches_brute_force(poly, pts, walk, spread, dim):
    # a random walk gives dense curves, with several segments per block ball;
    # the search takes its coordinates from the points, R^3 or any other
    poly = np.array(poly)[:, :dim]
    poly = np.cumsum(poly, axis=0) * 0.1 if walk else poly
    pts = np.array(pts)[:, :dim] * spread
    assert np.array_equal(C._points_to_segments_dist(pts, poly[:-1], poly[1:]),
                          _brute_force_polyline_dist(pts, poly))


@pytest.mark.parametrize("pair", ["edge", "circle"])
def test_nearest_segment_search_matches_brute_force_at_real_sizes(pair):
    # verify's own pairs: the composed bypass edge, 1e-7 from its 8,192
    # segment prediction, and the composed vertical circle, 0.046 from its
    # double; about 500 points reach several point blocks per chunk, with
    # candidate lists of different lengths
    circles = V.fold_locus("bypass", 0.05)
    if pair == "edge":
        near = X.compose_curve(C.bottom_edge(), "bypass", 0.05, max_step=1.5e-3,
                               circles=circles)
        far = VF.bottom_edge_prediction("bypass", 0.05)
    else:
        near = X.compose_curve(C.vertical_circle(), "bypass", 0.05,
                               circles=circles)
        far = C.double(C.vertical_circle())
    for src, dst in ((near, far), (far, near)):
        pts = np.vstack([r3_of_orbit(*c.lift.T) for c in src.components])
        pts = pts[::len(pts) // 400]
        polys = [r3_of_orbit(*c.lift.T) for c in dst.components]
        a = np.vstack([q[:-1] for q in polys])
        b = np.vstack([q[1:] for q in polys])
        # points on segments (vertices and midpoints) and repeated points
        on = np.vstack([a[::97], 0.5 * (a[5::89] + b[5::89])])
        pts = np.vstack([pts[:200], on, np.repeat(pts[200:240], 3, axis=0),
                         pts[240:]])
        got = C._points_to_segments_dist(pts, a, b)
        want = np.min([_brute_force_polyline_dist(pts, q) for q in polys],
                      axis=0)
        assert len(pts) >= 450 and np.array_equal(got, want)


@pytest.mark.parametrize("dim", [3, 4])
def test_run_boxes_bound_their_runs_in_any_dimension(dim):
    # 45 segments in runs of 16, the last one partial: 13 segments
    P = np.random.default_rng(dim).normal(size=(46, dim))
    box, runs, run_box = C._run_boxes(P[:-1], P[1:], 16)
    assert box.shape == (2 * dim, 45) and run_box.shape == (2 * dim, 3)
    assert np.array_equal(runs[-1], [32, 33, 34, 35, 36, 37, 38, 39, 40, 41,
                                     42, 43, 44, 44, 44, 44])
    for r, first in enumerate(range(0, 45, 16)):
        ends = P[first:min(first + 16, 45) + 1]
        assert np.array_equal(run_box[:, r], np.concatenate(
            [ends.min(axis=0), ends.max(axis=0)]))


def test_hausdorff_is_the_larger_one_sided_distance():
    a = C.double(C.vertical_circle())
    b = C.twisted_double(C.vertical_circle())
    pa = np.vstack([r3_of_orbit(*c.lift.T) for c in a.components])
    pb = np.vstack([r3_of_orbit(*c.lift.T) for c in b.components])
    d_ab = np.min([_brute_force_polyline_dist(pa, r3_of_orbit(*c.lift.T))
                   for c in b.components], axis=0)
    d_ba = np.min([_brute_force_polyline_dist(pb, r3_of_orbit(*c.lift.T))
                   for c in a.components], axis=0)
    assert C.hausdorff_r3(a, b) == max(d_ab.max(), d_ba.max())
