import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowcase import curves as C

TWO_PI = 2 * np.pi


def brute_force_quotient_intersections(a: C.ImmersedCurve, b: C.ImmersedCurve,
                                       corner_tol=1e-6):
    """Independent oracle: test every segment pair under every relevant
    lattice-and-flip translate with a direct O(n m) sweep."""
    hits = []
    for ia, comp_a in enumerate(a.components):
        A = comp_a.lift
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
                        for i in range(len(A) - 1):
                            for j in range(len(B) - 1):
                                p, r = A[i], A[i + 1] - A[i]
                                q, sgm = B[j], B[j + 1] - B[j]
                                den = r[0] * sgm[1] - r[1] * sgm[0]
                                if den == 0:
                                    continue
                                d = q - p
                                t = (d[0] * sgm[1] - d[1] * sgm[0]) / den
                                u = (d[0] * r[1] - d[1] * r[0]) / den
                                if -1e-12 <= t < 1 - 1e-12 and \
                                   -1e-12 <= u < 1 - 1e-12:
                                    pt = p + t * r
                                    if C._corner_lattice_distance(
                                            pt[None])[0] > corner_tol:
                                        hits.append((i + t, j + u, ia, ib))
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
    C.bottom_edge().validate()
    C.vertical_circle().validate()


def test_equivariant_lift_closes_smoothly():
    for arc in (C.bottom_edge(), C.slope_one_arc(), C.wavy_arc()):
        lift = C.equivariant_circle_lift(arc.components[0])
        lam = lift[-1] - lift[0]
        assert np.max(np.abs(lam / TWO_PI - np.round(lam / TWO_PI))) < 1e-9
        comp = C.CurveComponent("circle", lift)
        comp.validate()  # includes the closing-turn angle check


def test_standard_arcs_and_symmetries():
    arcs = C.standard_arcs()
    a1 = arcs["slope_one"].components[0].lift
    assert np.allclose(a1[0], (0, 0)) and np.allclose(a1[-1], (np.pi, np.pi))
    a2 = arcs["slope_two"].components[0].lift
    assert np.allclose(a2[-1], (np.pi, 2 * np.pi))

    from pillowcase.projection import PillowPoint, w1_hat, w2_hat

    def orbit_points(curve):
        return [PillowPoint.from_orbit("P0", x, y)
                for x, y in curve.components[0].lift]

    # br = w2(bl), tr = w1(bl), tl = w1(br) as subsets of the pillowcase
    pairs = [("beta_br", "beta_bl", w2_hat), ("beta_tr", "beta_bl", w1_hat),
             ("beta_tl", "beta_br", w1_hat)]
    for target, source, m in pairs:
        got = [m(p) for p in orbit_points(arcs[source])]
        want = orbit_points(arcs[target])
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
    assert len(dps) == 1
    from pillowcase.projection import PillowPoint

    got = PillowPoint.from_orbit("P0", *dps[0].point)
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
    assert C.invariants(empty).component_count == 0


def test_invariants_naturality():
    # half-lattice shifts permute the corner classes; the reflection negates
    # the theta-component of homology
    f8 = C.figure_eight(C.bottom_edge(), 0.05)
    base = C.invariants(f8).components[0]

    shifted = f8.map_lift(lambda p: (p[0] + np.pi, p[1]))
    wsh = C.invariants(shifted).components[0].corner_windings
    b = base.corner_windings
    assert wsh == (b[1], b[0], b[3], b[2])

    f8w = C.figure_eight(C.wavy_arc(), 0.05)
    mirrored = f8w.map_lift(lambda p: (p[0], -p[1]))
    hom = C.invariants(f8w).components[0].homology
    hom_m = C.invariants(mirrored).components[0].homology
    assert hom_m == (hom[0], -hom[1])


def test_intersections_examples_and_oracle():
    beta = C.bottom_edge(n=121)
    bver = C.vertical_circle(n=121)
    res = C.intersect(beta, bver)
    assert res.count == 1
    from pillowcase.projection import PillowPoint

    got = PillowPoint.from_orbit("P0", *res.points[0].point)
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
    from pillowcase.projection import PillowPoint

    p1 = PillowPoint.from_orbit("P0", *r1.points[0].point)
    p2 = PillowPoint.from_orbit("P0", *r2.points[0].point)
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


def test_figure_eight_single_double_point_across_s():
    for arc in (C.bottom_edge(), C.slope_one_arc(), C.slope_two_arc(),
                C.wavy_arc()):
        for s in (0.01, 0.05, 0.1):
            f8 = C.figure_eight(arc, s)
            assert len(C.self_intersections(f8.components[0])) == 1, (arc.name, s)


def _dict_candidate_pairs(P0, P1, Q0, Q1):
    """The replaced dict-of-lists grid, kept as the reference."""
    lens = np.concatenate([np.linalg.norm(P1 - P0, axis=1),
                           np.linalg.norm(Q1 - Q0, axis=1)])
    cell = max(1e-6, 2.0 * float(np.max(lens)))
    loQ = np.floor(np.minimum(Q0, Q1) / cell).astype(np.int64)
    hiQ = np.floor(np.maximum(Q0, Q1) / cell).astype(np.int64)
    grid = {}
    for j in range(len(Q0)):
        for cx in range(loQ[j, 0], hiQ[j, 0] + 1):
            for cy in range(loQ[j, 1], hiQ[j, 1] + 1):
                grid.setdefault((cx, cy), []).append(j)
    loP = np.floor(np.minimum(P0, P1) / cell).astype(np.int64)
    hiP = np.floor(np.maximum(P0, P1) / cell).astype(np.int64)
    ii, jj = [], []
    for i in range(len(P0)):
        seen = set()
        for cx in range(loP[i, 0], hiP[i, 0] + 1):
            for cy in range(loP[i, 1], hiP[i, 1] + 1):
                for j in grid.get((cx, cy), ()):
                    if j not in seen:
                        seen.add(j)
                        ii.append(i)
                        jj.append(j)
    return np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64)


def _assert_same_pairs(P, Q):
    got = C._candidate_pairs(P[:-1], P[1:], Q[:-1], Q[1:])
    ref = _dict_candidate_pairs(P[:-1], P[1:], Q[:-1], Q[1:])
    assert set(zip(*got)) == set(zip(*ref))
    # each pair once, in the reference's order
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_candidate_pairs_match_dict_grid():
    rng = np.random.default_rng(11)
    for _ in range(100):
        # random walks with step scales from far below to above the cell
        P = np.cumsum(rng.normal(0, 0.1, (rng.integers(2, 200), 2)), axis=0)
        Q = np.cumsum(rng.normal(0, rng.choice([1e-3, 0.05, 0.5]),
                                 (rng.integers(2, 200), 2)), axis=0)
        _assert_same_pairs(P - rng.uniform(-2, 2, 2), Q)
    # the torus-knot scene's input curves, under the translates intersect uses
    a1 = C.slope_one_arc()
    a2 = C.slope_two_arc()
    dd = C.double(C.twisted_double(C.vertical_circle()))
    comps = [c.lift for cur in (a1, a2, dd) for c in cur.components]
    for A in comps:
        for B in comps:
            for sign, shift in C._translates(A, B):
                _assert_same_pairs(A, sign * B + shift)


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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(poly=st.lists(st.tuples(_coord, _coord, _coord), min_size=2,
                     max_size=90),
       pts=st.lists(st.tuples(_coord, _coord, _coord), min_size=1,
                    max_size=40),
       walk=st.booleans(), spread=st.sampled_from([1e-3, 1.0, 10.0]))
def test_polyline_distance_matches_brute_force(poly, pts, walk, spread):
    # a random walk gives dense curves, with several segments per block ball
    poly = np.cumsum(poly, axis=0) * 0.1 if walk else np.array(poly)
    pts = np.array(pts) * spread
    assert np.array_equal(C._points_to_polyline_dist(pts, poly),
                          _brute_force_polyline_dist(pts, poly))


def test_hausdorff_is_the_larger_one_sided_distance():
    a = C.double(C.vertical_circle())
    b = C.twisted_double(C.vertical_circle())
    pa = np.vstack([C.lift_to_r3(c.lift) for c in a.components])
    pb = np.vstack([C.lift_to_r3(c.lift) for c in b.components])
    d_ab = np.min([_brute_force_polyline_dist(pa, C.lift_to_r3(c.lift))
                   for c in b.components], axis=0)
    d_ba = np.min([_brute_force_polyline_dist(pb, C.lift_to_r3(c.lift))
                   for c in a.components], axis=0)
    assert C.hausdorff_r3(a, b) == max(d_ab.max(), d_ba.max())
