import numpy as np
import pytest

from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import projection as P
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase import words as W

FOLD = {}


def fold(variant, s):
    if (variant, s) not in FOLD:
        FOLD[(variant, s)] = V.fold_locus(variant, s)
    return FOLD[(variant, s)]


def test_transversality_counts():
    ok, crossings = X.check_transversality(C.bottom_edge(), "earring", 0.05,
                                           fold("earring", 0.05))
    assert ok and len(crossings) == 2
    ok, crossings = X.check_transversality(C.vertical_circle(), "earring",
                                           0.05, fold("earring", 0.05))
    assert ok and len(crossings) == 0
    ok, crossings = X.check_transversality(C.slope_one_arc(), "bypass", 0.05,
                                           fold("bypass", 0.05))
    assert ok and len(crossings) == 2


def test_tangency_refused():
    # a circle around a corner at the mean fold radius crosses the wobbly
    # fold circle at near-zero angles
    circles = fold("earring", 0.05)
    r = float(np.mean(circles[0].radii))
    curve = C.ImmersedCurve([C.CurveComponent(
        "circle",
        C._polyline(lambda t: (r * np.cos(t), r * np.sin(t)), 0, 2 * np.pi,
                    400))], "P0")
    ok, _ = X.check_transversality(curve, "earring", 0.05, circles)
    assert not ok
    with pytest.raises(X.TangencyError):
        X.fiber_product(curve, "earring", 0.05, circles=circles)


def test_fiber_product_circle_two_sheets():
    for variant in ("earring", "bypass"):
        fp = X.fiber_product(C.vertical_circle(), variant, 0.05,
                             circles=fold(variant, 0.05))
        assert len(fp.branches) == 2
        sheets = {b.sheet for b in fp.branches}
        assert sheets == {"plus", "minus"}
        assert all(b.fold_crossings == 0 for b in fp.branches)
        # samples satisfy the defining equations and project back onto the
        # input circle
        code = 0 if variant == "earring" else 1
        from pillowcase import _kernels

        for b in fp.branches:
            sub = b.samples[:: max(1, len(b.samples) // 50)]
            for t, nu, tau in sub:
                g1, g2 = _kernels.g_scalar(code, 0.05, np.pi / 2,
                                           np.mod(t, 2 * np.pi), nu, tau)
                assert max(abs(g1), abs(g2)) < 1e-9


def test_fiber_product_beta_matches_k_circle():
    for variant in ("earring", "bypass"):
        fp = X.fiber_product(C.bottom_edge(), variant, 0.05,
                             circles=fold(variant, 0.05), max_step=2e-3)
        assert len(fp.branches) == 1
        assert fp.branches[0].fold_crossings == 2
        # characters (Re(b a^-), Re(b h^-)) agree with the closed-form circle
        samples = fp.branches[0].samples[::7]
        comp = fp.curve.components[0]
        breaks, cg, ct, _, _ = X._component_splines(comp)
        from pillowcase import _kernels

        pts = []
        for t, nu, tau in samples:
            g = _kernels._ppoly_eval(breaks, cg, t)
            th = _kernels._ppoly_eval(breaks, ct, t)
            rep = W.embed_L(W.ChartPoint(0.05, g, th, nu, tau, variant))
            pts.append([float(quat.real_part(quat.mul(rep.b, quat.conj(rep.a)))),
                        float(quat.real_part(quat.mul(rep.b, quat.conj(rep.h))))])
        pts = np.asarray(pts)
        sig = np.linspace(0, 2 * np.pi, 4096)
        kc = np.array([[float(quat.real_part(quat.mul(r.b, quat.conj(r.a)))),
                        float(quat.real_part(quat.mul(r.b, quat.conj(r.h))))]
                       for r in (V.k_circle(variant, 0.05, x) for x in sig)])
        d = C._points_to_polyline_dist(pts, kc)
        assert float(np.max(d)) < 1e-6


def test_fiber_product_arc_fold_parity():
    fp = X.fiber_product(C.slope_one_arc(), "bypass", 0.05,
                         circles=fold("bypass", 0.05))
    assert len(fp.branches) == 1
    assert fp.branches[0].fold_crossings == 2


def test_push_forward_factorization_consistency(monkeypatch):
    fits = []
    fit = X._component_splines
    monkeypatch.setattr(X, "_component_splines",
                        lambda comp: fits.append(comp) or fit(comp))
    fp = X.fiber_product(C.vertical_circle(), "bypass", 0.05,
                         circles=fold("bypass", 0.05))
    out = X.push_forward(fp)
    # one fit for the component, shared by both branches and both steps
    assert len(fp.branches) == 2 and len(fits) == 1
    comp = fp.curve.components[0]
    breaks, cg, ct, _, _ = X._component_splines(comp)
    from pillowcase import _kernels

    for b, oc in zip(fp.branches, out.components):
        for k in range(0, len(b.samples), max(1, len(b.samples) // 20)):
            t, nu, tau = b.samples[k]
            g = _kernels._ppoly_eval(breaks, cg, t)
            th = _kernels._ppoly_eval(breaks, ct, t)
            rep = W.embed_L(W.ChartPoint(0.05, g, th, nu, tau, "bypass"))
            via_inv = P.theta_r3(np.asarray(P.pi0_of_rep(
                P.u_involution(rep)).r3))
            direct = P.pi1_r3(rep)
            assert float(np.max(np.abs(via_inv - direct))) < 1e-6


def test_push_forward_refuses_samples_outside_the_chart():
    t = np.linspace(0.0, 1.0, 5)
    for nu in (0.6, -0.6):
        branch = X.Branch(0, np.column_stack([t, np.full(5, nu), np.zeros(5)]),
                          True, [], None)
        fp = X.FiberProduct(C.vertical_circle(), "earring", 0.05, [branch])
        with pytest.raises(V.ContinuationError, match="outside the chart"):
            X.push_forward(fp)


def test_verify_theorem_b_beta():
    for variant in ("earring", "bypass"):
        rep = X.verify_theorem_B(C.bottom_edge(), variant, 0.05,
                                 circles=fold(variant, 0.05))
        assert rep.ok
        assert rep.mode == "arc"
        assert rep.double_points == [1]


def test_verify_theorem_b_circles():
    for variant in ("earring", "bypass"):
        rep = X.verify_theorem_B(C.vertical_circle(), variant, 0.05,
                                 circles=fold(variant, 0.05))
        assert rep.ok and rep.component_count == 2
        assert rep.hausdorff <= 5 * 0.05
        rep = X.verify_theorem_B(C.twisted_double(C.vertical_circle()),
                                 variant, 0.05, circles=fold(variant, 0.05))
        assert rep.ok and rep.component_count == 2


def test_bottom_edge_closed_form():
    for variant in ("earring", "bypass"):
        out = X.compose_curve(C.bottom_edge(), variant, 0.05, max_step=1.5e-3,
                              circles=fold(variant, 0.05))
        assert VF.composed_edge(out, variant, 0.05)[2] and out.side == "P1"


def test_tangent_anchor():
    for variant in ("earring", "bypass"):
        anchors = X.edge_tangent_anchors(variant, 0.05)
        hits = set()
        for sg in (1, -1):
            for branch in (1, -1):
                target = np.array([-1.0, 0.0, -1.0 + branch * 2 * 0.05])
                if float(np.max(np.abs(anchors[sg] - target))) <= 3 * 0.05 ** 2:
                    hits.add((sg, branch))
        # each half-turn branch matches exactly one sign of the target
        assert {b for _, b in hits} == {1, -1}


def test_transpose_compose_doubles_circles():
    out = X.transpose_compose(C.vertical_circle(), "bypass", 0.05,
                              circles=fold("bypass", 0.05))
    assert out.side == "P0"
    assert len(out.components) == 2
    pred = C.double(C.vertical_circle())
    assert C.invariants(out) == C.invariants(pred)


def test_bottom_edge_small_s():
    # the edge image crosses the gamma = 0 pillowcase edge; at small s the
    # reflected orbit element sits closer than the true continuation, which
    # the velocity-predicting unwrap must resolve
    for variant in ("earring", "bypass"):
        out = X.compose_curve(C.bottom_edge(), variant, 0.01,
                              max_step=1.5e-3)
        assert VF.composed_edge(out, variant, 0.01)[2]


def test_transpose_compose_arc_class_data():
    # the pullback of the slope-two arc is a figure-eight class curve; its
    # double-point count may exceed the minimal representative's by a
    # cancellable pair (counts are not class invariants), so compare the
    # class data and the count parity
    pb = X.transpose_compose(C.slope_two_arc(), "bypass", 0.05,
                             circles=fold("bypass", 0.05))
    pred = C.figure_eight(C.slope_two_arc(), 0.05)
    a = C.invariants(pb).components[0].canonical()
    b = C.invariants(pred).components[0].canonical()
    assert len(pb.components) == 1
    assert a[:3] == b[:3]
    assert a[3] % 2 == b[3] % 2
