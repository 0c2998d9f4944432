import numpy as np
import pytest

from pillowcase import _kernels
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
        for b in fp.branches:
            sub = b.samples[:: max(1, len(b.samples) // 50)]
            for t, nu, tau in sub:
                g1, g2 = _kernels.g_scalar(variant, 0.05, np.pi / 2,
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
                          [], None)
        fp = X.FiberProduct(C.vertical_circle(), "earring", 0.05, [branch])
        with pytest.raises(V.ContinuationError, match="outside the chart"):
            X.push_forward(fp)


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_push_forward_refines_once(variant):
    # at this coarse step the image turns too sharply, so push_forward
    # refuses it; compose_curve composes once more at half the step, which
    # rescues it
    curve = C.twisted_double(C.vertical_circle())
    fp = X.fiber_product(curve, variant, 0.2, max_step=0.5)
    with pytest.raises(X.UnderResolvedError):
        X.push_forward(fp)
    out = X.compose_curve(curve, variant, 0.2, max_step=0.5)
    assert sorted(c.homology() for c in out.components) == [(0, -2), (0, 2)]


def test_retrace_reuses_the_fold_circles(monkeypatch):
    # the half-step retrace runs the fiber product again, on the fold
    # circles of the first pass
    calls = []
    fold_locus = X.fold_locus

    def counted(*args, **kwargs):
        calls.append(args)
        return fold_locus(*args, **kwargs)

    monkeypatch.setattr(X, "fold_locus", counted)
    X.compose_curve(C.twisted_double(C.vertical_circle()), "earring", 0.2,
                    max_step=0.5)
    assert len(calls) == 1


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_push_forward_fails_after_refinement(variant):
    with pytest.raises(X.UnderResolvedError, match="after refinement"):
        X.compose_curve(C.bottom_edge(), variant, 0.4, max_step=1.0)
    # half that step is rescued by the retrace, with the predicted class
    out = C.invariants(X.compose_curve(C.bottom_edge(), variant, 0.4,
                                       max_step=0.5))
    assert [c.double_points for c in out.components] == [1]
    assert out == C.invariants(C.figure_eight(C.bottom_edge(), 0.4)
                               .relabel("P1"))


def _ref_unwrap_orbit_path(r3):
    """The numpy form of ``compose._unwrap_orbit_path`` that the float loop
    replaced, kept as its reference."""
    x = np.clip(r3[:, 0], -1.0, 1.0)
    y = np.clip(r3[:, 1], -1.0, 1.0)
    z = r3[:, 2]
    g0 = np.arccos(x)
    t0 = np.arccos(y)
    if abs(np.cos(g0[0] - t0[0]) - z[0]) <= abs(np.cos(g0[0] + t0[0]) - z[0]):
        prev = np.array([g0[0], t0[0]])
    else:
        prev = np.array([g0[0], -t0[0]])
    out = [prev]
    vel = np.zeros(2)
    for k in range(1, len(r3)):
        target = prev + vel
        cands = []
        for sg in (1.0, -1.0):
            for st in (1.0, -1.0):
                cand_base = np.array([sg * g0[k], st * t0[k]])
                cand = cand_base + X.TWO_PI * np.round((target - cand_base)
                                                       / X.TWO_PI)
                z_err = abs(np.cos(cand_base[0] - cand_base[1]) - z[k])
                d = float(np.max(np.abs(cand - target)))
                cands.append((d, z_err, cand))
        consistent = [c for c in cands if c[1] <= 1e-6]
        pool = consistent if consistent else cands
        best = min(pool, key=lambda c: c[0])[2]
        out.append(best)
        vel = best - prev
        prev = best
    return np.array(out)


def test_unwrap_orbit_path_matches_reference():
    fp = X.fiber_product(C.vertical_circle(), "bypass", 0.05,
                         circles=fold("bypass", 0.05))
    paths = []
    for b in fp.branches:
        breaks, cg, ct, _, _ = fp.splines_of(b.component)
        t, nu, tau = b.samples.T
        paths.append(P.pi1_r3_of_chart(
            0.05, _kernels._ppoly_eval(breaks, cg, t),
            _kernels._ppoly_eval(breaks, ct, t), nu, tau, variant="bypass"))
    # a synthetic lift across gamma = 0, gamma = pi and theta = 0
    g = np.linspace(-0.7, 3.9, 1500)
    t = 0.9 * np.cos(1.7 * g) + 0.05
    paths.append(np.column_stack([np.cos(g), np.cos(t), np.cos(g - t)]))
    for r3 in paths:
        assert np.array_equal(X._unwrap_orbit_path(r3),
                              _ref_unwrap_orbit_path(r3))


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


@pytest.mark.parametrize("s", [-0.05, 0.05, 0.2])
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_tangent_anchor_matches_central_difference(variant, s):
    # the central difference the complex step replaced, at a smaller step
    h = 1e-6
    anchors = X.edge_tangent_anchors(variant, s)
    for sign in (1, -1):
        sig0 = sign * np.pi / 2
        vp = P.pi0_u_r3(V.k_circle(variant, s, sig0 + sign * h))
        vm = P.pi0_u_r3(V.k_circle(variant, s, sig0 - sign * h))
        assert np.max(np.abs(anchors[sign] - (vp - vm) / (2 * h))) < 1e-8


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


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_composed_circles_row_at_negative_s(variant):
    rep = X.verify_theorem_B(C.vertical_circle(), variant, -0.05)
    assert rep.ok and VF.composed_circles(rep)


# ---------------------------------------------------------------------------
# dense samples placed along a coarse trace
# ---------------------------------------------------------------------------

DENSE_CURVES = {"arc": C.slope_one_arc, "circle": C.vertical_circle}
TRACED = {}


def traced(variant, name, max_step=X.MAX_STEP, coarse=True):
    """The fiber product over a curve at s = 0.05: densified from a coarse
    trace, or (``coarse=False``) traced by ``_trace_loop`` at max_step."""
    key = (variant, name, max_step, coarse)
    if key not in TRACED:
        saved = X.COARSE_STEP
        X.COARSE_STEP = saved if coarse else 0.0
        try:
            TRACED[key] = X.fiber_product(DENSE_CURVES[name](), variant, 0.05,
                                          max_step=max_step,
                                          circles=fold(variant, 0.05))
        finally:
            X.COARSE_STEP = saved
    return TRACED[key]


@pytest.mark.parametrize("name", sorted(DENSE_CURVES))
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_dense_samples_solve_the_pair_within_the_step(variant, name):
    fp = traced(variant, name)
    for b in fp.branches:
        breaks, cg, ct, period, _ = fp.splines_of(b.component)
        t, nu, tau = b.samples.T
        g1, g2 = _kernels.g_pair(variant, 0.05, _kernels._ppoly_eval(breaks, cg, t),
                                 _kernels._ppoly_eval(breaks, ct, t), nu, tau)
        assert np.max(np.maximum(np.abs(g1), np.abs(g2))) < 1e-11
        gap = np.diff(b.samples, axis=0)
        if period > 0:
            gap[:, 0] -= period * np.round(gap[:, 0] / period)
        gap[:, 2] = np.mod(gap[:, 2] + np.pi, X.TWO_PI) - np.pi
        assert np.max(np.linalg.norm(gap, axis=1)) <= X.MAX_STEP


@pytest.mark.parametrize("name", sorted(DENSE_CURVES))
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_dense_fiber_product_matches_the_fine_trace(variant, name):
    dense, fine = traced(variant, name), traced(variant, name, coarse=False)
    assert ([b.fold_crossings for b in dense.branches]
            == [b.fold_crossings for b in fine.branches])
    assert ([b.sheet for b in dense.branches]
            == [b.sheet for b in fine.branches])
    # each fold mark sits within a coarse step of the fine trace's
    for a, b in zip(dense.branches, fine.branches):
        t_dense = a.samples[a.fold_marks, 0]
        t_fine = b.samples[b.fold_marks, 0]
        assert np.max(np.abs(t_dense - t_fine), initial=0.0) < X.COARSE_STEP
    # as close to the fine trace as the fine trace is to one at half its step
    half = traced(variant, name, X.MAX_STEP / 2, coarse=False)
    out, ref = X.push_forward(dense), X.push_forward(fine)
    resolution = C.hausdorff_r3(ref, X.push_forward(half))
    assert C.hausdorff_r3(out, ref) <= 1.1 * resolution
    assert C.invariants(out) == C.invariants(ref)


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_densify_either_direction_and_a_wound_closing_tau(variant):
    fp = traced(variant, "arc", X.COARSE_STEP)
    breaks, cg, ct, _, _ = fp.splines_of(0)
    coarse, folds = fp.branches[0].samples, fp.branches[0].fold_marks
    code = _kernels.variant_code(variant)
    tang = np.array([_kernels.tangent(code, 0.05, breaks, cg, ct, *u)
                     for u in coarse])
    fwd, _ = X._densify(code, 0.05, breaks, cg, ct, coarse, folds, tang,
                        X.MAX_STEP)
    # the same loop run backwards, its closing point wound once in tau
    back = coarse[::-1].copy()
    back[-1, 2] += X.TWO_PI
    rev, _ = X._densify(code, 0.05, breaks, cg, ct, back, [], tang[::-1],
                        X.MAX_STEP)
    assert rev[-1, 2] == back[-1, 2]
    assert np.max(np.abs(rev[-2::-1] - fwd[1:])) < 1e-10


@pytest.mark.parametrize("max_step", [X.COARSE_STEP, 0.1])
def test_no_densifying_at_coarse_steps(max_step):
    for variant in ("earring", "bypass"):
        got = traced(variant, "arc", max_step)
        want = traced(variant, "arc", max_step, coarse=False)
        assert len(got.branches) == len(want.branches)
        for a, b in zip(got.branches, want.branches):
            assert np.array_equal(a.samples, b.samples)
            assert a.fold_marks == b.fold_marks


@pytest.mark.parametrize("fails, jump", [(1, False), (99, False),
                                         (1, True)])
def test_failed_densifying_retraces_at_half_the_step(fails, jump,
                                                    monkeypatch):
    steps = []
    trace_loop, batch = X._trace_loop, _kernels.corrector_batch

    def record(*args):
        steps.append(args[-1])
        return trace_loop(*args)

    def fail(*args):
        u0, u1, u2, ok = batch(*args)
        if len(steps) <= fails:
            if jump:
                # converged, but a piece length away: on another sheet
                u1 = u1 + np.where(np.arange(u1.size) == 7, 0.02, 0.0)
            else:
                ok[:] = False
        return u0, u1, u2, ok

    monkeypatch.setattr(X, "_trace_loop", record)
    monkeypatch.setattr(_kernels, "corrector_batch", fail)
    fp = X.fiber_product(C.slope_one_arc(), "bypass", 0.05, max_step=0.016,
                         circles=fold("bypass", 0.05))
    if fails == 1:
        assert steps == [X.COARSE_STEP, X.COARSE_STEP / 2]
    else:
        # the retries end at max_step with the fine trace as it is
        assert steps == [X.COARSE_STEP, X.COARSE_STEP / 2, 0.016]
        monkeypatch.setattr(X, "COARSE_STEP", 0.0)
        want = X.fiber_product(C.slope_one_arc(), "bypass", 0.05,
                               max_step=0.016, circles=fold("bypass", 0.05))
        assert np.array_equal(fp.branches[0].samples, want.branches[0].samples)
    assert fp.branches[0].fold_crossings == 2


def test_short_loops_are_not_traced_round_twice():
    # each sheet over this small circle is a loop shorter than the ten coarse
    # steps a trace runs before it may close
    curve = C.ImmersedCurve([C.CurveComponent("circle", C._polyline(
        lambda t: (1.2 + 0.08 * np.cos(t), 1.9 + 0.08 * np.sin(t)),
        0, 2 * np.pi, 200))], "P0")
    fp = X.fiber_product(curve, "bypass", 0.05)
    _, _, _, period, _ = fp.splines_of(0)
    assert len(fp.branches) == 2
    for b in fp.branches:
        turns = (b.samples[-1, 0] - b.samples[0, 0]) / period
        assert abs(abs(turns) - 1.0) < 1e-9
