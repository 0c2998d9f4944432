"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Shared heavy computations (fold loci, compositions, scenes) are cached so the
cross-variant comparison criterion can replay integer outputs without
recomputing.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from functools import lru_cache

import numpy as np

from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import projection as P
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import words as W
from pillowcase.cli import torus_knot_scene

VARIANTS = ("earring", "bypass")


def _line(num: int, name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


@lru_cache(maxsize=None)
def fold(variant: str, s: float):
    return tuple(V.fold_locus(variant, s))


@lru_cache(maxsize=None)
def variety_points(variant: str, s: float, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    while len(pts) < n:
        assert attempts < 100 * n, (
            f"found {len(pts)} of {n} two-sheeted fibers for {variant} at "
            f"s={s} in {attempts} attempts")
        attempts += 1
        g = float(rng.uniform(0.25, np.pi - 0.25))
        t = float(rng.uniform(0.25, np.pi - 0.25))
        fs = V.solve_fiber(variant, s, g, t)
        if fs.status == "two_sheets":
            pt = fs.chart_points()[int(rng.integers(0, 2))]
            pt.variant = variant
            pts.append(pt)
    return tuple(pts)


def test_criterion_01_identity_suite():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        pt = W.ChartPoint(float(rng.uniform(-0.2, 0.2)),
                          float(rng.uniform(0, 2 * np.pi)),
                          float(rng.uniform(0, 2 * np.pi)),
                          float(rng.uniform(-0.5, 0.5)),
                          float(rng.uniform(0, 2 * np.pi)))
        worst = max(worst, W.check_identities(pt).max_residual)
    ok = worst < 1e-11
    _line(1, "identity suite", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_02_w2_equivalence():
    pts = variety_points("earring", 0.08, 200, seed=2)
    on_worst = max(float(np.max(np.abs(W.w2_value(p) + quat.ONE)))
                   for p in pts)
    off_best = np.inf
    count = 0
    for p in pts:
        shift = 0.3 if p.nu <= 0.0 else -0.3
        off = W.ChartPoint(p.s, p.gamma, p.theta, p.nu + shift, p.tau)
        assert abs(W.G(off)[1]) > 0.1
        count += 1
        off_best = min(off_best,
                       float(np.max(np.abs(W.w2_value(off) + quat.ONE))))
    ok = on_worst < 1e-7 and off_best > 1e-3 and count == 200
    _line(2, "w2 equivalence", ok,
          f"on {on_worst:.2e}, off {off_best:.2e} over {count} points")
    assert ok


def test_criterion_03_explicit_points():
    worst_g = 0.0
    worst_fix = 0.0
    for e1 in (1, -1):
        for e2 in (1, -1):
            for s in (0.01, 0.05, 0.1):
                for variant in VARIANTS:
                    rep = W.rho_eps(e1, e2, s, variant)
                    worst_g = max(
                        worst_g,
                        float(np.max(np.abs(np.stack(W.g_of_rep(rep))))),
                        float(np.max(np.abs(np.stack(W.gp_of_rep(rep))))))
                    moved = P.u_involution(rep)
                    worst_fix = max(worst_fix, float(np.max(np.abs(
                        P.characters_in_out(moved)
                        - P.characters_in_out(rep)))))
    ok = worst_g < 1e-10 and worst_fix < 1e-8
    _line(3, "explicit points", ok,
          f"|G| {worst_g:.2e}, involution drift {worst_fix:.2e}")
    assert ok


def test_criterion_04_closed_form_circles():
    worst = 0.0
    for variant in VARIANTS:
        for s in (0.05, 0.1):
            for sig in np.linspace(0, 2 * np.pi, 360, endpoint=False):
                rep = V.k_circle(variant, s, float(sig))
                pair = W.g_of_rep(rep) if variant == "earring" \
                    else W.gp_of_rep(rep)
                worst = max(worst, float(np.max(np.abs(np.stack(pair)))))
    ok = worst < 1e-9
    _line(4, "closed-form circles", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_05_asymptotics():
    rng = np.random.default_rng(5)
    ratios = {}
    exact = True
    for variant in VARIANTS:
        res = {0.05: [], 0.025: []}
        made = 0
        attempts = 0
        while made < 100:
            assert attempts < 100 * 100, (
                f"found {made} of 100 two-sheeted fiber pairs for {variant} "
                f"at s=0.05 and s=0.025 in {attempts} attempts")
            attempts += 1
            g0 = float(rng.uniform(0.3, np.pi - 0.3))
            t0 = float(rng.uniform(0.3, np.pi - 0.3))
            vals = {}
            for s in (0.05, 0.025):
                fs = V.solve_fiber(variant, s, g0, t0)
                if fs.status != "two_sheets":
                    break
                nu, tau = fs.solutions[0]
                lead = -(np.sin(g0) * np.sin(tau)
                         - np.sin(t0) * np.cos(tau)) \
                    + 2 * s * np.cos(g0) * np.cos(t0)
                vals[s] = lead
                exact = exact and (W.Gp(W.ChartPoint(s, g0, t0, nu, tau))[1]
                                   == nu)
            if len(vals) == 2:
                made += 1
                for s in vals:
                    res[s].append(vals[s])
        ratios[variant] = float(np.sqrt(np.mean(np.square(res[0.05])))
                                / np.sqrt(np.mean(np.square(res[0.025]))))
    ok = all(3.0 <= r <= 5.0 for r in ratios.values()) and exact
    _line(5, "asymptotic expansion", ok,
          f"rms ratios {ratios}, exact second component {exact}")
    assert ok


def test_criterion_06_fold_structure():
    ok = True
    details = []
    for variant in VARIANTS:
        circles = fold(variant, 0.05)
        ok &= len(circles) == 4
        dev5 = max(float(np.max(np.abs(c.radii - 0.1))) for c in circles)
        ok &= dev5 <= 0.25 * 0.1
        ok &= all(abs(c.winding()) == 1 for c in circles)
        dev25 = max(float(np.max(np.abs(c.radii - 0.05)))
                    for c in fold(variant, 0.025))
        ok &= dev5 / dev25 >= 3.5
        miss = min(min(V._corner_distance(p.gamma, p.theta)
                       for p in c.points) for c in circles)
        ok &= miss > 0.05 / 2
        for c in circles:
            for idx in (5, len(c.points) // 2):
                sv0, k0, sv1, k1 = V.fold_jacobian_data(c.points[idx])
                ang = float(np.arccos(min(1.0, abs(float(np.dot(k0, k1))))))
                ok &= sv0[1] / sv0[0] < 1e-4 and sv1[1] / sv1[0] < 1e-4
                ok &= ang > 1e-3
        details.append(f"{variant}: dev {dev5:.2e}, shrink {dev5 / dev25:.1f}x, "
                       f"corner miss {miss:.3f}")
    _line(6, "fold structure", ok, "; ".join(details))
    assert ok


def test_criterion_07_topology():
    ok = True
    details = []
    for variant in VARIANTS:
        rep = V.verify_topology(variant, 0.05, grid=64)
        ok &= rep.consistent and rep.euler_characteristic == -8
        ok &= rep.genus_cover == 5 and rep.genus_quotient == 3
        ok &= rep.fold_circles == 4
        details.append(f"{variant}: chi {rep.euler_characteristic}, counts "
                       f"{rep.counts}")
    _line(7, "topology", ok, "; ".join(details))
    assert ok


def test_criterion_08_factorization():
    worst = 0.0
    for variant in VARIANTS:
        for pt in variety_points(variant, 0.05, 200, seed=8):
            worst = max(worst, P.verify_factorization(W.embed_L(pt)))
    ok = worst < 1e-7
    _line(8, "factorization", ok, f"max residual {worst:.2e}")
    assert ok


@lru_cache(maxsize=None)
def _edge_reports():
    out = {}
    for variant in VARIANTS:
        composed = X.compose_curve(C.bottom_edge(), variant, 0.05,
                                   max_step=1.5e-3,
                                   circles=list(fold(variant, 0.05)))
        pred = X.bottom_edge_prediction(variant, 0.05)
        hd = C.hausdorff_r3(composed, pred)
        dp = C.invariants(composed).components[0].double_points
        out[variant] = (hd, dp)
    return out


@lru_cache(maxsize=None)
def _arc_reports():
    out = {}
    for variant in VARIANTS:
        rows = []
        for curve in (C.slope_one_arc(), C.wavy_arc()):
            rep = X.verify_theorem_B(curve, variant, 0.05,
                                     circles=list(fold(variant, 0.05)))
            rows.append(rep)
        out[variant] = rows
    return out


def test_criterion_09_theorem_b_arcs():
    ok = True
    details = []
    for variant in VARIANTS:
        hd, dp = _edge_reports()[variant]
        ok &= hd < 1e-6 and dp == 1
        details.append(f"{variant} edge hausdorff {hd:.2e}, double points {dp}")
        for rep in _arc_reports()[variant]:
            ok &= rep.invariants_equal and rep.ok
    _line(9, "composed arcs vs figure eight", ok, "; ".join(details))
    assert ok


@lru_cache(maxsize=None)
def _circle_reports():
    out = {}
    for variant in VARIANTS:
        rows = []
        for s in (0.1, 0.05, 0.025):
            rep = X.verify_theorem_B(C.vertical_circle(), variant, s,
                                     circles=list(fold(variant, s)))
            rows.append(rep)
        out[variant] = rows
    return out


def test_criterion_10_theorem_b_circles():
    ok = True
    details = []
    for variant in VARIANTS:
        rows = _circle_reports()[variant]
        hds = [r.hausdorff for r in rows]
        svals = [r.s for r in rows]
        ok &= all(r.component_count == 2 and r.invariants_equal for r in rows)
        ok &= all(h <= 5 * s for h, s in zip(hds, svals))
        slope = np.polyfit(np.log(svals), np.log(hds), 1)[0]
        ok &= 0.6 <= slope <= 1.4
        details.append(f"{variant}: hausdorff {[f'{h:.3f}' for h in hds]}, "
                       f"decay slope {slope:.2f}")
    _line(10, "composed circles vs double", ok, "; ".join(details))
    assert ok


def test_criterion_11_tangent_anchor():
    ok = True
    details = []
    for variant in VARIANTS:
        anchors = X.edge_tangent_anchors(variant, 0.05)
        errs = []
        for branch in (1, -1):
            target = np.array([-1.0, 0.0, -1.0 + branch * 2 * 0.05])
            err = min(float(np.max(np.abs(anchors[sg] - target)))
                      for sg in (1, -1))
            errs.append(err)
            ok &= err <= 3 * 0.05 ** 2
        details.append(f"{variant}: deviations {[f'{e:.1e}' for e in errs]}")
    _line(11, "tangent anchor", ok,
          "; ".join(details) + f"; bound {3 * 0.05 ** 2:.1e}")
    assert ok


@lru_cache(maxsize=None)
def _scenes():
    out = {}
    for variant in VARIANTS:
        for s in (0.05, 0.025):
            data = torus_knot_scene(variant, s)
            out[(variant, s)] = (data["forward"]["total"],
                                 data["pullback"]["total"],
                                 data["forward"]["vs_A2"],
                                 data["forward"]["vs_circles"])
    return out


def test_criterion_12_torus_knot_scene():
    ok = True
    details = []
    for (variant, s), (fwd, back, _, _) in _scenes().items():
        ok &= fwd == 9 and back == 9
        details.append(f"{variant}@{s}: {fwd}/{back}")
    _line(12, "torus-knot nine points", ok, "; ".join(details))
    assert ok


def test_criterion_13_variant_equivalence():
    ints = {}
    for variant in VARIANTS:
        edge_dp = _edge_reports()[variant][1]
        arcs = tuple((r.component_count, tuple(r.double_points))
                     for r in _arc_reports()[variant])
        circ = tuple((r.component_count, tuple(r.double_points))
                     for r in _circle_reports()[variant])
        scenes = tuple(v for (va, s), v in sorted(_scenes().items())
                       if va == variant)
        ints[variant] = (edge_dp, arcs, circ, scenes)
    ok = ints["earring"] == ints["bypass"]
    _line(13, "earring/bypass equivalence", ok,
          f"integer outputs {ints['earring']}")
    assert ok
