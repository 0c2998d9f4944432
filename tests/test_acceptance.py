"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Each criterion draws its own samples for the checks of ``pillowcase.verify``,
the battery of the ``verify`` command.  Shared heavy computations (fold loci,
compositions, scenes) are cached so the cross-variant comparison criterion
can replay integer outputs without recomputing.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

from functools import lru_cache

import numpy as np

from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase import words as W
from pillowcase.cli import _random_chart_points, torus_knot_scene

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
            pts.append(fs.chart_points()[int(rng.integers(0, 2))])
    return tuple(pts)


def test_criterion_01_identity_suite():
    worst, ok = VF.identities(
        _random_chart_points(np.random.default_rng(0), 1000))
    _line(1, "identity suite", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_02_w2_equivalence():
    pts = variety_points("earring", 0.08, 200, seed=2)
    # 0.3 off the variety in nu, towards nu = 0
    off = [W.ChartPoint(p.s, p.gamma, p.theta,
                        p.nu + (0.3 if p.nu <= 0.0 else -0.3), p.tau)
           for p in pts]
    on_worst, off_best, count, ok = VF.w2_condition(pts, off)
    ok = ok and count == len(pts)
    _line(2, "w2 equivalence", ok,
          f"on {on_worst:.2e}, off {off_best:.2e} over {count} points")
    assert ok


def test_criterion_03_explicit_points():
    worst_g, worst_fix, ok = VF.explicit_points(VARIANTS, (0.01, 0.05, 0.1))
    _line(3, "explicit points", ok,
          f"|G| {worst_g:.2e}, involution drift {worst_fix:.2e}")
    assert ok


def test_criterion_04_closed_form_circles():
    worst, ok = VF.k_circles(VARIANTS, (0.05, 0.1),
                             np.linspace(0, 2 * np.pi, 360, endpoint=False))
    _line(4, "closed-form circles", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_05_asymptotics():
    rng = np.random.default_rng(5)
    ratios = {}
    exact = ok = True
    for variant in VARIANTS:
        roots = {0.05: [], 0.025: []}
        attempts = 0
        while len(roots[0.05]) < 100:
            assert attempts < 100 * 100, (
                f"found {len(roots[0.05])} of 100 two-sheeted fiber pairs for "
                f"{variant} at s=0.05 and s=0.025 in {attempts} attempts")
            attempts += 1
            g0 = float(rng.uniform(0.3, np.pi - 0.3))
            t0 = float(rng.uniform(0.3, np.pi - 0.3))
            found = {}
            for s in roots:
                fs = V.solve_fiber(variant, s, g0, t0)
                if fs.status != "two_sheets":
                    break
                found[s] = (g0, t0, *fs.solutions[0])
            if len(found) == 2:
                for s in found:
                    roots[s].append(found[s])
        ratios[variant], exact_v, ok_v = VF.asymptotics(
            variant, 0.05, roots[0.05], roots[0.025])
        exact &= exact_v
        ok &= ok_v
    _line(5, "asymptotic expansion", ok,
          f"rms ratios {ratios}, exact second component {exact}")
    assert ok


def test_criterion_06_fold_structure():
    ok = True
    details = []
    for variant in VARIANTS:
        circles = fold(variant, 0.05)
        dev5, _, miss, _, ok_v = VF.fold_structure(
            circles, 0.05,
            [c.points[i] for c in circles for i in (5, len(c.points) // 2)])
        dev25 = VF.fold_structure(fold(variant, 0.025), 0.025, ())[0]
        ok &= ok_v and dev5 / dev25 >= VF.FOLD_SHRINK_MIN
        details.append(f"{variant}: dev {dev5:.2e}, shrink {dev5 / dev25:.1f}x, "
                       f"corner miss {miss:.3f}")
    _line(6, "fold structure", ok, "; ".join(details))
    assert ok


def test_criterion_07_topology():
    ok = True
    details = []
    for variant in VARIANTS:
        rep = V.verify_topology(variant, 0.05, grid=64)
        ok &= VF.topology(rep)
        details.append(f"{variant}: chi {rep.euler_characteristic}, counts "
                       f"{rep.counts}")
    _line(7, "topology", ok, "; ".join(details))
    assert ok


def test_criterion_08_factorization():
    worst, ok = VF.factorization(variety_points("earring", 0.05, 200, seed=8)
                                 + variety_points("bypass", 0.05, 200, seed=8))
    _line(8, "factorization", ok, f"max residual {worst:.2e}")
    assert ok


@lru_cache(maxsize=None)
def _edge_reports():
    out = {}
    for variant in VARIANTS:
        composed = X.compose_curve(C.bottom_edge(), variant, 0.05,
                                   max_step=1.5e-3,
                                   circles=list(fold(variant, 0.05)))
        out[variant] = VF.composed_edge(composed, variant, 0.05)
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
        hd, dp, edge_ok = _edge_reports()[variant]
        ok &= edge_ok
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
        ok &= all(r.component_count == 2 and VF.composed_circles(r)
                  for r in rows)
        hds = [r.hausdorff for r in rows]
        slope = np.polyfit(np.log([r.s for r in rows]), np.log(hds), 1)[0]
        lo, hi = VF.CIRCLE_DECAY_SLOPE
        ok &= lo <= slope <= hi
        details.append(f"{variant}: hausdorff {[f'{h:.3f}' for h in hds]}, "
                       f"decay slope {slope:.2f}")
    _line(10, "composed circles vs double", ok, "; ".join(details))
    assert ok


def test_criterion_11_tangent_anchor():
    ok = True
    details = []
    for variant in VARIANTS:
        errs, bound, ok_v = VF.tangent_anchor(variant, 0.05)
        ok &= ok_v
        details.append(f"{variant}: deviations {[f'{e:.1e}' for e in errs]}")
    _line(11, "tangent anchor", ok, "; ".join(details) + f"; bound {bound:.1e}")
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
