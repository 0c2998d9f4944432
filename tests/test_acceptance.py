"""Acceptance criteria, one test per criterion, with a pass/fail line each.

Each criterion draws its own samples for the checks of ``pillowcase.verify``,
the battery of the ``verify`` command.  Shared heavy computations (fold loci,
compositions, scenes) are cached so the cross-variant comparison criterion
can replay integer outputs without recomputing.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import random
from functools import lru_cache

import numpy as np

from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase.cli import _random_chart_rows, torus_knot_scene

VARIANTS = ("earring", "bypass")


def _line(num: int, name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


@lru_cache(maxsize=None)
def fold(variant: str, s: float):
    return tuple(V.fold_locus(variant, s))


def variety_points(variant: str, s: float, n: int, seed: int = 0):
    """Rows (s, gamma, theta, nu, tau) of ``n`` random points on the
    variety, one per two-sheeted fiber."""
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
            pts.append((s, g, t, *fs.solutions[int(rng.integers(0, 2))]))
    return np.array(pts)


def test_criterion_01_identity_suite():
    worst, ok = VF.identities(
        "earring", _random_chart_rows(random.Random(0), 1000))
    _line(1, "identity suite", ok, f"max residual {worst:.2e}")
    assert ok


def test_criterion_02_w2_equivalence():
    pts = variety_points("earring", 0.08, 200, seed=2)
    # 0.3 off the variety in nu, towards nu = 0
    off = pts.copy()
    off[:, 3] += np.where(pts[:, 3] <= 0.0, 0.3, -0.3)
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


def test_asymptotics_exact_flag_reads_the_word_form(monkeypatch):
    # the flag compares Re(h^- a) on the embedded roots with nu (0 on the
    # bypass variety), so a word layer that moves h off nu fails it
    roots = {sv: [(g0, t0, *V.solve_fiber("bypass", sv, g0, t0).solutions[0])
                  for g0, t0 in ((0.9, 1.3), (1.7, 0.6), (2.2, 2.0))]
             for sv in (0.05, 0.025)}
    assert VF.asymptotics("bypass", 0.05, roots[0.05], roots[0.025])[1]
    embed = VF.slice_parts

    def tilted(s, gamma, theta, nu, tau):
        vals = embed(s, gamma, theta, nu, tau)
        w, x, y, z = vals["h"]
        vals["h"] = (w, x + 1e-12, y, z)
        return vals

    monkeypatch.setattr(VF, "slice_parts", tilted)
    ratio, exact, ok = VF.asymptotics("bypass", 0.05, roots[0.05],
                                      roots[0.025])
    assert not exact and not ok


def test_criterion_06_fold_structure():
    ok = True
    details = []
    for variant in VARIANTS:
        circles = fold(variant, 0.05)
        dev5, _, miss, _, ok_v = VF.fold_structure(
            circles, variant, 0.05,
            [c.samples[i] for c in circles for i in (5, len(c.samples) // 2)])
        dev25 = VF.fold_structure(fold(variant, 0.025), variant, 0.025, ())[0]
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
    rows = [VF.factorization(v, variety_points(v, 0.05, 200, seed=8))
            for v in VARIANTS]
    worst, ok = max(w for w, _ in rows), all(o for _, o in rows)
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


def _theorem_b(curve, variant, s):
    composed = X.compose_curve(curve, variant, s,
                               circles=list(fold(variant, s)))
    return VF.theorem_b(curve, composed, s)


@lru_cache(maxsize=None)
def _arc_reports():
    return {variant: [_theorem_b(curve, variant, 0.05)
                      for curve in (C.slope_one_arc(), C.wavy_arc())]
            for variant in VARIANTS}


def test_criterion_09_theorem_b_arcs():
    ok = True
    details = []
    for variant in VARIANTS:
        hd, dp, edge_ok = _edge_reports()[variant]
        ok &= edge_ok
        details.append(f"{variant} edge hausdorff {hd:.2e}, double points {dp}")
        ok &= all(ok_arc for _, _, ok_arc in _arc_reports()[variant])
    _line(9, "composed arcs vs figure eight", ok, "; ".join(details))
    assert ok


CIRCLE_S = (0.1, 0.05, 0.025)


@lru_cache(maxsize=None)
def _circle_reports():
    return {variant: [_theorem_b(C.vertical_circle(), variant, s)
                      for s in CIRCLE_S]
            for variant in VARIANTS}


def test_criterion_10_theorem_b_circles():
    ok = True
    details = []
    for variant in VARIANTS:
        rows = _circle_reports()[variant]
        ok &= all(len(dp) == 2 and ok_s for dp, _, ok_s in rows)
        hds = [hd for _, hd, _ in rows]
        slope = np.polyfit(np.log(CIRCLE_S), np.log(hds), 1)[0]
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
        arcs = tuple((len(dp), tuple(dp))
                     for dp, _, _ in _arc_reports()[variant])
        circ = tuple((len(dp), tuple(dp))
                     for dp, _, _ in _circle_reports()[variant])
        scenes = tuple(v for (va, s), v in sorted(_scenes().items())
                       if va == variant)
        ints[variant] = (edge_dp, arcs, circ, scenes)
    ok = ints["earring"] == ints["bypass"]
    _line(13, "earring/bypass equivalence", ok,
          f"integer outputs {ints['earring']}")
    assert ok
