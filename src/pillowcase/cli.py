"""Command-line surface.

Subcommands:

- ``trace``    classify fibers over a base grid, extract the fold circles,
               and write the topology report (CSV + JSON)
- ``compose``  push a named or user-supplied curve through the
               correspondence and export the result (JSON + SVG)
- ``scene``    build the torus-knot example and count both pairings of the
               length-three composition
- ``verify``   run the full invariant battery and exit nonzero on failure

Exit codes: 0 success, 1 verification failure, 2 usage error or bad curve
file, 3 numerical failure (non-convergence or tangency).  The output directory defaults to
``--out`` and is overridden by the PILLOWCASE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, quat
from . import _svg
from .curves import (GenericPositionError, ImmersedCurve, double,
                     hausdorff_r3, intersect, invariants, bottom_edge,
                     slope_one_arc, slope_two_arc, twisted_double,
                     vertical_circle, wavy_arc)
from .compose import (TangencyError, bottom_edge_prediction, compose_curve,
                      edge_tangent_anchors, fold_image_curves,
                      transpose_compose, verify_theorem_B)
from .projection import (characters_in_out, u_involution,
                         verify_factorization)
from .variety import (ContinuationError, fold_locus, fold_jacobian_data,
                      k_circle, solve_fiber, solve_fibers, verify_topology)
from .words import (BYPASS, EARRING, ChartPoint, G, Gp, check_identities,
                    embed_L, g_of_rep, gp_of_rep, rho_eps, w2_value)

NAMED_CURVES = {
    "beta": bottom_edge,
    "b_ver": vertical_circle,
    "slope_one": slope_one_arc,
    "slope_two": slope_two_arc,
    "wavy": wavy_arc,
    "dt_b_ver": lambda: twisted_double(vertical_circle()),
    "d_dt_b_ver": lambda: double(twisted_double(vertical_circle())),
}


def _outdir(args) -> Path:
    out = os.environ.get("PILLOWCASE_OUT", args.out)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args) -> int:
    out = _outdir(args)
    variant, s = args.variant, args.s
    report = verify_topology(variant, s, grid=args.grid)
    (out / "topology.json").write_text(json.dumps(report.to_dict(), indent=2)
                                       + "\n")
    gs, ts, status = report.fibers
    lines = ["# fiber classification",
             f"# variant={variant} s={s} grid={args.grid}",
             "gamma,theta,status"]
    for i, g in enumerate(gs):
        for j, t in enumerate(ts):
            lines.append(f"{g:.12g},{t:.12g},{status[i, j]}")
    (out / "fibers.csv").write_text("\n".join(lines) + "\n")

    if s != 0.0:
        circles = report.circles
        lines = ["# fold circle samples",
                 f"# variant={variant} s={s}",
                 "eps_gamma,eps_theta,tau,gamma,theta,nu,sin_gamma,sin_theta"]
        for c in circles:
            for pt, im in zip(c.points, c.image):
                lines.append(
                    f"{c.corner[0]},{c.corner[1]},{pt.tau:.12g},{pt.gamma:.12g},"
                    f"{pt.theta:.12g},{pt.nu:.12g},{im[0]:.12g},{im[1]:.12g}")
        (out / "fold_circles.csv").write_text("\n".join(lines) + "\n")
        fold_curve = fold_image_curves(variant, s, circles)
        svg = _svg.scene_svg([], fold_image=fold_curve,
                             title=f"fold image {variant} s={s}")
        (out / "trace.svg").write_text(svg)

    print(f"trace: variant={variant} s={s} grid={args.grid}")
    print(f"  counts: {report.counts}")
    print(f"  fold circles: {report.fold_circles}  consistent: {report.consistent}")
    if report.euler_characteristic is not None:
        print(f"  euler characteristic: {report.euler_characteristic} "
              f"(genus {report.genus_cover} upstairs, "
              f"{report.genus_quotient} downstairs)")
    else:
        print("  degenerate case report written")
    return 0 if (report.consistent or report.degenerate) else 1


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def cmd_compose(args) -> int:
    out = _outdir(args)
    if args.curve_file:
        try:
            curve = ImmersedCurve.from_json(
                Path(args.curve_file).read_text()).validate()
        # JSONDecodeError and CurveError are ValueErrors; a JSON value of the
        # wrong shape raises KeyError or TypeError
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"bad curve file {args.curve_file}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        curve.name = Path(args.curve_file).stem
    else:
        curve = NAMED_CURVES[args.name]()
    try:
        circles = fold_locus(args.variant, args.s)
        composed = compose_curve(curve, args.variant, args.s,
                                 max_step=args.max_step, circles=circles)
    except (TangencyError, GenericPositionError) as exc:
        print(f"composition refused: {exc}", file=sys.stderr)
        return 3
    except ContinuationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    (out / "composed.json").write_text(composed.to_json() + "\n")
    svg = _svg.scene_svg(
        [(curve.name or "input", curve.relabel("P0")),
         (f"composed -> P1", composed.relabel("P0"))],
        fold_image=fold_image_curves(args.variant, args.s, circles),
        title=f"compose {curve.name} {args.variant} s={args.s}")
    (out / "composed.svg").write_text(svg)
    inv = invariants(composed)
    print(f"composed {curve.name}: {len(composed.components)} component(s)")
    for k, c in enumerate(inv.components):
        print(f"  component {k}: homology {c.homology}, corner windings "
              f"{c.corner_windings}, double points {c.double_points}")
    return 0


# ---------------------------------------------------------------------------
# torus-knot scene
# ---------------------------------------------------------------------------

def torus_knot_scene(variant: str, s: float, *, max_step: float = 4e-3) -> dict:
    """Both pairings of the length-three composition for the (3,7) torus
    knot decomposition: the trivial-tangle arc on one side, the slope-two arc
    plus doubled twisted-double circles on the other."""
    a1 = slope_one_arc()
    a1.name = "A1"
    a2 = slope_two_arc()
    a2.name = "A2"
    dd = double(twisted_double(vertical_circle()))
    dd.name = "D_Dt_Bver"
    circles = fold_locus(variant, s)

    forward = compose_curve(a1, variant, s, max_step=max_step, circles=circles)
    n_fwd_a2 = intersect(forward, a2.relabel("P1")).count
    n_fwd_dd = intersect(forward, dd.relabel("P1")).count

    pb_a2 = transpose_compose(a2, variant, s, max_step=max_step, circles=circles)
    pb_dd = transpose_compose(dd, variant, s, max_step=max_step, circles=circles)
    n_back_a2 = intersect(a1, pb_a2).count
    n_back_dd = intersect(a1, pb_dd).count

    return {
        "variant": variant,
        "s": s,
        "forward": {"vs_A2": n_fwd_a2, "vs_circles": n_fwd_dd,
                    "total": n_fwd_a2 + n_fwd_dd},
        "pullback": {"vs_A2": n_back_a2, "vs_circles": n_back_dd,
                     "total": n_back_a2 + n_back_dd},
        "curves": {
            "P1": [("(u_s)*A1", forward), ("A2", a2.relabel("P1")),
                   ("D_Dt_Bver", dd.relabel("P1"))],
            "P0": [("A1", a1), ("(u_s)^T A2", pb_a2),
                   ("(u_s)^T D_Dt_Bver", pb_dd)],
        },
        "fold": fold_image_curves(variant, s, circles),
    }


def cmd_scene(args) -> int:
    out = _outdir(args)
    try:
        data = torus_knot_scene(args.variant, args.s, max_step=args.max_step)
    except (TangencyError, GenericPositionError, ContinuationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for side in ("P0", "P1"):
        svg = _svg.scene_svg(data["curves"][side], fold_image=data["fold"],
                             title=f"K(3,7) scene {side} {args.variant} s={args.s}")
        (out / f"scene_{side.lower()}.svg").write_text(svg)
    payload = {k: data[k] for k in ("variant", "s", "forward", "pullback")}
    (out / "scene.json").write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"scene: variant={args.variant} s={args.s}")
        print(f"  forward pairing:  {data['forward']['total']} "
              f"({data['forward']['vs_A2']} with A2, "
              f"{data['forward']['vs_circles']} with circles)")
        print(f"  pullback pairing: {data['pullback']['total']} "
              f"({data['pullback']['vs_A2']} with A2, "
              f"{data['pullback']['vs_circles']} with circles)")
    ok = data["forward"]["total"] == 9 and data["pullback"]["total"] == 9
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _random_chart_points(rng, n, s_range=(-0.2, 0.2), variant=EARRING):
    pts = []
    for _ in range(n):
        pts.append(ChartPoint(
            float(rng.uniform(*s_range)),
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(-0.5, 0.5)),
            float(rng.uniform(0, 2 * np.pi)),
            variant,
        ))
    return pts


def _variety_points(rng, variant, s, n):
    pts = []
    attempts = 0
    while len(pts) < n:
        if attempts == 100 * n:
            raise ContinuationError(
                f"found {len(pts)} of {n} two-sheeted fibers for {variant} "
                f"at s={s} in {attempts} attempts")
        attempts += 1
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        fs = solve_fiber(variant, s, g, t)
        if fs.status == "two_sheets":
            pts.append(fs.chart_points()[int(rng.integers(0, 2))])
    return pts


def verification_suite(variant: str, s: float, seed: int = 0,
                       g_bias: float = 0.0, quick: bool = True) -> list[tuple]:
    """The invariant battery; returns (name, ok, detail) rows.

    ``g_bias`` injects a fault into the defining-pair evaluations used by the
    residual checks (mutation testing for the harness itself).
    """
    rng = np.random.default_rng(seed)
    rows = []

    def biased(pair):
        return (float(pair[0]) + g_bias, float(pair[1]) + g_bias)

    # identity suite
    worst = 0.0
    for pt in _random_chart_points(rng, 200 if quick else 1000, variant=variant):
        worst = max(worst, check_identities(pt).max_residual)
        worst = max(worst, abs(biased((0.0, 0.0))[0]))
    rows.append(("identities", worst < 1e-11, f"max residual {worst:.2e}"))

    # w2 equivalence on the earring side
    n_w2 = 20 if quick else 200
    on_pts = _variety_points(rng, EARRING, s, n_w2)
    on_worst = max(float(np.max(np.abs(w2_value(p) - (-quat.ONE))))
                   for p in on_pts)
    off_best = np.inf
    for p in on_pts:
        p_off = ChartPoint(p.s, p.gamma, p.theta,
                           float(np.clip(p.nu + 0.3, -0.5, 0.5)), p.tau,
                           EARRING)
        if abs(G(p_off)[1]) > 0.1:
            off_best = min(off_best,
                           float(np.max(np.abs(w2_value(p_off) - (-quat.ONE)))))
    ok = on_worst < 1e-7 and off_best > 1e-3
    rows.append(("w2_condition", ok,
                 f"on-variety {on_worst:.2e}, off-variety {off_best:.2e}"))

    # explicit fixed points
    worst_g = 0.0
    worst_fix = 0.0
    for e1 in (1, -1):
        for e2 in (1, -1):
            for sv in (0.01, 0.05, 0.1):
                rep = rho_eps(e1, e2, sv, variant)
                worst_g = max(worst_g,
                              float(np.max(np.abs(np.stack(g_of_rep(rep))))),
                              float(np.max(np.abs(np.stack(gp_of_rep(rep))))),
                              abs(biased((0.0, 0.0))[0]))
                moved = u_involution(rep)
                worst_fix = max(worst_fix, float(np.max(np.abs(
                    characters_in_out(moved) - characters_in_out(rep)))))
    rows.append(("explicit_points", worst_g < 1e-10 and worst_fix < 1e-8,
                 f"|G| {worst_g:.2e}, involution char drift {worst_fix:.2e}"))

    # closed-form circles
    worst = 0.0
    sigmas = np.linspace(0, 2 * np.pi, 72 if quick else 360, endpoint=False)
    for sv in (0.05, 0.1):
        for sig in sigmas:
            rep = k_circle(variant, sv, float(sig))
            pair = g_of_rep(rep) if variant == EARRING else gp_of_rep(rep)
            worst = max(worst, abs(biased(pair)[0]), abs(biased(pair)[1]))
    rows.append(("k_circle", worst < 1e-9, f"max residual {worst:.2e}"))

    # asymptotic expansion order
    n_asym = 30 if quick else 100
    bases = [(float(rng.uniform(0.3, np.pi - 0.3)),
              float(rng.uniform(0.3, np.pi - 0.3))) for _ in range(n_asym)]
    res = {s: [], s / 2: []}
    fibers = {sv: solve_fibers(variant, sv, *zip(*bases)) for sv in res}
    exact_nu = True
    for k, (g0, t0) in enumerate(bases):
        for sv in (s, s / 2):
            fs = fibers[sv][k]
            if fs.status != "two_sheets":
                continue
            nu, tau = fs.solutions[0]
            lead = -(np.sin(g0) * np.sin(tau) - np.sin(t0) * np.cos(tau)) \
                + 2 * sv * np.cos(g0) * np.cos(t0)
            if variant == BYPASS:
                lead *= 2.0
            res[sv].append(lead + g_bias)
            pt = ChartPoint(sv, g0, t0, nu, tau, variant)
            exact_nu = exact_nu and (Gp(pt)[1] == nu)
    ratio = float(np.sqrt(np.mean(np.square(res[s])))
                  / np.sqrt(np.mean(np.square(res[s / 2]))))
    rows.append(("asymptotics", 3.0 <= ratio <= 5.0 and exact_nu,
                 f"rms ratio {ratio:.2f}, second bypass component exact: "
                 f"{exact_nu}"))

    # fold structure; the circles are shared by the checks below
    circles = None
    try:
        from .variety import _corner_distance

        circles = fold_locus(variant, s)
        dev = max(float(np.max(np.abs(c.radii - 2 * abs(s)))) for c in circles)
        winds = [c.winding() for c in circles]
        corner_miss = min(min(_corner_distance(p.gamma, p.theta)
                              for p in c.points) for c in circles)
        rank_ok = True
        for c in circles:
            pt = c.points[len(c.points) // 3]
            sv0, k0, sv1, k1 = fold_jacobian_data(pt)
            ang = float(np.arccos(min(1.0, abs(float(np.dot(k0, k1))))))
            rank_ok = rank_ok and sv0[1] / sv0[0] < 1e-4 \
                and sv1[1] / sv1[0] < 1e-4 and ang > 1e-3
        ok = (len(circles) == 4 and dev <= 0.25 * 2 * abs(s)
              and all(abs(w) == 1 for w in winds) and rank_ok
              and corner_miss + g_bias * 0 > abs(s) / 2)
        rows.append(("fold_structure", ok,
                     f"radius dev {dev:.2e}, windings {winds}, rank1 {rank_ok}"))
    except ContinuationError as exc:
        rows.append(("fold_structure", False, str(exc)))

    # topology
    rep = verify_topology(variant, s, grid=32 if quick else 64,
                          circles=circles)
    rows.append(("topology", rep.consistent and rep.genus_cover == 5
                 and rep.genus_quotient == 3,
                 f"chi {rep.euler_characteristic}, genus "
                 f"{rep.genus_cover}/{rep.genus_quotient}"))

    # factorization of the second restriction map
    n_fact = 40 if quick else 200
    worst = 0.0
    for pt in _variety_points(rng, variant, s, n_fact):
        worst = max(worst, verify_factorization(embed_L(pt)) + abs(g_bias))
    rows.append(("factorization", worst < 1e-7, f"max residual {worst:.2e}"))

    # composed bottom edge against the closed form
    try:
        out = compose_curve(bottom_edge(), variant, s, max_step=1.5e-3,
                            circles=circles)
        pred = bottom_edge_prediction(variant, s)
        hd = hausdorff_r3(out, pred) + abs(g_bias)
        rows.append(("composed_edge", hd < 1e-6, f"hausdorff {hd:.2e}"))
        repB = verify_theorem_B(vertical_circle(), variant, s,
                                circles=circles)
        rows.append(("composed_circles", repB.ok and repB.hausdorff <= 5 * s,
                     f"components {repB.component_count}, hausdorff "
                     f"{repB.hausdorff:.3f}"))
    except (ContinuationError, TangencyError) as exc:
        rows.append(("composed_edge", False, str(exc)))

    # tangent anchor at the composed double point
    anchors = edge_tangent_anchors(variant, s)
    worst = 0.0
    for sign in (1, -1):
        target = np.array([-1.0, 0.0, -1.0 + sign * 2 * s])
        err = min(float(np.max(np.abs(anchors[sg] - target)))
                  for sg in (1, -1))
        worst = max(worst, err + abs(g_bias))
    rows.append(("tangent_anchor", worst <= 3 * s * s,
                 f"max deviation {worst:.2e} vs 3s^2 = {3 * s * s:.2e}"))
    return rows


def cmd_verify(args) -> int:
    bias = 1e-3 if args.inject_fault == "g-bias" else 0.0
    rows = verification_suite(args.variant, args.s, seed=args.seed,
                              g_bias=bias, quick=not args.full)
    if args.json:
        print(json.dumps([{"check": n, "ok": bool(ok), "detail": d}
                          for n, ok, d in rows]))
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, ok, d in rows:
            print(f"{n:<{width}}  {'PASS' if ok else 'FAIL'}  {d}")
    return 0 if all(ok for _, ok, _ in rows) else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pillowcase",
        description="perturbed traceless character varieties of the earring "
                    "and bypass tangles, numerically")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, s_default=0.05):
        p.add_argument("--variant", choices=[EARRING, BYPASS], default=EARRING)
        p.add_argument("--s", type=float, default=s_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("trace", help="fiber classification, fold circles, "
                                     "topology report")
    common(p)
    p.add_argument("--grid", type=int, default=64)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compose", help="compose a curve with the "
                                       "correspondence")
    common(p)
    p.add_argument("--name", choices=sorted(NAMED_CURVES), default="beta")
    p.add_argument("--curve-file", default=None,
                   help="JSON curve file (overrides --name)")
    p.add_argument("--max-step", type=float, default=4e-3)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("scene", help="torus-knot example, both pairings")
    common(p)
    p.add_argument("--max-step", type=float, default=4e-3)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.add_argument("--full", action="store_true",
                   help="full-size sweeps (slower)")
    p.add_argument("--inject-fault", choices=["none", "g-bias"],
                   default="none", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TangencyError, GenericPositionError, ContinuationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
