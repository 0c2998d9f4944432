"""Command-line surface.

Subcommands:

- ``trace``    classify fibers over a base grid, extract the fold circles,
               and write the topology report (CSV + JSON)
- ``compose``  push a named or user-supplied curve through the
               correspondence and export the result (JSON + SVG)
- ``scene``    build the torus-knot example and count both pairings of the
               length-three composition
- ``verify``   run the full invariant battery, write its rows as JSON and
               exit nonzero on failure

Exit codes: 0 success, 1 verification failure, 2 usage error, bad option
value or bad curve file, 3 numerical failure (non-convergence or tangency).
The output directory defaults to ``--out`` and is overridden by the
PILLOWCASE_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, verify
from . import _svg
from .curves import (GenericPositionError, ImmersedCurve, double, intersect,
                     invariants, bottom_edge, slope_one_arc, slope_two_arc,
                     twisted_double, vertical_circle, wavy_arc)
from .compose import (MAX_STEP, TangencyError, compose_curve,
                      fold_image_curves, transpose_compose, verify_theorem_B)
# solve_fiber is unused here, but the tracer in perfbench/ pins the
# cli.solve_fiber alias
from .variety import (ContinuationError, fold_locus, solve_fiber,
                      solve_fibers, verify_topology)
from .words import BYPASS, EARRING, NU_MAX, ChartPoint

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

def torus_knot_scene(variant: str, s: float, *,
                     max_step: float = MAX_STEP) -> dict:
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

def _random_chart_points(rng, n, variant=EARRING):
    return [ChartPoint(float(rng.uniform(-0.2, 0.2)),
                       float(rng.uniform(0, 2 * np.pi)),
                       float(rng.uniform(0, 2 * np.pi)),
                       float(rng.uniform(-0.5, 0.5)),
                       float(rng.uniform(0, 2 * np.pi)), variant)
            for _ in range(n)]


def _variety_points(rng, variant, s, n):
    """``n`` random chart points on the variety, one per usable fiber.

    Each attempt draws a base point (gamma, theta) in [0.3, pi - 0.3]^2,
    and a sheet when its fiber is two-sheeted inside the chart.  A round
    draws every point still needed as if each fiber were usable, solves
    them in one ``solve_fibers`` call and keeps the fibers before the first
    miss; at a miss the generator is wound back and the draws are replayed
    up to the miss's base point, so the stream equals that of one fiber at
    a time.  Raises ``ContinuationError`` after 100 n attempts.
    """
    pts = []
    attempts = 0
    while len(pts) < n:
        if attempts == 100 * n:
            raise ContinuationError(
                f"found {len(pts)} of {n} two-sheeted fibers for {variant} "
                f"at s={s} in {attempts} attempts")
        state = rng.bit_generator.state
        draws = [(float(rng.uniform(0.3, np.pi - 0.3)),
                  float(rng.uniform(0.3, np.pi - 0.3)),
                  int(rng.integers(0, 2)))
                 for _ in range(min(n - len(pts), 100 * n - attempts))]
        gs, ts, sides = zip(*draws)
        for k, fs in enumerate(solve_fibers(variant, s, gs, ts)):
            attempts += 1
            if fs.status != "two_sheets" or not all(
                    abs(nu) <= NU_MAX for nu, _ in fs.solutions):
                # a uniform draw takes one double whatever its bounds
                rng.bit_generator.state = state
                for _ in range(k):
                    rng.uniform(), rng.uniform(), rng.integers(0, 2)
                rng.uniform(), rng.uniform()
                break
            pts.append(fs.chart_points()[sides[k]])
    return pts


def verification_suite(variant: str, s: float, seed: int = 0,
                       quick: bool = True) -> list[tuple]:
    """The invariant battery of ``verify``; returns (name, ok, detail) rows.

    The checks and their thresholds are in ``pillowcase.verify``; this
    draws their samples and sizes.
    """
    rng = np.random.default_rng(seed)
    rows = []

    worst, ok = verify.identities(
        _random_chart_points(rng, 200 if quick else 1000, variant=variant))
    rows.append(("identities", ok, f"max residual {worst:.2e}"))

    # w2 on the earring side, and 0.3 off it in nu
    on_pts = _variety_points(rng, EARRING, s, 20 if quick else 200)
    off_pts = [ChartPoint(p.s, p.gamma, p.theta,
                          float(np.clip(p.nu + 0.3, -0.5, 0.5)), p.tau,
                          EARRING) for p in on_pts]
    on_worst, off_best, _, ok = verify.w2_condition(on_pts, off_pts)
    rows.append(("w2_condition", ok,
                 f"on-variety {on_worst:.2e}, off-variety {off_best:.2e}"))

    worst_g, worst_fix, ok = verify.explicit_points((variant,),
                                                    (0.01, 0.05, 0.1))
    rows.append(("explicit_points", ok,
                 f"|G| {worst_g:.2e}, involution char drift {worst_fix:.2e}"))

    sigmas = np.linspace(0, 2 * np.pi, 72 if quick else 360, endpoint=False)
    worst, ok = verify.k_circles((variant,), (0.05, 0.1), sigmas)
    rows.append(("k_circle", ok, f"max residual {worst:.2e}"))

    n_asym = 30 if quick else 100
    bases = [(float(rng.uniform(0.3, np.pi - 0.3)),
              float(rng.uniform(0.3, np.pi - 0.3))) for _ in range(n_asym)]
    roots = []
    for sv in (s, s / 2):
        fibers = solve_fibers(variant, sv, *zip(*bases))
        roots.append([(g0, t0, *fs.solutions[0])
                      for (g0, t0), fs in zip(bases, fibers)
                      if fs.status == "two_sheets"
                      and abs(fs.solutions[0][0]) <= NU_MAX])
    ratio, exact, ok = verify.asymptotics(variant, s, *roots)
    rows.append(("asymptotics", ok, f"rms ratio {ratio:.2f}, second bypass "
                                    f"component exact: {exact}"))

    # the fold circles are shared by the checks below
    circles = None
    try:
        circles = fold_locus(variant, s)
        dev, winds, _, rank_ok, ok = verify.fold_structure(
            circles, s, [c.points[len(c.points) // 3] for c in circles])
        rows.append(("fold_structure", ok,
                     f"radius dev {dev:.2e}, windings {winds}, rank1 {rank_ok}"))
    except ContinuationError as exc:
        rows.append(("fold_structure", False, str(exc)))

    rep = verify_topology(variant, s, grid=32 if quick else 64,
                          circles=circles)
    rows.append(("topology", verify.topology(rep),
                 f"chi {rep.euler_characteristic}, genus "
                 f"{rep.genus_cover}/{rep.genus_quotient}"))

    worst, ok = verify.factorization(
        _variety_points(rng, variant, s, 40 if quick else 200))
    rows.append(("factorization", ok, f"max residual {worst:.2e}"))

    try:
        edge = compose_curve(bottom_edge(), variant, s, max_step=1.5e-3,
                             circles=circles)
        hd, _, edge_ok = verify.composed_edge(edge, variant, s)
        rep_b = verify_theorem_B(vertical_circle(), variant, s,
                                 circles=circles)
    except (ContinuationError, TangencyError) as exc:
        rows += [(name, False, str(exc))
                 for name in ("composed_edge", "composed_circles")]
    else:
        rows.append(("composed_edge", edge_ok, f"hausdorff {hd:.2e}"))
        rows.append(("composed_circles", verify.composed_circles(rep_b),
                     f"components {rep_b.component_count}, hausdorff "
                     f"{rep_b.hausdorff:.3f}"))

    errs, bound, ok = verify.tangent_anchor(variant, s)
    rows.append(("tangent_anchor", ok,
                 f"max deviation {max(errs):.2e} vs 3s^2 = {bound:.2e}"))
    return rows


def cmd_verify(args) -> int:
    out = _outdir(args)
    rows = verification_suite(args.variant, args.s, seed=args.seed,
                              quick=not args.full)
    payload = json.dumps([{"check": n, "ok": bool(ok), "detail": d}
                          for n, ok, d in rows])
    (out / "verify.json").write_text(payload + "\n")
    if args.json:
        print(payload)
    else:
        width = max(len(n) for n, _, _ in rows)
        for n, ok, d in rows:
            print(f"{n:<{width}}  {'PASS' if ok else 'FAIL'}  {d}")
    return 0 if all(ok for _, ok, _ in rows) else 1


# ---------------------------------------------------------------------------

def _checked(cast, ok, why):
    """An argparse type: ``cast`` the text, then reject it unless ``ok``."""
    def parse(text: str):
        x = cast(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{text!r} {why}")
        return x
    parse.__name__ = cast.__name__  # argparse names it in "invalid float value"
    return parse


# |s| < 1/2 is the condition of variety.eta; NaN fails every comparison
_S = _checked(float, lambda s: abs(s) < 0.5, "is not finite with |s| < 1/2")
_NONZERO_S = _checked(float, lambda s: 0.0 < abs(s) < 0.5,
                      "is not finite with 0 < |s| < 1/2 (fold circles need "
                      "s != 0)")
_GRID = _checked(int, lambda n: n >= 1, "is not >= 1")
_STEP = _checked(float, lambda h: 0.0 < h < math.inf,
                 "is not finite and > 0")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pillowcase",
        description="perturbed traceless character varieties of the earring "
                    "and bypass tangles, numerically")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand registers only the options it reads, so a stray one
    # is a usage error (exit 2) rather than silently ignored
    def common(p, s_type=_NONZERO_S):
        p.add_argument("--variant", choices=[EARRING, BYPASS], default=EARRING)
        p.add_argument("--s", type=s_type, default=0.05)
        p.add_argument("--out", default="out")

    p = sub.add_parser("trace", help="fiber classification, fold circles, "
                                     "topology report")
    common(p, s_type=_S)  # s = 0 gives the degenerate report
    p.add_argument("--grid", type=_GRID, default=64)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compose", help="compose a curve with the "
                                       "correspondence")
    common(p)
    p.add_argument("--name", choices=sorted(NAMED_CURVES), default="beta")
    p.add_argument("--curve-file", default=None,
                   help="JSON curve file (overrides --name)")
    p.add_argument("--max-step", type=_STEP, default=MAX_STEP)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("scene", help="torus-knot example, both pairings")
    common(p)
    p.add_argument("--max-step", type=_STEP, default=MAX_STEP)
    p.add_argument("--json", action="store_true",
                   help="print the pairing counts as one JSON line")
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("verify", help="run the invariant battery")
    common(p)
    p.add_argument("--full", action="store_true",
                   help="full-size sweeps (slower)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random sample draws")
    p.add_argument("--json", action="store_true",
                   help="print the rows as one JSON list")
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
