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
value, bad curve file or unwritable output, 3 numerical failure
(non-convergence or tangency).
The output directory defaults to ``--out`` and is overridden by the
PILLOWCASE_OUT environment variable when that is set and not empty; an
output path that a file blocks is refused before the command computes.
numpy runs on one OpenBLAS thread unless OPENBLAS_NUM_THREADS is already
set.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import random
import sys
from pathlib import Path

# One OpenBLAS thread: starting its worker pool is a cost of numpy's import,
# and the package makes no BLAS or LAPACK call that could use it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, verify
from . import _svg
from .curves import (GenericPositionError, ImmersedCurve, double, intersect,
                     invariants, bottom_edge, slope_one_arc, slope_two_arc,
                     twisted_double, vertical_circle, wavy_arc)
from .compose import (MAX_STEP, TangencyError, compose_curve,
                      fold_image_curves, transpose_compose)
from .projection import OffVarietyError, ReGaugeError
# solve_fiber is unused here, but the tracer in perfbench/ pins the
# cli.solve_fiber alias
from .variety import (ContinuationError, fold_locus, solve_fiber,
                      solve_fibers, verify_topology)
from .words import BYPASS, EARRING, NU_MAX

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
    """PILLOWCASE_OUT, unless it is unset or empty, else ``--out``."""
    return Path(os.environ.get("PILLOWCASE_OUT") or args.out)


def _check_outdir(out: Path):
    """Raise ``NotADirectoryError`` when ``out``, or its nearest existing
    parent, is not a directory, so that a command refuses it before it
    computes; nothing is created.  Other errors, such as a missing
    permission, show at the first write."""
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise NotADirectoryError(errno.ENOTDIR,
                                         os.strerror(errno.ENOTDIR), str(p))
            return


def _write(out: Path, name: str, text: str):
    """Write one output file, making the directory at the first write, so
    a command that fails before writing leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def cmd_trace(args) -> int:
    out = _outdir(args)
    variant, s = args.variant, args.s
    report = verify_topology(variant, s, grid=args.grid)
    _write(out, "topology.json",
           json.dumps(report.to_dict(), indent=2) + "\n")
    gs, ts, status = report.fibers
    lines = ["# fiber classification",
             f"# variant={variant} s={s} grid={args.grid}",
             "gamma,theta,status"]
    g_text = [f"{g:.12g}," for g in gs]
    t_text = [f"{t:.12g}," for t in ts]
    for i, g in enumerate(g_text):
        for j, t in enumerate(t_text):
            lines.append(g + t + status[i, j])
    _write(out, "fibers.csv", "\n".join(lines) + "\n")

    if s != 0.0:
        circles = report.circles
        lines = ["# fold circle samples",
                 f"# variant={variant} s={s}",
                 "eps_gamma,eps_theta,tau,gamma,theta,nu,sin_gamma,sin_theta"]
        for c in circles:
            for g, t, nu, tau, sg, st in np.hstack([c.samples, c.image]).tolist():
                lines.append(f"{c.corner[0]},{c.corner[1]},{tau:.12g},{g:.12g},"
                             f"{t:.12g},{nu:.12g},{sg:.12g},{st:.12g}")
        _write(out, "fold_circles.csv", "\n".join(lines) + "\n")
        fold_curve = fold_image_curves(circles)
        svg = _svg.scene_svg([], fold_image=fold_curve,
                             title=f"fold image {variant} s={s}")
        _write(out, "trace.svg", svg)

    print(f"trace: variant={variant} s={s} grid={args.grid}")
    print(f"  counts: {report.counts}")
    print(f"  fold circles: {report.fold_circles}  consistent: {report.consistent}")
    if report.euler_characteristic is not None:
        print(f"  euler characteristic: {report.euler_characteristic} "
              f"(genus {report.genus_cover} upstairs, "
              f"{report.genus_quotient} downstairs)")
    elif report.degenerate:
        print("  degenerate case report written")
    else:
        print("  inconsistent report: its notes are in topology.json")
    return 0 if (report.consistent or report.degenerate) else 1


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def cmd_compose(args) -> int:
    out = _outdir(args)
    if args.curve_file:
        # both tangles are endomorphisms of the four-punctured sphere, so a
        # curve of either factor is read in the first, composed.json too
        try:
            curve = ImmersedCurve.from_json(
                Path(args.curve_file).read_text()).validate().relabel("P0")
        # JSONDecodeError and CurveError are ValueErrors
        except (OSError, ValueError) as exc:
            print(f"bad curve file {args.curve_file}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        curve.name = Path(args.curve_file).stem
    else:
        curve = NAMED_CURVES[args.name]()
    circles = fold_locus(args.variant, args.s)
    composed = compose_curve(curve, args.variant, args.s,
                             max_step=args.max_step, circles=circles)
    _write(out, "composed.json", composed.to_json() + "\n")
    svg = _svg.scene_svg(
        [(curve.name or "input", curve),
         (f"composed -> P1", composed.relabel("P0"))],
        fold_image=fold_image_curves(circles),
        title=f"compose {curve.name} {args.variant} s={args.s}")
    _write(out, "composed.svg", svg)
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
    dt = twisted_double(vertical_circle())
    dd = double(dt)
    dd.name = "D_Dt_Bver"
    circles = fold_locus(variant, s)

    # composition and intersection counts are componentwise, and D(Dt) is
    # two copies of the one circle Dt: compose and intersect Dt once, and
    # count it twice; the composed D(Dt) repeats the components in D's order
    forward = compose_curve(a1, variant, s, max_step=max_step, circles=circles)
    n_fwd_a2 = intersect(forward, a2.relabel("P1")).count
    n_fwd_dd = 2 * intersect(forward, dt.relabel("P1")).count

    pb_a2 = transpose_compose(a2, variant, s, max_step=max_step, circles=circles)
    pb_dt = transpose_compose(dt, variant, s, max_step=max_step,
                              circles=circles)
    pb_dd = ImmersedCurve(pb_dt.components * 2, pb_dt.side)
    n_back_a2 = intersect(a1, pb_a2).count
    n_back_dd = 2 * intersect(a1, pb_dt).count

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
        "fold": fold_image_curves(circles),
    }


def cmd_scene(args) -> int:
    out = _outdir(args)
    data = torus_knot_scene(args.variant, args.s, max_step=args.max_step)
    for side in ("P0", "P1"):
        svg = _svg.scene_svg(data["curves"][side], fold_image=data["fold"],
                             title=f"K(3,7) scene {side} {args.variant} s={args.s}")
        _write(out, f"scene_{side.lower()}.svg", svg)
    payload = {k: data[k] for k in ("variant", "s", "forward", "pullback")}
    _write(out, "scene.json", json.dumps(payload, indent=2) + "\n")
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

def _random_chart_rows(rng: random.Random, n):
    """``n`` uniform chart points, rows (s, gamma, theta, nu, tau) with
    |s| <= 0.2, drawn point by point."""
    return np.array([(rng.uniform(-0.2, 0.2), rng.uniform(0, 2 * math.pi),
                      rng.uniform(0, 2 * math.pi), rng.uniform(-0.5, 0.5),
                      rng.uniform(0, 2 * math.pi)) for _ in range(n)])


def _variety_points(rng: random.Random, variant, s, n):
    """``n`` random rows (s, gamma, theta, nu, tau) on the variety.

    Each attempt draws a base point (gamma, theta) in [0.3, pi - 0.3]^2
    and a sheet, and is kept when its fiber is two-sheeted inside the
    chart; a miss is skipped.  A round draws every point still needed and
    solves them in one ``solve_fibers`` call.  Raises ``ContinuationError``
    after 100 n attempts.
    """
    pts = []
    attempts = 0
    while len(pts) < n:
        if attempts == 100 * n:
            raise ContinuationError(
                f"found {len(pts)} of {n} two-sheeted fibers for {variant} "
                f"at s={s} in {attempts} attempts")
        draws = [(rng.uniform(0.3, math.pi - 0.3),
                  rng.uniform(0.3, math.pi - 0.3), rng.randrange(2))
                 for _ in range(min(n - len(pts), 100 * n - attempts))]
        attempts += len(draws)
        gs, ts, sides = zip(*draws)
        for fs, side in zip(solve_fibers(variant, s, gs, ts), sides):
            if fs.status == "two_sheets" and all(
                    abs(nu) <= NU_MAX for nu, _ in fs.solutions):
                pts.append((s, fs.gamma, fs.theta, *fs.solutions[side]))
    return np.array(pts)


def verification_suite(variant: str, s: float, seed: int = 0,
                       quick: bool = True) -> list[tuple]:
    """The invariant battery of ``verify``; returns (name, ok, detail) rows.

    The checks and their thresholds are in ``pillowcase.verify``; this
    draws their samples and sizes.
    """
    rng = random.Random(seed)
    rows = []

    worst, ok = verify.identities(
        variant, _random_chart_rows(rng, 200 if quick else 1000))
    rows.append(("identities", ok, f"max residual {worst:.2e}"))

    # w2 on the earring side, and 0.3 off it in nu
    on_pts = _variety_points(rng, EARRING, s, 20 if quick else 200)
    off_pts = on_pts.copy()
    off_pts[:, 3] = np.clip(on_pts[:, 3] + 0.3, -0.5, 0.5)
    on_worst, off_best, _, ok = verify.w2_condition(on_pts, off_pts)
    rows.append(("w2_condition", ok,
                 f"on-variety {on_worst:.2e}, off-variety {off_best:.2e}"))

    try:
        worst_g, worst_fix, ok = verify.explicit_points((variant,),
                                                        (0.01, 0.05, 0.1))
        rows.append(("explicit_points", ok, f"|G| {worst_g:.2e}, involution "
                                            f"char drift {worst_fix:.2e}"))
    except (OffVarietyError, ReGaugeError) as exc:
        rows.append(("explicit_points", False, str(exc)))

    sigmas = np.linspace(0, 2 * np.pi, 72 if quick else 360, endpoint=False)
    worst, ok = verify.k_circles((variant,), (0.05, 0.1), sigmas)
    rows.append(("k_circle", ok, f"max residual {worst:.2e}"))

    n_asym = 30 if quick else 100
    bases = [(rng.uniform(0.3, math.pi - 0.3), rng.uniform(0.3, math.pi - 0.3))
             for _ in range(n_asym)]
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

    # the fold circles are solved once; where they cannot be found, the four
    # rows that read them fail with the solver's message
    try:
        circles, fold_error = fold_locus(variant, s), None
    except ContinuationError as exc:
        circles, fold_error = None, exc
    if fold_error:
        rows += [(n, False, str(fold_error)) for n in ("fold_structure", "topology")]
    else:
        dev, winds, _, rank_ok, ok = verify.fold_structure(
            circles, variant, s,
            [c.samples[len(c.samples) // 3] for c in circles])
        rows.append(("fold_structure", ok,
                     f"radius dev {dev:.2e}, windings {winds}, rank1 {rank_ok}"))
        rep = verify_topology(variant, s, grid=32 if quick else 64,
                              circles=circles)
        rows.append(("topology", verify.topology(rep),
                     f"chi {rep.euler_characteristic}, genus "
                     f"{rep.genus_cover}/{rep.genus_quotient}"))

    try:
        worst, ok = verify.factorization(
            variant, _variety_points(rng, variant, s, 40 if quick else 200))
        rows.append(("factorization", ok, f"max residual {worst:.2e}"))
    except (OffVarietyError, ReGaugeError) as exc:
        rows.append(("factorization", False, str(exc)))

    try:
        if fold_error:
            raise fold_error
        edge = compose_curve(bottom_edge(), variant, s, max_step=1.5e-3,
                             circles=circles)
        hd, _, edge_ok = verify.composed_edge(edge, variant, s)
        b_ver = vertical_circle()
        dps, hd_b, b_ok = verify.theorem_b(
            b_ver, compose_curve(b_ver, variant, s, circles=circles), s)
    except (ContinuationError, TangencyError) as exc:
        rows += [(name, False, str(exc))
                 for name in ("composed_edge", "composed_circles")]
    else:
        rows.append(("composed_edge", edge_ok, f"hausdorff {hd:.2e}"))
        rows.append(("composed_circles", b_ok,
                     f"components {len(dps)}, hausdorff {hd_b:.3f}"))

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
    _write(out, "verify.json", payload + "\n")
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
_TRACE_S = _checked(float, lambda s: s == 0.0 or 1e-6 <= abs(s) < 0.5,
                    "is not 0 and not finite with 1e-6 <= |s| < 1/2 (fibers "
                    "are not resolved below 1e-6)")
_NONZERO_S = _checked(float, lambda s: 0.0 < abs(s) < 0.5,
                      "is not finite with 0 < |s| < 1/2 (fold circles need "
                      "s != 0)")
# the battery's checks hold for 1e-3 <= |s| <= 0.2: beyond it asymptotics
# and the tangent anchor fail on valid input, and at 3e-4 and below the
# composed rows' loops run out of continuation steps
_VERIFY_S = _checked(float, lambda s: 1e-3 <= abs(s) <= 0.2,
                     "is not finite with 1e-3 <= |s| <= 0.2 (the range where "
                     "the verify checks hold; below it the compositions "
                     "run out of continuation steps)")
# trace holds two n x n float meshes and writes n^2 lines of fibers.csv: 16
# and 40 MB at 16 times the default, 160 GB of meshes alone at n = 100,000
GRID_MAX = 1024
_GRID = _checked(int, lambda n: 1 <= n <= GRID_MAX,
                 f"is not from 1 to {GRID_MAX}")
_SEED = _checked(int, lambda n: n >= 0, "is not >= 0")
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
    common(p, s_type=_TRACE_S)
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
    common(p, s_type=_VERIFY_S)
    p.add_argument("--full", action="store_true",
                   help="full-size sweeps (slower)")
    p.add_argument("--seed", type=_SEED, default=0,
                   help="seed of the random sample draws")
    p.add_argument("--json", action="store_true",
                   help="print the rows as one JSON list")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outdir(_outdir(args))
        return args.func(args)
    except (TangencyError, GenericPositionError, ContinuationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # only _check_outdir and _write raise it: compose reads its curve file
    # under its own guard
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
