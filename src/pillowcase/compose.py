"""Composition of an immersed curve with the variety correspondence.

Given a curve in the first pillowcase factor, its fiber product with the
variety is the solution set of the defining pair over the curve:
{(t, nu, tau) : G(s, gamma(t), theta(t), nu, tau) = 0}, a disjoint union of
loops.  The loops are traced by pseudo-arclength continuation (the curve
parameter t is an unknown like the others, so fold passages need no chart
switch); pushing a loop through the second restriction map gives the
composed curve.  Circles away from the fold images yield two loops, one per
sheet; a good arc yields a single loop that reverses t at each of its
transverse fold-image crossings.

Each curve component is carried by the not-a-knot cubic spline of its lift
(``_kernels.cubic_fit``), fitted once per fiber product and shared by the
continuation and the push forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .curves import (CurveComponent, CurveError, GenericPositionError,
                     ImmersedCurve, double, figure_eight, intersect)
from .projection import pi0_u_r3, pi1_r3_of_chart
from .variety import (ContinuationError, FoldCircle, eta, fold_locus,
                      k_circle, solve_fiber, tau_seed)
from .words import BYPASS

TWO_PI = 2.0 * np.pi


class TangencyError(RuntimeError):
    """The input curve is tangent to a fold image; composition is refused."""


@dataclass
class Branch:
    component: int
    samples: np.ndarray  # (m, 3) columns (t, nu, tau)
    closed: bool
    fold_marks: list[int]  # sample indices where the curve parameter reverses
    sheet: str | None  # "plus" | "minus" | None when the loop crosses folds

    @property
    def fold_crossings(self) -> int:
        return len(self.fold_marks)


@dataclass
class FiberProduct:
    curve: ImmersedCurve
    variant: str
    s: float
    branches: list[Branch]
    splines: dict[int, tuple] = field(default_factory=dict, repr=False)

    def splines_of(self, ci: int) -> tuple:
        """(breaks, c_gamma, c_theta, t_period, length) of component ci,
        fitted on first use."""
        if ci not in self.splines:
            self.splines[ci] = _component_splines(self.curve.components[ci])
        return self.splines[ci]


def fold_image_curves(variant: str, s: float,
                      circles: list[FoldCircle] | None = None) -> ImmersedCurve:
    """The four fold-image circles as a curve in the base coordinates."""
    circles = circles if circles is not None else fold_locus(variant, s)
    comps = []
    for c in circles:
        lift = np.array([[p.gamma if p.gamma < np.pi * 1.5 else p.gamma - TWO_PI,
                          p.theta if p.theta < np.pi * 1.5 else p.theta - TWO_PI]
                         for p in c.points])
        lift = np.vstack([lift, lift[0]])
        comps.append(CurveComponent("circle", lift))
    return ImmersedCurve(comps, "P0", f"fold_image_{variant}")


def check_transversality(curve: ImmersedCurve, variant: str, s: float,
                         circles: list[FoldCircle] | None = None):
    """All crossings of the curve with the fold images, with a transversality
    verdict (angle above 1e-2 rad required).

    The fold-image lift double covers the quotient fold image (it is the
    full flip-invariant circle upstairs), so hits are deduplicated by their
    position on the input curve.
    """
    fold_curve = fold_image_curves(variant, s, circles)
    try:
        res = intersect(curve, fold_curve, angle_tol=1e-2)
    except GenericPositionError:
        return False, []
    crossings = []
    for hit in res.points:
        dup = any(c.comp_a == hit.comp_a and abs(c.t_a - hit.t_a) < 1e-6
                  for c in crossings)
        if not dup:
            crossings.append(hit)
    return True, crossings


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def _component_splines(comp: CurveComponent):
    """Cubic spline data (breaks, c_gamma, c_theta, t_period, length) for a
    lift, parameterized by polyline arclength so the continuation metric
    treats (t, nu, tau) isotropically.

    Circle lifts are padded two periods on both sides so the continuation can
    run past the seam before closing.
    """
    lift = comp.lift
    seg = np.linalg.norm(np.diff(lift, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    length = float(t[-1])
    period = 0.0
    if comp.kind == "circle":
        lam = comp.period
        lift = np.vstack([lift[:-1] + k * lam for k in range(-2, 3)]
                         + [lift[-1:] + 2 * lam])
        t = np.concatenate([t[:-1] + k * length for k in range(-2, 3)]
                           + [[3 * length]])
        period = length
    c = _kernels.cubic_fit(t, lift)
    return (t, np.ascontiguousarray(c[..., 0]), np.ascontiguousarray(c[..., 1]),
            period, length)


def _closure_distance(u, u0, period):
    dt = u[0] - u0[0]
    if period > 0:
        dt = dt - period * np.round(dt / period)
    dtau = np.mod(u[2] - u0[2] + np.pi, TWO_PI) - np.pi
    return float(np.hypot(np.hypot(dt, u[1] - u0[1]), dtau))


def _trace_loop(code, s, breaks, cg, ct, period, u_start, *, max_step,
                max_steps=100_000, tol=1e-11):
    """Pseudo-arclength trace of one solution loop; returns (samples, folds)."""
    u = np.array(u_start, dtype=float)
    t0 = _kernels.tangent(code, s, breaks, cg, ct, u[0], u[1], u[2])
    if not t0[3]:
        raise ContinuationError("no tangent at the continuation seed")
    tang = np.array(t0[:3])
    samples = [u.copy()]
    h = max_step
    folds: list[int] = []
    arclen = 0.0
    last_sign = np.sign(tang[0]) if tang[0] != 0 else 1.0
    for _ in range(max_steps):
        stepped = False
        while h >= 1e-7:
            pred = u + h * tang
            r = _kernels.corrector(code, s, breaks, cg, ct, pred[0], pred[1],
                                   pred[2], tang[0], tang[1], tang[2], tol, 40)
            # r[4] is the tangent at the corrected point
            if r[3] and r[4] is not None:
                u_new = np.array(r[:3])
                t_new = np.array(r[4])
                if np.dot(t_new, tang) < 0:
                    t_new = -t_new
                # reject steps that double back or jump
                jump = np.linalg.norm(u_new - u)
                if jump <= 4 * h and np.dot(t_new, tang) > 0.2:
                    stepped = True
                    break
            h *= 0.5
        if not stepped:
            raise ContinuationError("continuation step rejection cascade")
        arclen += np.linalg.norm(u_new - u)
        u = u_new
        tang = t_new
        samples.append(u.copy())
        if tang[0] != 0:
            sign = np.sign(tang[0])
            if sign != 0 and sign != last_sign:
                folds.append(len(samples) - 1)
                last_sign = sign
        h = min(h * 1.4, max_step)
        if len(samples) > 10 and arclen > 10 * max_step:
            if _closure_distance(u, samples[0], period) < max(1e-5, 2 * h):
                t_back = _kernels.tangent(code, s, breaks, cg, ct,
                                          samples[0][0], samples[0][1],
                                          samples[0][2])
                tb = np.array(t_back[:3])
                if abs(np.dot(tb, tang)) > 0.9:
                    break
    else:
        raise ContinuationError("loop failed to close within the step budget")
    # append the start point, with t continued to its nearest
    # period-equivalent so circle branches keep a monotone parameter
    closing = samples[0].copy()
    if period > 0:
        dt = closing[0] - u[0]
        closing[0] = closing[0] - period * np.round(dt / period)
    samples.append(closing)
    return np.array(samples), folds


def _branch_sheet(samples, breaks, cg, ct, folds):
    if folds:
        return None
    k = len(samples) // 3
    t, nu, tau = samples[k]
    g = _kernels._ppoly_eval(breaks, cg, t)
    th = _kernels._ppoly_eval(breaks, ct, t)
    ts = tau_seed(g, th)
    d_plus = abs(np.mod(tau - ts + np.pi, TWO_PI) - np.pi)
    return "plus" if d_plus < np.pi / 2 else "minus"


def fiber_product(curve: ImmersedCurve, variant: str, s: float, *,
                  max_step: float = 4e-3,
                  circles: list[FoldCircle] | None = None) -> FiberProduct:
    """Trace the solution loops of the defining pair over the curve."""
    if s == 0.0:
        raise ValueError("composition needs s != 0")
    ok, _ = check_transversality(curve, variant, s, circles)
    if not ok:
        raise TangencyError(
            f"curve is tangent to the fold image at s = {s}; choose another s")
    code = _kernels.variant_code(variant)
    fp = FiberProduct(curve, variant, s, [])
    for ci, comp in enumerate(curve.components):
        breaks, cg, ct, period, length = fp.splines_of(ci)
        if comp.kind == "circle":
            t_candidates = [0.0, 0.13 * length, 0.29 * length, 0.41 * length]
        else:
            t_candidates = [0.5 * length, 0.37 * length, 0.63 * length]
        seeds = None
        for t0 in t_candidates:
            g = _kernels._ppoly_eval(breaks, cg, t0)
            th = _kernels._ppoly_eval(breaks, ct, t0)
            fs = solve_fiber(variant, s, g, th)
            if fs.status == "two_sheets":
                seeds = [(t0, nu, tau) for nu, tau in fs.solutions]
                break
        if seeds is None:
            raise ContinuationError(
                "no fold-free seed fiber found along the curve")
        if comp.kind == "good_arc":
            seeds = seeds[:1]
        loops: list[tuple[np.ndarray, int]] = []
        for seed in seeds:
            already = any(
                np.min([_closure_distance(np.array(seed), p, period)
                        for p in loop[0]]) < 1e-4
                for loop in loops)
            if already:
                continue
            loops.append(_trace_loop(code, s, breaks, cg, ct, period, seed,
                                     max_step=max_step))
        for samples, folds in loops:
            sheet = _branch_sheet(samples, breaks, cg, ct, folds)
            fp.branches.append(Branch(ci, samples, True, folds, sheet))
    return fp


# ---------------------------------------------------------------------------
# push forward
# ---------------------------------------------------------------------------

def _unwrap_orbit_path(r3: np.ndarray) -> np.ndarray:
    """Continuous plane lift of a path of pillowcase character triples.

    Each point is an orbit {(+-g, +-t)} + lattice; the lift picks, per step,
    the orbit element nearest a linear prediction from the two previous
    points.  Position alone is not enough: where the path crosses an edge of
    the fundamental rectangle the reflected element can sit closer to the
    previous point than the true continuation does.
    """
    x = np.clip(r3[:, 0], -1.0, 1.0)
    y = np.clip(r3[:, 1], -1.0, 1.0)
    z = r3[:, 2]
    g0 = np.arccos(x)
    t0 = np.arccos(y)
    # resolve the theta sign of the first point against the third character
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
                cand = cand_base + TWO_PI * np.round((target - cand_base)
                                                     / TWO_PI)
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


def _prune_short(lift: np.ndarray, samples: np.ndarray, min_len: float):
    """Greedily drop lift vertices closer than min_len to their predecessor
    (keeping the endpoints), with the matching parameter samples."""
    keep = [0]
    for k in range(1, len(lift) - 1):
        if np.linalg.norm(lift[k] - lift[keep[-1]]) >= min_len:
            keep.append(k)
    keep.append(len(lift) - 1)
    idx = np.array(keep)
    return lift[idx], samples[idx]


def push_forward(fp: FiberProduct, *, turn_limit_deg: float = 15.0) -> ImmersedCurve:
    """Apply the second restriction map to every branch.

    Output components are circles in the second factor; under-resolved spots
    (image turning above the immersion proxy limit) are refined once by
    parameter-midpoint insertion before failing.
    """
    comps = []
    for branch in fp.branches:
        breaks, cg, ct, _, _ = fp.splines_of(branch.component)
        samples = branch.samples

        def image_of(samp):
            gs = _kernels._ppoly_eval(breaks, cg, samp[:, 0])
            th = _kernels._ppoly_eval(breaks, ct, samp[:, 0])
            try:
                r3 = pi1_r3_of_chart(fp.s, gs, th, samp[:, 1], samp[:, 2],
                                     variant=fp.variant)
            except ValueError as exc:
                raise ContinuationError(
                    f"fiber-product sample outside the chart: {exc}") from exc
            return _unwrap_orbit_path(r3)

        lift = image_of(samples)
        # drop image micro-segments: below ~1e-6 the turning angle between
        # neighbors is dominated by the corrector tolerance, not geometry
        lift_k, samp_k = _prune_short(lift, samples, 1e-6)
        ang = np.arctan2(np.diff(lift_k, axis=0)[:, 1],
                         np.diff(lift_k, axis=0)[:, 0])
        turns = np.abs(np.mod(np.diff(ang) + np.pi, TWO_PI) - np.pi)
        if np.any(turns > np.deg2rad(turn_limit_deg)):
            # refine once around the sharp spots
            code = _kernels.variant_code(fp.variant)
            refined = [samp_k[0]]
            for k in range(len(samp_k) - 1):
                a, b = samp_k[k], samp_k[k + 1]
                mid = 0.5 * (a + b)
                tang = b - a
                nrm = np.linalg.norm(tang)
                if nrm > 1e-12:
                    tang = tang / nrm
                    r = _kernels.corrector(code, fp.s, breaks, cg, ct, mid[0],
                                           mid[1], mid[2], tang[0], tang[1],
                                           tang[2], 1e-11, 40)
                    if r[3]:
                        refined.append(np.array(r[:3]))
                refined.append(b)
            samp_k = np.array(refined)
            lift_r = image_of(samp_k)
            lift_k, samp_k = _prune_short(lift_r, samp_k, 1e-6)
            ang = np.arctan2(np.diff(lift_k, axis=0)[:, 1],
                             np.diff(lift_k, axis=0)[:, 0])
            turns = np.abs(np.mod(np.diff(ang) + np.pi, TWO_PI) - np.pi)
            if np.any(turns > np.deg2rad(turn_limit_deg)):
                raise ContinuationError(
                    "composed image violates the immersion proxy after "
                    "refinement; decrease the continuation step")
        # snap the closing point onto the lattice-translated start
        lam = lift_k[-1] - lift_k[0]
        lam_snap = TWO_PI * np.round(lam / TWO_PI)
        if np.max(np.abs(lam - lam_snap)) > 1e-5:
            raise ContinuationError("composed loop does not close modulo the "
                                    "lattice")
        lift_k[-1] = lift_k[0] + lam_snap
        comps.append(CurveComponent("circle", lift_k))
    name = f"composed({fp.curve.name})" if fp.curve.name else "composed"
    return ImmersedCurve(comps, "P1", name)


def compose_curve(curve: ImmersedCurve, variant: str, s: float, *,
                  max_step: float = 4e-3,
                  circles: list[FoldCircle] | None = None) -> ImmersedCurve:
    return push_forward(fiber_product(curve, variant, s, max_step=max_step,
                                      circles=circles))


def transpose_compose(curve: ImmersedCurve, variant: str, s: float, *,
                      max_step: float = 4e-3,
                      circles: list[FoldCircle] | None = None) -> ImmersedCurve:
    """Composition with the transposed correspondence (swap the factor roles).

    The factorization of the second restriction map through the involution
    turns the transpose into a conjugate of the forward composition:
    pull back = (Theta Psi^-1) o forward o (Theta Psi^-1).
    """
    def flip(curve_in: ImmersedCurve, side: str) -> ImmersedCurve:
        comps = [CurveComponent(c.kind, np.column_stack([c.lift[:, 0],
                                                         -c.lift[:, 1]]))
                 for c in curve_in.components]
        return ImmersedCurve(comps, side, curve_in.name)

    pulled = flip(curve, "P0")
    forward = compose_curve(pulled, variant, s, max_step=max_step,
                            circles=circles)
    return flip(forward, "P0").relabel("P0")


# ---------------------------------------------------------------------------
# predictions and verification
# ---------------------------------------------------------------------------

def bottom_edge_prediction(variant: str, s: float, n: int = 8192) -> ImmersedCurve:
    """Closed-form image of the composed bottom edge in the second factor.

    Bypass: sigma -> [sigma, -2 s cos(sigma)].  Earring: the same with the
    phase corrected by twice the fixed-point angle eta(s, sigma).
    """
    sig = np.linspace(0.0, TWO_PI, n + 1)
    if variant == BYPASS:
        th = -2 * s * np.cos(sig)
    else:
        th = np.array([-2 * s * np.cos(x + 2 * eta(s, x)) for x in sig])
    lift = np.column_stack([sig, th])
    return ImmersedCurve([CurveComponent("circle", lift)], "P1",
                         f"predicted_beta_{variant}")


def edge_tangent_anchors(variant: str, s: float, step: float = 1e-5):
    """Derivative in R^3 of the pre-relabeling composed bottom edge at the
    double point, for both half-turn branches."""
    out = {}
    for sign in (1, -1):
        sig0 = sign * np.pi / 2
        vp = pi0_u_r3(k_circle(variant, s, sig0 + sign * step))
        vm = pi0_u_r3(k_circle(variant, s, sig0 - sign * step))
        out[sign] = (vp - vm) / (2 * step)
    return out


@dataclass
class TheoremBReport:
    variant: str
    s: float
    input_name: str
    mode: str  # "arc" | "circle"
    component_count: int
    predicted_count: int
    invariants_equal: bool
    hausdorff: float
    double_points: list[int]
    predicted_double_points: list[int]
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = (self.component_count == self.predicted_count
                   and self.invariants_equal
                   and self.double_points == self.predicted_double_points)


def verify_theorem_B(curve: ImmersedCurve, variant: str, s: float, *,
                     max_step: float = 4e-3,
                     circles: list[FoldCircle] | None = None) -> TheoremBReport:
    """Compare the composed curve against the predicted class: the relabeled
    figure eight for a good arc, the relabeled double for circles."""
    from .curves import invariants, hausdorff_r3

    kinds = {c.kind for c in curve.components}
    if kinds == {"good_arc"}:
        if len(curve.components) != 1:
            raise CurveError("arc verification expects a single component")
        pred = figure_eight(curve, s).relabel("P1")
        mode = "arc"
    elif kinds == {"circle"}:
        pred = double(curve).relabel("P1")
        mode = "circle"
    else:
        raise CurveError("mixed-kind curves are composed per component")

    out = compose_curve(curve, variant, s, max_step=max_step, circles=circles)
    inv_out = invariants(out)
    inv_pred = invariants(pred)
    return TheoremBReport(
        variant=variant,
        s=s,
        input_name=curve.name,
        mode=mode,
        component_count=len(out.components),
        predicted_count=len(pred.components),
        invariants_equal=inv_out == inv_pred,
        hausdorff=hausdorff_r3(out, pred),
        double_points=sorted(c.double_points for c in inv_out.components),
        predicted_double_points=sorted(c.double_points
                                       for c in inv_pred.components),
    )
