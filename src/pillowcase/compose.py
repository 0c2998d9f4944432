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

Each loop is traced coarse, then densified (Allgower & Georg, *Numerical
Continuation Methods*, 1990).  The trace runs at ``COARSE_STEP`` and fixes
the loop's topology: its branches, fold passages and closure.  Between two
coarse samples the loop is then a short arc, so the dense samples, at most
``max_step`` apart, are independent corrector problems: each is predicted
on the cubic Hermite curve through the coarse ends and the tangents the
trace found there, and corrected in the hyperplane normal to it, all at
once by ``_kernels.corrector_batch``.  If a dense point fails, or lands
more than a piece length from its prediction, the loop is retraced at
half the step; at ``max_step`` the trace itself is kept, so a
``max_step`` at or above ``COARSE_STEP`` densifies nothing.

Each curve component is carried by the not-a-knot cubic spline of its lift
(``_kernels.cubic_fit``), fitted once per fiber product and shared by the
continuation and the push forward.  The coarse continuation loop and the
orbit unwrap of the push forward run on Python floats; the push forward
maps all samples of a loop in one image pass.  An image that turns too
sharply is under-resolved: ``compose_curve`` then composes once more at
half the step, the same rule by which a failed densification retraces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .curves import (TURN_LIMIT, CurveComponent, CurveError,
                     GenericPositionError, ImmersedCurve, double, figure_eight,
                     intersect, turning_angles)
from .projection import pi0_u_r3, pi1_r3_of_chart
from .variety import (COMPLEX_STEP, ContinuationError, FoldCircle, eta,
                      fold_locus, k_circle, solve_fiber, tau_seed)
from .words import BYPASS

TWO_PI = 2.0 * np.pi

MAX_STEP = 4e-3  # default continuation step, in (t, nu, tau) arclength
STEP_BUDGET = 100_000  # continuation steps allowed per loop
CORRECTOR = (1e-11, 40)  # corrector residual tolerance and iteration cap
COARSE_STEP = 16 * MAX_STEP  # continuation step of the trace that is densified
DENSE_CHUNK = 512  # predictions corrected per batched corrector call


class TangencyError(RuntimeError):
    """The input curve is tangent to a fold image; composition is refused."""


class UnderResolvedError(ContinuationError):
    """A composed image turns by more than ``curves.TURN_LIMIT`` between
    neighboring samples: the continuation step is too coarse for it."""


@dataclass
class Branch:
    component: int
    samples: np.ndarray  # (m, 3) columns (t, nu, tau)
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
        dt = dt - period * round(dt / period)
    dtau = (u[2] - u0[2] + math.pi) % TWO_PI - math.pi
    return math.hypot(dt, u[1] - u0[1], dtau)


def _trace_loop(code, s, breaks, cg, ct, period, u, max_step):
    """Pseudo-arclength trace of one solution loop from the float triple
    u = (t, nu, tau), on Python floats; returns (samples, folds, tangents),
    with the unit tangent at every sample as the trace oriented it."""
    tang = _kernels.tangent(code, s, breaks, cg, ct, *u)
    if tang is None:
        raise ContinuationError("no tangent at the continuation seed")
    samples = [u]
    tangents = [tang]
    h = max_step
    folds: list[int] = []
    arclen = 0.0
    last_sign = 1.0 if tang[0] >= 0 else -1.0
    for _ in range(STEP_BUDGET):
        while h >= 1e-7:
            r = _kernels.corrector(code, s, breaks, cg, ct,
                                   u[0] + h * tang[0], u[1] + h * tang[1],
                                   u[2] + h * tang[2], *tang, *CORRECTOR)
            # r[4] is the tangent at the corrected point
            if r[3] and r[4] is not None:
                t_new = r[4]
                turn = (t_new[0] * tang[0] + t_new[1] * tang[1]
                        + t_new[2] * tang[2])
                if turn < 0:
                    t_new, turn = (-t_new[0], -t_new[1], -t_new[2]), -turn
                # reject steps that double back or jump
                jump = math.dist(r[:3], u)
                if jump <= 4 * h and turn > 0.2:
                    break
            h *= 0.5
        else:
            raise ContinuationError("continuation step rejection cascade")
        arclen += jump
        u = r[:3]
        tang = t_new
        samples.append(u)
        tangents.append(tang)
        if tang[0] != 0:
            sign = 1.0 if tang[0] > 0 else -1.0
            if sign != last_sign:
                folds.append(len(samples) - 1)
                last_sign = sign
        h = min(h * 1.4, max_step)
        if len(samples) > 10 and arclen > 10 * max_step:
            if _closure_distance(u, samples[0], period) < max(1e-5, 2 * h):
                tb = tangents[0]
                if abs(tb[0] * tang[0] + tb[1] * tang[1]
                       + tb[2] * tang[2]) > 0.9:
                    break
    else:
        raise ContinuationError("loop failed to close within the step budget")
    # append the start point, with t continued to its nearest
    # period-equivalent so circle branches keep a monotone parameter
    t0 = samples[0][0]
    if period > 0:
        t0 -= period * round((t0 - u[0]) / period)
    samples.append((t0, *samples[0][1:]))
    tangents.append(tangents[0])
    return np.array(samples), folds, np.array(tangents)


def _densify(code, s, breaks, cg, ct, coarse, folds, tangents, max_step):
    """Samples at most about ``max_step`` apart along a traced loop: every
    coarse segment is split into ceil(chord / max_step) pieces.

    Each inner point is predicted on the cubic Hermite curve through the
    segment's ends and their unit tangents (oriented along the chord), and
    corrected onto the solution curve within the hyperplane normal to the
    Hermite derivative there; all of a loop's predictions go through
    ``_kernels.corrector_batch`` in chunks of ``DENSE_CHUNK``.  Returns
    (samples, folds) with the fold marks moved to the dense indices of
    their coarse samples, or None when a point fails to converge or lands
    more than a piece length from its prediction (on another sheet, say).
    """
    a = coarse[:-1]
    d = coarse[1:] - a
    # the closing point repeats the start's tau, which the loop may have
    # wound by 2 pi (its t is continued already)
    d[:, 2] = (d[:, 2] + np.pi) % TWO_PI - np.pi
    chord = np.linalg.norm(d, axis=1)
    # Hermite end slopes: the unit tangents, scaled by the chord and pointing
    # along it
    ta, tb = (t * np.copysign(chord, np.sum(t * d, axis=1))[:, None]
              for t in (tangents[:-1], tangents[1:]))
    pieces = np.maximum(np.ceil(chord / max_step), 1.0).astype(np.intp)
    at = np.concatenate([[0], np.cumsum(pieces)])  # dense index of coarse[k]
    seg = np.repeat(np.arange(len(d)), pieces - 1)
    dense = np.arange(len(seg)) + seg + 1  # dense index of each inner point
    x = ((dense - at[seg]) / pieces[seg])[:, None]
    reach = (chord / pieces)[seg]
    a, d, ta, tb = a[seg], d[seg], ta[seg], tb[seg]
    # the Hermite curve a + h01 d + h10 ta + h11 tb and its derivative
    pred = (a + (3.0 - 2.0 * x) * x * x * d + (x - 1.0) ** 2 * x * ta
            + (x - 1.0) * x * x * tb)
    normal = (6.0 * (1.0 - x) * x * d + (3.0 * x - 1.0) * (x - 1.0) * ta
              + (3.0 * x - 2.0) * x * tb)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    samples = np.empty((at[-1] + 1, 3))
    samples[at] = coarse
    for lo in range(0, len(pred), DENSE_CHUNK):
        part = slice(lo, lo + DENSE_CHUNK)
        *u, ok = _kernels.corrector_batch(code, s, breaks, cg, ct,
                                          *pred[part].T, *normal[part].T,
                                          *CORRECTOR)
        u = np.column_stack(u)
        if not (ok.all() and np.all(np.linalg.norm(u - pred[part], axis=1)
                                    <= reach[part])):
            return None
        samples[dense[part]] = u
    return samples, [int(at[k]) for k in folds]


def _trace_dense(code, s, breaks, cg, ct, period, seed, max_step):
    """``_trace_loop`` at ``max_step`` from a trace at COARSE_STEP, densified.

    A coarse trace that is too short to be sure it closed on its first
    return, or whose densification fails, is retraced at half the step;
    at ``max_step`` the trace is returned as it is.
    """
    step = max(max_step, COARSE_STEP)
    while True:
        samples, folds, tangents = _trace_loop(code, s, breaks, cg, ct,
                                               period, seed, step)
        if step <= max_step:
            return samples, folds
        # _trace_loop may only close after 10 steps of arclength; a loop
        # shorter than that is traced round more than once
        length = float(np.sum(np.linalg.norm(np.diff(samples, axis=0),
                                             axis=1)))
        if length > 20 * step:
            dense = _densify(code, s, breaks, cg, ct, samples, folds,
                             tangents, max_step)
            if dense is not None:
                return dense
        step = max(0.5 * step, max_step)


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
                  max_step: float = MAX_STEP,
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
                seeds = [(t0, float(nu), float(tau))
                         for nu, tau in fs.solutions]
                break
        if seeds is None:
            raise ContinuationError(
                "no fold-free seed fiber found along the curve")
        if comp.kind == "good_arc":
            seeds = seeds[:1]
        loops: list[tuple[np.ndarray, list[int]]] = []
        for seed in seeds:
            if any(_closure_distance(seed, p, period) < 1e-4
                   for samples, _ in loops for p in samples.tolist()):
                continue
            loops.append(_trace_dense(code, s, breaks, cg, ct, period, seed,
                                      max_step))
        for samples, folds in loops:
            sheet = _branch_sheet(samples, breaks, cg, ct, folds)
            fp.branches.append(Branch(ci, samples, folds, sheet))
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
    previous point than the true continuation does.  Elements matching the
    third character cos(g - t) win; among them the first nearest.
    """
    g0 = np.arccos(np.clip(r3[:, 0], -1.0, 1.0))
    t0 = np.arccos(np.clip(r3[:, 1], -1.0, 1.0))
    # third-character errors of (g, t), (-g, -t) and of (g, -t), (-g, t)
    err_same = np.abs(np.cos(g0 - t0) - r3[:, 2])
    err_flip = np.abs(np.cos(g0 + t0) - r3[:, 2])
    # resolve the theta sign of the first point against the third character
    pg = float(g0[0])
    pt = float(t0[0] if err_same[0] <= err_flip[0] else -t0[0])
    out = [(pg, pt)]
    vg = vt = 0.0
    for g, t, bad_same, bad_flip in zip(
            g0[1:].tolist(), t0[1:].tolist(),
            (err_same[1:] > 1e-6).tolist(), (err_flip[1:] > 1e-6).tolist()):
        xg, xt = pg + vg, pt + vt
        best = None
        for bad, cg, ct in ((bad_same, g, t), (bad_flip, g, -t),
                            (bad_flip, -g, t), (bad_same, -g, -t)):
            cg += TWO_PI * round((xg - cg) / TWO_PI)
            ct += TWO_PI * round((xt - ct) / TWO_PI)
            key = (bad, max(abs(cg - xg), abs(ct - xt)))
            if best is None or key < best[0]:
                best = key, cg, ct
        _, g, t = best
        vg, vt = g - pg, t - pt
        pg, pt = g, t
        out.append((g, t))
    return np.array(out)


def _prune_short(lift: np.ndarray, min_len: float):
    """Greedily drop lift vertices closer than min_len to their predecessor
    (keeping the endpoints)."""
    pts = lift.tolist()
    keep = [0]
    for k in range(1, len(pts) - 1):
        if math.dist(pts[k], pts[keep[-1]]) >= min_len:
            keep.append(k)
    keep.append(len(pts) - 1)
    return lift[keep]


def push_forward(fp: FiberProduct) -> ImmersedCurve:
    """Apply the second restriction map to every branch.

    Output components are circles in the second factor.  An image that
    turns by more than the immersion proxy limit ``curves.TURN_LIMIT``
    raises ``UnderResolvedError``.
    """
    comps = []
    for branch in fp.branches:
        breaks, cg, ct, _, _ = fp.splines_of(branch.component)
        samples = branch.samples
        gs = _kernels._ppoly_eval(breaks, cg, samples[:, 0])
        th = _kernels._ppoly_eval(breaks, ct, samples[:, 0])
        try:
            r3 = pi1_r3_of_chart(fp.s, gs, th, samples[:, 1], samples[:, 2],
                                 variant=fp.variant)
        except ValueError as exc:
            raise ContinuationError(
                f"fiber-product sample outside the chart: {exc}") from exc
        # drop image micro-segments: below ~1e-6 the turning angle between
        # neighbors is dominated by the corrector tolerance, not geometry
        lift = _prune_short(_unwrap_orbit_path(r3), 1e-6)
        if np.any(turning_angles(lift) > TURN_LIMIT):
            raise UnderResolvedError(
                "composed image violates the immersion proxy")
        # snap the closing point onto the lattice-translated start
        lam = lift[-1] - lift[0]
        lam_snap = TWO_PI * np.round(lam / TWO_PI)
        if np.max(np.abs(lam - lam_snap)) > 1e-5:
            raise ContinuationError("composed loop does not close modulo the "
                                    "lattice")
        lift[-1] = lift[0] + lam_snap
        comps.append(CurveComponent("circle", lift))
    name = f"composed({fp.curve.name})" if fp.curve.name else "composed"
    return ImmersedCurve(comps, "P1", name)


def compose_curve(curve: ImmersedCurve, variant: str, s: float, *,
                  max_step: float = MAX_STEP,
                  circles: list[FoldCircle] | None = None) -> ImmersedCurve:
    """The fiber product pushed forward; an under-resolved image is composed
    once more at half the step, on the same fold circles."""
    if circles is None:
        circles = fold_locus(variant, s)
    for step in (max_step, 0.5 * max_step):
        fp = fiber_product(curve, variant, s, max_step=step, circles=circles)
        try:
            return push_forward(fp)
        except UnderResolvedError as exc:
            failure = exc
    raise UnderResolvedError(f"{failure} after refinement; decrease the "
                             "continuation step")


def transpose_compose(curve: ImmersedCurve, variant: str, s: float, *,
                      max_step: float = MAX_STEP,
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

def bottom_edge_prediction(variant: str, s: float) -> ImmersedCurve:
    """Closed-form image of the composed bottom edge in the second factor.

    Bypass: sigma -> [sigma, -2 s cos(sigma)].  Earring: the same with the
    phase corrected by twice the fixed-point angle eta(s, sigma).
    """
    sig = np.linspace(0.0, TWO_PI, 8193)
    if variant == BYPASS:
        th = -2 * s * np.cos(sig)
    else:
        th = np.array([-2 * s * np.cos(x + 2 * eta(s, x)) for x in sig])
    lift = np.column_stack([sig, th])
    return ImmersedCurve([CurveComponent("circle", lift)], "P1",
                         f"predicted_beta_{variant}")


def edge_tangent_anchors(variant: str, s: float):
    """Derivative in R^3 of the pre-relabeling composed bottom edge at the
    double point, for both half-turn branches, by a complex step in sigma."""
    out = {}
    for sign in (1, -1):
        rep = k_circle(variant, s, sign * (np.pi / 2 + 1j * COMPLEX_STEP))
        out[sign] = pi0_u_r3(rep).imag / COMPLEX_STEP
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
                     max_step: float = MAX_STEP,
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
