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

A loop that is its own mirror image is traced half way (equivariant
continuation: Golubitsky, Stewart & Schaeffer, *Singularities and Groups
in Bifurcation Theory II*, 1988).  A map of ``variety.SYMMETRIES`` that
takes a lift's vertex v_i to v_(n-i) mod 2 pi Z^2 (v_(-i) on a circle)
induces the ``Reversal`` M(t, nu, tau) = (c - t, +-nu, +-tau + delta) of
the fiber product: iota sigma_1 for beta, slope_two, b_ver and its
twisted doubles, iota sigma_1 sigma_2 for slope_one, the same for their
transposes, none for wavy.  A loop through a seed root that M fixes has
one more fixed point; it is traced from the seed to there, and M maps the
rest.  No sample sits on a fixed point; each is the midpoint of a chord
between a sample and its mirror image.  An arc's two fixed points map to
one double point on a pillowcase edge, which so stays one hit inside two
segments, as in a whole trace, not hits at segment ends merged by
``curves.distinct_rows``.

Each curve component is carried by the C1 cubic spline of its lift with
local knot slopes (``_kernels.cubic_fit``), fitted once per fiber product
and shared by the continuation and the push forward.  The coarse
continuation loop runs on Python floats; the push forward maps all samples
of a loop in one image pass and picks their orbit elements in arrays.  An
image that turns too sharply is under-resolved: ``compose_curve`` then
composes once more at half the step, the same rule by which a failed
densification retraces.

Every composition takes the fold circles (``variety.fold_locus``) from its
caller, which solves them once for all its compositions.  The predictions
that composed curves are checked against are in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .curves import (TURN_LIMIT, CurveComponent, GenericPositionError,
                     ImmersedCurve, intersect, turning_angles)
from .projection import pi1_r3_of_chart
from .variety import SYMMETRIES, ContinuationError, FoldCircle, solve_fiber
from .words import NU_MAX, TWO_PI, wrapped_angle

MAX_STEP = 4e-3  # default continuation step, in (t, nu, tau) arclength
STEP_BUDGET = 100_000  # continuation steps allowed per loop
CORRECTOR = (1e-11, 40)  # corrector residual tolerance and iteration cap
COARSE_STEP = 16 * MAX_STEP  # continuation step of the trace that is densified
DENSE_CHUNK = 512  # predictions corrected per batched corrector call
PROJECT_CHUNK = 4096  # samples projected per pi1_r3_of_chart call


class TangencyError(RuntimeError):
    """The input curve is tangent to a fold image; composition is refused."""


class UnderResolvedError(ContinuationError):
    """A composed image turns by more than ``curves.TURN_LIMIT`` between
    neighboring samples: the continuation step is too coarse for it."""


@dataclass
class Branch:
    """One solution loop over a curve component, sampled in trace order;
    t reverses at its ``fold_marks``, one per fold-image crossing."""
    component: int
    samples: np.ndarray  # (m, 3) columns (t, nu, tau)
    fold_marks: list[int]

    @property
    def fold_crossings(self) -> int:
        return len(self.fold_marks)


@dataclass
class FiberProduct:
    """The solution loops over a curve, and the ``_component_splines`` of
    each component, in order, that the loops were traced on."""
    curve: ImmersedCurve
    s: float
    branches: list[Branch]
    splines: list[tuple] = field(repr=False)


def fold_image_curves(circles: list[FoldCircle]) -> ImmersedCurve:
    """The fold circles as one curve in the base coordinates: each closes
    the polyline of its samples' (gamma, theta), with an angle from 1.5 pi
    on taken less 2 pi so that no circle is cut."""
    lifts = [np.where(gt < 1.5 * np.pi, gt, gt - TWO_PI)
             for gt in (c.samples[:, :2] for c in circles)]
    return ImmersedCurve([CurveComponent("circle", np.vstack([x, x[0]]))
                          for x in lifts], "P0", "fold_image")


def check_transversality(curve: ImmersedCurve,
                         circles: list[FoldCircle]) -> bool:
    """Whether the curve crosses the images of the fold circles
    transversally: every crossing at an angle above 1e-2 rad."""
    try:
        intersect(curve, fold_image_curves(circles), angle_tol=1e-2)
    except GenericPositionError:
        return False
    return True


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
    return math.hypot(dt, u[1] - u0[1], wrapped_angle(u[2] - u0[2], math))


def _on_loop(seed, samples, period):
    """Whether ``_closure_distance`` puts ``seed`` within 1e-4 of a sample:
    a box of half-width 2e-4 in (t mod period, nu, wrapped tau) picks the
    candidates over arrays, and the distance decides on those alone."""
    d = samples - seed
    if period > 0:
        d[:, 0] -= period * np.round(d[:, 0] / period)
    d[:, 2] = wrapped_angle(d[:, 2])
    near = samples[np.all(np.abs(d) <= 2e-4, axis=1)].tolist()
    return any(_closure_distance(seed, p, period) < 1e-4 for p in near)


@dataclass(frozen=True)
class Reversal:
    """M(t, nu, tau) = (c - t, nu_sign nu, tau_sign tau + tau_shift) on a
    fiber product, t mod ``period`` on a circle (0 on an arc).  On a loop
    through a root it fixes, M is a reflection with one more fixed point,
    over a t with c - t = t mod ``period``."""
    c: float
    period: float
    nu_sign: float
    tau_sign: float
    tau_shift: float

    def fixes(self, u) -> bool:
        """Whether M fixes the triple u, to 1e-8 in each coordinate."""
        t, nu, tau = u
        dt = self.c - 2.0 * t
        if self.period:
            dt -= self.period * round(dt / self.period)
        return max(abs(dt), abs(nu - self.nu_sign * nu),
                   abs(wrapped_angle(tau - self.tau_sign * tau
                                     - self.tau_shift, math))) < 1e-8

    def fixed_t(self, a: float, b: float):
        """The fixed t in (a, b] or [b, a), or None: c / 2 on an arc, a
        multiple of period / 2 (= c / 2) on a circle."""
        mid = 0.5 * self.c
        if not self.period:
            return mid if (a < mid) != (b < mid) else None
        w = 0.5 * self.period
        i, j = math.floor((a - mid) / w), math.floor((b - mid) / w)
        return None if i == j else mid + w * max(i, j)

    def loop(self, half: np.ndarray, folds: list[int]):
        """(samples, folds) of the whole loop from ``half``, its samples
        strictly between the fixed points: the half, M of it reversed with
        t and tau continued, and the first sample again with t continued,
        as ``_trace_loop`` closes a loop; the fold marks are mirrored."""
        image = half[::-1] * (-1.0, self.nu_sign, self.tau_sign)
        image += (self.c, 0.0, self.tau_shift)
        jump = half[-1] - image[0]
        if self.period:
            image[:, 0] += self.period * round(jump[0] / self.period)
        image[:, 2] += TWO_PI * round(jump[2] / TWO_PI)
        first = half[0].copy()
        if self.period:
            first[0] -= self.period * round((first[0] - image[-1, 0])
                                            / self.period)
        m = len(half)
        return (np.vstack([half, image, first]),
                folds + [2 * m - f for f in reversed(folds)])


def _reversal(comp: CurveComponent, length: float, period: float):
    """The ``Reversal`` of the first map of ``variety.SYMMETRIES`` that
    takes each lift vertex v_i to v_(n-i) mod 2 pi Z^2, to 1e-9, or None."""
    back = comp.lift[::-1]
    for e, shift, nu_sign, tau_sign, tau_shift in SYMMETRIES.values():
        miss = e * comp.lift + shift - back
        miss -= TWO_PI * np.round(miss[0] / TWO_PI)
        if np.max(np.abs(miss)) <= 1e-9:
            return Reversal(length, period, nu_sign, tau_sign, tau_shift)
    return None


def _trace_loop(code, s, breaks, cg, ct, period, u, max_step,
                mirror=None):
    """Pseudo-arclength trace of one solution loop from the float triple
    u = (t, nu, tau), on Python floats; returns (samples, folds, tangents,
    half), with the unit tangent at every sample as the trace oriented it.
    A sample with |nu| over ``words.NU_MAX`` ends the trace with the
    ``ContinuationError`` that ``push_forward`` would raise for it.

    With a ``Reversal`` ``mirror`` that fixes u, a step past a fixed t
    solves the root over it; if M fixes that root, it ends the trace as
    its last sample (``half`` True), unless t reverses next to either
    fixed point: then the trace closes the loop as without a mirror."""
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
        prev, u = u, r[:3]
        if abs(u[1]) > NU_MAX:
            # every coarse sample is a dense one, which push_forward refuses
            raise ContinuationError("fiber-product sample outside the chart: "
                                    "nu out of [-1/2, 1/2]")
        t_fix = None if mirror is None else mirror.fixed_t(prev[0], u[0])
        if t_fix is not None and len(samples) > 1:
            x = (t_fix - prev[0]) / (u[0] - prev[0])
            f = _kernels.corrector(code, s, breaks, cg, ct, t_fix,
                                   prev[1] + x * (u[1] - prev[1]),
                                   prev[2] + x * (u[2] - prev[2]),
                                   1.0, 0.0, 0.0, *CORRECTOR)
            if f[3] and f[4] is not None and mirror.fixes(f[:3]):
                t_f = f[4]
                if t_f[0] * tang[0] + t_f[1] * tang[1] + t_f[2] * tang[2] < 0:
                    t_f = (-t_f[0], -t_f[1], -t_f[2])
                if folds[:1] != [1] and (t_f[0] >= 0) == (last_sign > 0):
                    samples.append(f[:3])
                    tangents.append(t_f)
                    return np.array(samples), folds, np.array(tangents), True
                # a fold next to a fixed point: trace the whole loop
                mirror = None
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
    return np.array(samples), folds, np.array(tangents), False


def _hermite(a, d, ta, tb, x):
    """Points and unit normals at x of the cubic Hermite curves from a to
    a + d whose end slopes are the unit tangents ta and tb, scaled by the
    chord and pointing along it; rows broadcast against x."""
    chord = np.linalg.norm(d, axis=1)
    ta, tb = (t * np.copysign(chord, np.sum(t * d, axis=1))[:, None]
              for t in (ta, tb))
    # the Hermite curve a + h01 d + h10 ta + h11 tb and its derivative
    pred = (a + (3.0 - 2.0 * x) * x * x * d + (x - 1.0) ** 2 * x * ta
            + (x - 1.0) * x * x * tb)
    normal = (6.0 * (1.0 - x) * x * d + (3.0 * x - 1.0) * (x - 1.0) * ta
              + (3.0 * x - 2.0) * x * tb)
    return pred, normal / np.linalg.norm(normal, axis=1)[:, None]


def _densify(code, s, breaks, cg, ct, coarse, folds, tangents, max_step,
             ends=False):
    """Samples at most about ``max_step`` apart along a traced loop: every
    coarse segment is split into ceil(chord / max_step) pieces.

    Each inner point is predicted on the cubic Hermite curve through the
    segment's ends and their unit tangents (``_hermite``), and corrected
    onto the solution curve within the hyperplane normal to the Hermite
    derivative there; all of a loop's predictions go through
    ``_kernels.corrector_batch`` in chunks of ``DENSE_CHUNK``.  Returns
    (samples, folds) with the fold marks moved to the dense indices of
    their coarse samples, or None when a point fails to converge or lands
    more than a piece length from its prediction (on another sheet, say).
    Past ``STEP_BUDGET`` samples it raises ``ContinuationError`` instead.

    With ``ends`` (a half loop between two fixed points), the end
    segments put their points at (i - 1/2) / pieces, i = 1 .. pieces, and
    the fixed points are dropped.
    """
    a = coarse[:-1]
    d = coarse[1:] - a
    # the closing point repeats the start's tau, which the loop may have
    # wound by 2 pi (its t is continued already)
    d[:, 2] = wrapped_angle(d[:, 2])
    chord = np.linalg.norm(d, axis=1)
    pieces = np.maximum(np.ceil(chord / max_step), 1.0)
    if pieces.sum() > STEP_BUDGET:
        raise ContinuationError(f"max step {max_step:g} needs {pieces.sum():.3g}"
                                f" samples on one loop, over {STEP_BUDGET}")
    # the offset of each segment's points in pieces, half at a fixed point
    lead = np.zeros(len(d))
    if ends:
        lead[[0, -1]] = 0.5
    new = (pieces - 1.0 + 2.0 * lead).astype(np.intp)  # points per segment
    at = np.concatenate([[0], np.cumsum(new + 1)])  # dense index of coarse[k]
    seg = np.repeat(np.arange(len(d)), new)
    dense = np.arange(len(seg)) + seg + 1  # dense index of each point
    x = ((dense - at[seg] - lead[seg]) / pieces[seg])[:, None]
    reach = (chord / pieces)[seg]
    pred, normal = _hermite(a[seg], d[seg], tangents[:-1][seg],
                            tangents[1:][seg], x)
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
    if ends:
        return samples[1:-1], [int(at[k]) - 1 for k in folds]
    return samples, [int(at[k]) for k in folds]


def _end_midpoints(code, s, breaks, cg, ct, half, tangents):
    """The half loop with its end fixed points moved to the midpoints of
    its end segments' Hermite curves, by the float corrector like every
    sample of a trace; None if either fails."""
    pred, normal = _hermite(half[[0, -2]], half[[1, -1]] - half[[0, -2]],
                            tangents[[0, -2]], tangents[[1, -1]], 0.5)
    out = half.copy()
    for row, p, n in zip((0, -1), pred.tolist(), normal.tolist()):
        r = _kernels.corrector(code, s, breaks, cg, ct, *p, *n, *CORRECTOR)
        if not r[3]:
            return None
        out[row] = r[:3]
    return out


def _trace_dense(code, s, breaks, cg, ct, period, seed, mirror, max_step):
    """``_trace_loop`` at ``max_step`` from a trace at COARSE_STEP, densified.

    A coarse trace that is too short to be sure it closed on its first
    return, or whose densification fails, is retraced at half the step;
    at ``max_step`` the trace is returned as it is.  A half trace has its
    ends moved off the fixed points (``_densify``'s ``ends``, or at
    ``max_step`` ``_end_midpoints``, failing which the loop is traced
    whole) and is completed by ``Reversal.loop``.
    """
    step = max(max_step, COARSE_STEP)
    while True:
        samples, folds, tangents, half = _trace_loop(
            code, s, breaks, cg, ct, period, seed, step, mirror=mirror)
        if step <= max_step:
            if not half:
                return samples, folds
            ends = _end_midpoints(code, s, breaks, cg, ct, samples, tangents)
            if ends is not None:
                return mirror.loop(ends, folds)
            mirror = None  # traced whole at this step
            continue
        # _trace_loop may only close after 10 steps of arclength; a loop
        # shorter than that is traced round more than once
        length = float(np.sum(np.linalg.norm(np.diff(samples, axis=0),
                                             axis=1)))
        if (2 if half else 1) * length > 20 * step:
            dense = _densify(code, s, breaks, cg, ct, samples, folds,
                             tangents, max_step, half)
            if dense is not None:
                return mirror.loop(*dense) if half else dense
        step = max(0.5 * step, max_step)


def fiber_product(curve: ImmersedCurve, variant: str, s: float, *,
                  circles: list[FoldCircle],
                  max_step: float = MAX_STEP) -> FiberProduct:
    """Trace the solution loops of the defining pair over the curve, from
    each root of the first two-sheeted fiber among a few points of each
    component (a good arc's first root only) that ``_on_loop`` does not put
    on a loop already traced.

    A loop through a seed that its component's ``Reversal`` fixes is
    traced half way; any other loop whole."""
    if s == 0.0:
        raise ValueError("composition needs s != 0")
    if not check_transversality(curve, circles):
        raise TangencyError(
            f"curve is tangent to the fold image at s = {s}; choose another s")
    code = _kernels.variant_code(variant)
    fp = FiberProduct(curve, s, [],
                      [_component_splines(c) for c in curve.components])
    for ci, comp in enumerate(curve.components):
        breaks, cg, ct, period, length = fp.splines[ci]
        reversal = _reversal(comp, length, period)
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
            if any(_on_loop(seed, samples, period) for samples, _ in loops):
                continue
            mirror = (reversal if reversal is not None
                      and reversal.fixes(seed) else None)
            loops.append(_trace_dense(code, s, breaks, cg, ct, period, seed,
                                      mirror, max_step))
        fp.branches += [Branch(ci, samples, folds) for samples, folds in loops]
    return fp


# ---------------------------------------------------------------------------
# push forward
# ---------------------------------------------------------------------------

def _unwrap_orbit_path(r3: np.ndarray) -> np.ndarray:
    """Continuous plane lift of a path of pillowcase character triples.

    Each point is an orbit {(+-g, +-t)} + lattice; the lift picks, per step,
    the orbit element nearest a linear prediction from the two previous
    points (from the first point alone at the first step).  Position alone
    is not enough: where the path crosses an edge of the fundamental
    rectangle the reflected element can sit closer to the previous point
    than the true continuation does.  Elements matching the third character
    cos(g - t) win; among them the first nearest.

    The rule runs in arrays.  The path is filled with the element last
    picked (its signs and lattice shift), and the rule is checked on the
    filled points in windows of doubling size.  It is deterministic, so
    every point before the first one where it picks otherwise is its own
    pick; that point takes the rule's pick, and the fill restarts after it
    with that element.  A NaN in the first two characters raises
    ``ValueError``.
    """
    g0 = np.arccos(np.clip(r3[:, 0], -1.0, 1.0))
    t0 = np.arccos(np.clip(r3[:, 1], -1.0, 1.0))
    # third-character errors of (g, t), (-g, -t) and of (g, -t), (-g, t)
    err_same = np.abs(np.cos(g0 - t0) - r3[:, 2])
    err_flip = np.abs(np.cos(g0 + t0) - r3[:, 2])
    bad = np.column_stack([err_same, err_flip, err_flip, err_same]) > 1e-6
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    # resolve the theta sign of the first point against the third character
    c, mg, mt = (0 if err_same[0] <= err_flip[0] else 1), 0.0, 0.0
    out = np.empty((len(r3), 2))
    out[0] = g0[0], signs[c, 1] * t0[0]
    k, size = 1, 64
    while k < len(out):
        end = min(len(out), k + size)
        out[k:end, 0] = signs[c, 0] * g0[k:end] + TWO_PI * mg
        out[k:end, 1] = signs[c, 1] * t0[k:end] + TWO_PI * mt
        # the linear prediction; the first step has no velocity
        p = out[k - 1:end - 1]
        x = p + (p - out[np.maximum(np.arange(k - 2, end - 2), 0)])
        cg = g0[k:end, None] * signs[:, 0]
        ct = t0[k:end, None] * signs[:, 1]
        sg = np.round((x[:, :1] - cg) / TWO_PI)
        st = np.round((x[:, 1:] - ct) / TWO_PI)
        dist = np.maximum(np.abs(cg + TWO_PI * sg - x[:, :1]),
                          np.abs(ct + TWO_PI * st - x[:, 1:]))
        # the first nearest candidate, among the good ones if any
        b = bad[k:end]
        win = np.argmin(np.where(b & ~b.all(axis=1, keepdims=True), np.inf,
                                 dist), axis=1)
        miss = np.flatnonzero((win != c) | (sg[:, c] != mg) | (st[:, c] != mt))
        if not miss.size:
            k, size = end, 2 * size
            continue
        j = miss[0]
        if not np.isfinite(dist[j]).all():
            raise ValueError("NaN character on the orbit path")
        c, mg, mt = win[j], sg[j, win[j]], st[j, win[j]]
        out[k + j] = cg[j, c] + TWO_PI * mg, ct[j, c] + TWO_PI * mt
        k, size = k + j + 1, 64
    return out


def _prune_short(lift: np.ndarray, min_len: float):
    """Greedily drop lift vertices closer than min_len to the last vertex
    kept (keeping the endpoints).

    The rule runs in arrays.  A vertex whose gap to a kept predecessor is
    clearly at least min_len, beyond the few ulp by which the array norm
    and ``math.dist`` can differ, is kept directly.  A stretch that starts
    at a short or borderline gap runs the greedy ``math.dist`` rule vertex
    by vertex up to the next vertex it keeps, so the kept vertices are the
    vertex-by-vertex rule's.
    """
    n = len(lift)
    gap = np.linalg.norm(np.diff(lift, axis=0), axis=1)
    unclear = ~(gap[:-1] > min_len * (1 + 1e-12))
    keep = np.ones(n, dtype=bool)
    done = 0  # every vertex up to here is decided
    for i in (np.flatnonzero(unclear) + 1).tolist():
        if i <= done:
            continue
        # the vertices since the last stretch had clear gaps: i - 1 is kept
        last = lift[i - 1].tolist()
        while i < n - 1 and not math.dist(lift[i].tolist(), last) >= min_len:
            keep[i] = False
            i += 1
        done = i
    return lift[keep]


def push_forward(fp: FiberProduct) -> ImmersedCurve:
    """Apply the second restriction map to every branch.

    Samples are projected ``PROJECT_CHUNK`` at a time: the word evaluation
    is elementwise, so the blocks give the one-call characters bit for bit
    while its quaternion temporaries stay at a block's size.

    Output components are circles in the second factor.  An image that
    turns by more than the immersion proxy limit ``curves.TURN_LIMIT``
    raises ``UnderResolvedError``.
    """
    comps = []
    for branch in fp.branches:
        breaks, cg, ct, _, _ = fp.splines[branch.component]
        samples = branch.samples
        gs = _kernels._ppoly_eval(breaks, cg, samples[:, 0])
        th = _kernels._ppoly_eval(breaks, ct, samples[:, 0])
        r3 = []
        try:
            for lo in range(0, len(samples), PROJECT_CHUNK):
                part = slice(lo, lo + PROJECT_CHUNK)
                r3.append(pi1_r3_of_chart(fp.s, gs[part], th[part],
                                          samples[part, 1], samples[part, 2]))
        except ValueError as exc:
            raise ContinuationError(
                f"fiber-product sample outside the chart: {exc}") from exc
        # drop image micro-segments: below ~1e-6 the turning angle between
        # neighbors is dominated by the corrector tolerance, not geometry
        lift = _prune_short(_unwrap_orbit_path(np.concatenate(r3)), 1e-6)
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
                  circles: list[FoldCircle],
                  max_step: float = MAX_STEP) -> ImmersedCurve:
    """The fiber product pushed forward; an under-resolved image is composed
    once more at half the step, on the same fold circles.

    Composition is componentwise, so a component equal to an earlier one
    (same kind and lift, as the copies of ``curves.double``) is composed
    once, and its image components are repeated in its place.
    """
    slot: dict = {}  # each distinct (kind, lift) to its place in ``unique``
    unique, which = [], []
    for c in curve.components:
        key = (c.kind, c.lift.shape, c.lift.tobytes())
        if key not in slot:
            slot[key] = len(unique)
            unique.append(c)
        which.append(slot[key])
    for step in (max_step, 0.5 * max_step):
        fp = fiber_product(ImmersedCurve(unique, curve.side, curve.name),
                           variant, s, max_step=step, circles=circles)
        try:
            image = push_forward(fp)
            break
        except UnderResolvedError as exc:
            failure = exc
    else:
        raise UnderResolvedError(f"{failure} after refinement; decrease the "
                                 "continuation step")
    images = [[] for _ in unique]
    for branch, comp in zip(fp.branches, image.components):
        images[branch.component].append(comp)
    return ImmersedCurve([c for k in which for c in images[k]], image.side,
                         image.name)


def transpose_compose(curve: ImmersedCurve, variant: str, s: float, *,
                      circles: list[FoldCircle],
                      max_step: float = MAX_STEP) -> ImmersedCurve:
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

