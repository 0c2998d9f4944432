"""The invariant battery: every check of the paper's claims, written once.

Each check computes its metric from inputs its caller passes in (sample
points, variants, s-values, fold circles, composed curves) and returns it
with its verdict against the named thresholds below.  Sample chart points
come as an (n, 5) array of rows (s, gamma, theta, nu, tau).  The ``verify``
command and the acceptance tests call the same checks with their own
samples.  The predictions that composed curves are checked against are
here too: the closed-form bottom edge, its tangents at the double point,
and Theorem B's figure eight or double of the input curve.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import jet
from .curves import (CurveComponent, CurveInvariants, ImmersedCurve, double,
                     figure_eight, hausdorff_r3, invariants, self_intersections)
from .projection import (characters_in_out, pi0_u_r3, u_involution,
                         verify_factorization)
from .variety import (COMPLEX_STEP, _corner_distance, eta, fold_jacobian_data,
                      k_circle)
from .words import (BYPASS, EARRING, TWO_PI, check_identities, embed_L,
                    g_of_rep, gp_of_rep, perturbation_residuals, rho_eps,
                    slice_parts, variety_residual, w2_value)

IDENTITY_TOL = 1e-11
# w2 = -1 on the earring variety; where |G_2| > W2_OFF_G it misses -1
W2_ON_TOL, W2_OFF_G, W2_OFF_MIN = 1e-7, 0.1, 1e-3
# |G| at the explicit representations, drift of their boundary characters
EXPLICIT_G_TOL, EXPLICIT_DRIFT_TOL = 1e-10, 1e-8
K_CIRCLE_TOL = 1e-9
# the first-order remainder is O(s^2): halving s divides its rms by about 4
ASYMPTOTIC_RATIO = (3.0, 5.0)
# fold radius 2|s| to within FOLD_RADIUS_DEV of it, FOLD_CORNER_MISS |s|
# from the corners, rank one with distinct kernels; from s/2 to s the
# radius deviation grows by FOLD_SHRINK_MIN at least
FOLD_CIRCLES = 4
FOLD_RADIUS_DEV, FOLD_CORNER_MISS, FOLD_SHRINK_MIN = 0.25, 0.5, 3.5
FOLD_RANK_RATIO, FOLD_KERNEL_ANGLE = 1e-4, 1e-3
EULER_CHARACTERISTIC, GENERA = -8, (5, 3)
FACTORIZATION_TOL = 1e-7
EDGE_HAUSDORFF, EDGE_DOUBLE_POINTS = 1e-6, 1
# composed circles lie within this times s of their double, decaying like s
CIRCLE_HAUSDORFF_PER_S, CIRCLE_DECAY_SLOPE = 5, (0.6, 1.4)
TANGENT_ANCHOR_PER_S2 = 3


def identities(variant, points):
    """Worst identity residual over chart points: (worst, ok)."""
    worst = check_identities(embed_L(variant, *points.T))
    return worst, worst < IDENTITY_TOL


def w2_condition(on_points, off_points):
    """w2 = -1 on the earring variety and not off it: (on_worst, off_best,
    n_off, ok) over ``on_points`` and the ``n_off`` of ``off_points`` with
    |G_2| > W2_OFF_G."""
    def miss(points):  # |w2 + 1| at each point: its largest part
        w, x, y, z = w2_value(*points.T)
        return np.max(np.abs([w + 1.0, x, y, z]), axis=0)

    on_worst = float(np.max(miss(on_points)))
    # |G_2| from the earring kernel, over the whole batch
    off = miss(off_points)[np.abs(jet(EARRING, *off_points.T)[1]) > W2_OFF_G]
    off_best = float(np.min(off, initial=np.inf))
    return (on_worst, off_best, len(off),
            on_worst < W2_ON_TOL and off_best > W2_OFF_MIN)


def explicit_points(variants, s_values):
    """The four explicit representations on both varieties, and their
    boundary characters under the involution: (|G|, drift, ok)."""
    worst_g = worst_fix = 0.0
    for variant in variants:
        rep = rho_eps(*np.meshgrid((1, -1), (1, -1), s_values,
                                   indexing="ij"), variant)
        worst_g = max(worst_g, float(np.max(np.abs(
            np.stack(g_of_rep(rep) + gp_of_rep(rep))))))
        worst_fix = max(worst_fix, float(np.max(np.abs(
            characters_in_out(u_involution(rep)) - characters_in_out(rep)))))
    return (worst_g, worst_fix,
            worst_g < EXPLICIT_G_TOL and worst_fix < EXPLICIT_DRIFT_TOL)


def k_circles(variants, s_values, sigmas):
    """The circles over the bottom edge: the largest residual of the
    defining pair, which vanishes for any angle eta, and of the
    perturbation conditions, which hold only at the right one: (worst, ok).
    """
    worst = 0.0
    for variant in variants:
        for s in s_values:
            rep = k_circle(variant, s, sigmas)
            worst = max(worst, variety_residual(rep),
                        *perturbation_residuals(rep))
    return worst, worst < K_CIRCLE_TOL


def asymptotics(variant, s, roots_s, roots_half):
    """Order in s of the first defining function's first-order remainder,
    from fiber roots (gamma, theta, nu, tau) at s and s/2, and whether the
    bypass second component is nu exactly: (rms ratio, exact, ok)."""
    rms = []
    exact = True
    for sv, roots in ((s, roots_s), (s / 2, roots_half)):
        g, t, nu, tau = np.array(roots, dtype=float).reshape(-1, 4).T.copy()
        lead = -(np.sin(g) * np.sin(tau) - np.sin(t) * np.cos(tau)) \
            + 2 * sv * np.cos(g) * np.cos(t)
        lead = lead * (2.0 if variant == BYPASS else 1.0)
        rms.append(np.sqrt(np.mean(np.square(lead))))
        # Re(h^- a), the word form of the second bypass component
        exact = exact and bool(np.all(
            gp_of_rep(slice_parts(sv, g, t, nu, tau))[1] == nu))
    ratio = float(rms[0] / rms[1])
    lo, hi = ASYMPTOTIC_RATIO
    return ratio, exact, lo <= ratio <= hi and exact


def fold_structure(circles, variant, s, rank_rows):
    """Count, radii, windings and corner distance of the fold circles at s,
    and the rank of both restriction maps at the fold sample rows
    ``rank_rows``: (radius deviation, windings, corner miss, rank ok, ok)."""
    dev = max(float(np.max(np.abs(c.radii - 2 * abs(s)))) for c in circles)
    winds = [c.winding() for c in circles]
    miss = float(np.min([_corner_distance(*c.samples[:, :2].T) for c in circles]))
    rank_ok = True
    for row in rank_rows:
        sv0, k0, sv1, k1 = fold_jacobian_data(variant, s, row)
        cos = abs(sum(a * b for a, b in zip(k0, k1)))
        ang = math.acos(min(1.0, cos))
        rank_ok = rank_ok and sv0[1] / sv0[0] < FOLD_RANK_RATIO \
            and sv1[1] / sv1[0] < FOLD_RANK_RATIO and ang > FOLD_KERNEL_ANGLE
    ok = (len(circles) == FOLD_CIRCLES
          and dev <= FOLD_RADIUS_DEV * 2 * abs(s)
          and all(abs(w) == 1 for w in winds) and rank_ok
          and miss > FOLD_CORNER_MISS * abs(s))
    return dev, winds, miss, rank_ok, ok


def topology(report) -> bool:
    """Whether a topology report shows the paper's surfaces."""
    return (report.consistent and report.fold_circles == FOLD_CIRCLES
            and report.euler_characteristic == EULER_CHARACTERISTIC
            and (report.genus_cover, report.genus_quotient) == GENERA)


def factorization(variant, points):
    """Worst factorization residual of the second restriction map over
    chart points: (worst, ok)."""
    worst = verify_factorization(embed_L(variant, *points.T))
    return worst, worst < FACTORIZATION_TOL


def bottom_edge_prediction(variant: str, s: float) -> ImmersedCurve:
    """Closed-form image of the composed bottom edge in the second factor.

    Bypass: sigma -> [sigma, -2 s cos(sigma)].  Earring: the same with the
    phase corrected by twice the fixed-point angle eta(s, sigma).
    """
    sig = np.linspace(0.0, TWO_PI, 8193)
    phase = sig if variant == BYPASS else sig + 2 * eta(s, sig)
    lift = np.column_stack([sig, -2 * s * np.cos(phase)])
    return ImmersedCurve([CurveComponent("circle", lift)], "P1",
                         f"predicted_beta_{variant}")


def edge_tangent_anchors(variant: str, s: float):
    """Derivative in R^3 of the pre-relabeling composed bottom edge at the
    double point, for both half-turn branches, by a complex step in sigma."""
    sig = np.pi / 2 + 1j * COMPLEX_STEP
    d = pi0_u_r3(k_circle(variant, s, [sig, -sig])).imag / COMPLEX_STEP
    return {1: d[0], -1: d[1]}


def composed_edge(composed, variant, s):
    """The composed bottom edge against its closed form:
    (Hausdorff distance, double points of its first component, ok)."""
    hd = hausdorff_r3(composed, bottom_edge_prediction(variant, s))
    dp = self_intersections(composed.components[0]).count
    return hd, dp, hd < EDGE_HAUSDORFF and dp == EDGE_DOUBLE_POINTS


def theorem_b(curve, composed, s):
    """Theorem B for ``composed``, the curve composed at s: it has the class
    of the prediction relabeled to P1, the figure eight of a good arc or
    else the double of circles (their ``CurveError`` refuses mixed kinds
    and several arcs), and a composed circle lies within
    CIRCLE_HAUSDORFF_PER_S |s| of it.  A double lists each circle twice, so
    one copy is measured and its invariants are counted twice.  Returns (the
    composed components' double points, sorted, Hausdorff distance, ok)."""
    arc = curve.components[0].kind == "good_arc"
    pred = figure_eight(curve, s) if arc else double(curve)
    copies = 1 if arc else 2
    one = ImmersedCurve(pred.components[::copies], "P1")
    inv = invariants(composed)
    hd = hausdorff_r3(composed, one)
    return (sorted(c.double_points for c in inv.components), hd,
            inv == CurveInvariants(invariants(one).components * copies)
            and (arc or hd <= CIRCLE_HAUSDORFF_PER_S * abs(s)))


def tangent_anchor(variant, s):
    """Tangents of the composed bottom edge at its double point against
    (-1, 0, -1 +- 2s): (deviation per branch, bound, ok)."""
    anchors = edge_tangent_anchors(variant, s)
    bound = TANGENT_ANCHOR_PER_S2 * s * s
    errs = []
    for branch in (1, -1):
        target = np.array([-1.0, 0.0, -1.0 + branch * 2 * s])
        errs.append(min(float(np.max(np.abs(anchors[sg] - target)))
                        for sg in (1, -1)))
    return errs, bound, all(err <= bound for err in errs)
