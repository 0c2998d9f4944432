"""The invariant battery: every check of the paper's claims, written once.

Each check computes its metric from inputs its caller passes in (sample
points, variants, s-values, fold circles, composed curves) and returns it
with its verdict against the named thresholds below.  The ``verify``
command and the acceptance tests call the same checks with their own
samples.
"""

from __future__ import annotations

import numpy as np

from . import quat
from .compose import bottom_edge_prediction, edge_tangent_anchors
from .curves import hausdorff_r3, invariants
from .projection import characters_in_out, u_involution, verify_factorization
from .variety import _corner_distance, fold_jacobian_data, k_circle
from .words import (BYPASS, EARRING, ChartPoint, G, Gp, check_identities,
                    embed_L, g_of_rep, gp_of_rep, perturbation_residuals,
                    rho_eps, w2_value)

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


def identities(points):
    """Worst identity residual over chart points: (worst, ok)."""
    worst = max(check_identities(pt).max_residual for pt in points)
    return worst, worst < IDENTITY_TOL


def w2_condition(on_points, off_points):
    """w2 = -1 on the earring variety and not off it: (on_worst, off_best,
    n_off, ok) over ``on_points`` and the ``n_off`` of ``off_points`` with
    |G_2| > W2_OFF_G."""
    def miss(p):
        return float(np.max(np.abs(w2_value(p) + quat.ONE)))

    on_worst = max(miss(p) for p in on_points)
    off = [miss(p) for p in off_points if abs(G(p)[1]) > W2_OFF_G]
    off_best = min(off, default=np.inf)
    return (on_worst, off_best, len(off),
            on_worst < W2_ON_TOL and off_best > W2_OFF_MIN)


def explicit_points(variants, s_values):
    """The four explicit representations on both varieties, and their
    boundary characters under the involution: (|G|, drift, ok)."""
    worst_g = worst_fix = 0.0
    for e1 in (1, -1):
        for e2 in (1, -1):
            for s in s_values:
                for variant in variants:
                    rep = rho_eps(e1, e2, s, variant)
                    worst_g = max(
                        worst_g,
                        float(np.max(np.abs(np.stack(g_of_rep(rep))))),
                        float(np.max(np.abs(np.stack(gp_of_rep(rep))))))
                    worst_fix = max(worst_fix, float(np.max(np.abs(
                        characters_in_out(u_involution(rep))
                        - characters_in_out(rep)))))
    return (worst_g, worst_fix,
            worst_g < EXPLICIT_G_TOL and worst_fix < EXPLICIT_DRIFT_TOL)


def k_circles(variants, s_values, sigmas):
    """The circles over the bottom edge: the largest residual of the
    defining pair, which vanishes for any angle eta, and of the
    perturbation conditions, which hold only at the right one: (worst, ok).
    """
    worst = 0.0
    for variant in variants:
        pair = g_of_rep if variant == EARRING else gp_of_rep
        for s in s_values:
            for sig in sigmas:
                rep = k_circle(variant, s, float(sig))
                worst = max(worst, float(np.max(np.abs(np.stack(pair(rep))))),
                            *perturbation_residuals(rep))
    return worst, worst < K_CIRCLE_TOL


def asymptotics(variant, s, roots_s, roots_half):
    """Order in s of the first defining function's first-order remainder,
    from fiber roots (gamma, theta, nu, tau) at s and s/2, and whether the
    bypass second component is nu exactly: (rms ratio, exact, ok)."""
    rms = []
    exact = True
    for sv, roots in ((s, roots_s), (s / 2, roots_half)):
        leads = []
        for g, t, nu, tau in roots:
            lead = -(np.sin(g) * np.sin(tau) - np.sin(t) * np.cos(tau)) \
                + 2 * sv * np.cos(g) * np.cos(t)
            leads.append(2.0 * lead if variant == BYPASS else lead)
            exact = exact and Gp(ChartPoint(sv, g, t, nu, tau, variant))[1] == nu
        rms.append(np.sqrt(np.mean(np.square(leads))))
    ratio = float(rms[0] / rms[1])
    lo, hi = ASYMPTOTIC_RATIO
    return ratio, exact, lo <= ratio <= hi and exact


def fold_structure(circles, s, rank_points):
    """Count, radii, windings and corner distance of the fold circles at s,
    and the rank of both restriction maps at ``rank_points``:
    (radius deviation, windings, corner miss, rank ok, ok)."""
    dev = max(float(np.max(np.abs(c.radii - 2 * abs(s)))) for c in circles)
    winds = [c.winding() for c in circles]
    miss = min(min(_corner_distance(p.gamma, p.theta) for p in c.points)
               for c in circles)
    rank_ok = True
    for pt in rank_points:
        sv0, k0, sv1, k1 = fold_jacobian_data(pt)
        ang = float(np.arccos(min(1.0, abs(float(np.dot(k0, k1))))))
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


def factorization(points):
    """Worst factorization residual of the second restriction map over
    chart points: (worst, ok)."""
    worst = max(verify_factorization(embed_L(pt)) for pt in points)
    return worst, worst < FACTORIZATION_TOL


def composed_edge(composed, variant, s):
    """The composed bottom edge against its closed form:
    (Hausdorff distance, double points of its first component, ok)."""
    hd = hausdorff_r3(composed, bottom_edge_prediction(variant, s))
    dp = invariants(composed).components[0].double_points
    return hd, dp, hd < EDGE_HAUSDORFF and dp == EDGE_DOUBLE_POINTS


def composed_circles(report) -> bool:
    """Whether a composed circle has its predicted double's class and lies
    within CIRCLE_HAUSDORFF_PER_S s of it."""
    return report.ok and report.hausdorff <= CIRCLE_HAUSDORFF_PER_S * report.s


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
