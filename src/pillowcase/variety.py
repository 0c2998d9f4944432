"""Numerical realization of the two perturbed varieties as zero sets.

Away from the four half-lattice points of the base torus the projection of
either variety to (gamma, theta) is a two-sheeted cover; over small disks
around those points (radius about 2|s|) the fibers are empty, and the two
regimes are separated by four fold circles.  This module solves each fiber
at its target s by Newton from its two s = 0 roots or, where those do not
converge apart, from the brackets of a tau scan, extracts the fold
circles as solutions of the extended system {G = 0, det dG/d(nu, tau) = 0} at
fixed tau (all samples in one batched Newton), verifies the resulting surface
topology, and provides the closed-form circle of representations over the
bottom edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import quat
from . import _kernels
from .projection import pi1_r3_of_chart
from .words import BYPASS, ChartPoint, Rep

# chart-domain corners of the base torus, indexed by the sign pair
# (eps_gamma, eps_theta) = (sign cos gamma, sign cos theta)
CORNER_BASE = {
    (1, 1): (0.0, 0.0),
    (-1, 1): (np.pi, 0.0),
    (1, -1): (0.0, np.pi),
    (-1, -1): (np.pi, np.pi),
}

FOLD_COND_THRESHOLD = 1e8


class ContinuationError(RuntimeError):
    """A fiber or fold continuation failed to converge or to close up."""


def tau_seed(gamma, theta):
    """tau of the + sheet at s = 0: (cos tau, sin tau) ~ (sin gamma, sin theta);
    broadcasts over arrays."""
    return np.arctan2(np.sin(theta), np.sin(gamma))


@dataclass
class FiberSolutions:
    variant: str
    s: float
    gamma: float
    theta: float
    solutions: list[tuple[float, float]]
    status: str  # two_sheets | fold_region | empty
    # worst 2x2 Jacobian condition at the roots found; 1 when there are none
    cond: float = 1.0

    def chart_points(self) -> list[ChartPoint]:
        return [ChartPoint(self.s, self.gamma, self.theta, nu, tau, self.variant)
                for nu, tau in self.solutions]


def _dedup(nu: np.ndarray, tau: np.ndarray, valid: np.ndarray,
           radius: float):
    """Greedy first-come dedup of padded (fibers, slots) root arrays.

    Returns the kept mask and tau reduced to [0, 2 pi).
    """
    tau = np.mod(tau, 2 * np.pi)
    keep = np.zeros_like(valid)
    for k in range(valid.shape[1]):
        dup = np.zeros(valid.shape[0], dtype=bool)
        for j in range(k):
            dtau = np.abs(np.mod(tau[:, k] - tau[:, j] + np.pi, 2 * np.pi) - np.pi)
            dup |= keep[:, j] & (np.hypot(nu[:, k] - nu[:, j], dtau) < radius)
        keep[:, k] = valid[:, k] & ~dup
    return keep, tau


def _padded(fiber: np.ndarray, n_fibers: int, *columns):
    """Scatter per-root values, grouped by ascending ``fiber``, into
    (n_fibers, slots) arrays; returns the columns and the valid mask."""
    counts = np.bincount(fiber, minlength=n_fibers)
    slot = np.arange(fiber.size) - (np.cumsum(counts) - counts)[fiber]
    shape = (n_fibers, int(counts.max(initial=0)))
    valid = np.zeros(shape, dtype=bool)
    valid[fiber, slot] = True
    out = []
    for col in columns:
        arr = np.zeros(shape)
        arr[fiber, slot] = col
        out.append(arr)
    return out, valid


# fibers per (fibers, N_TAU) tau scan, which keeps its working arrays small
SCAN_BLOCK = 32
N_TAU = 96
DEDUP_RADIUS = 1e-6  # roots of one fiber closer than this are one root


def _scan_roots(variant: str, s: float, gamma: np.ndarray, theta: np.ndarray):
    """Root sweep at fixed (gamma, theta), per fiber: solve the second
    defining equation for nu along a tau grid, then bracket sign changes of
    the first.  Returns the bracketed roots as (fiber, nu, tau) arrays in
    tau order per fiber, and the minimum and maximum |g1| over each fiber's
    grid for fold-band detection."""
    taus = np.linspace(0.0, 2 * np.pi, N_TAU, endpoint=False)
    gamma = gamma[:, None]
    theta = theta[:, None]
    if variant == BYPASS:
        nus = np.zeros((gamma.shape[0], N_TAU))
    else:
        nus = np.repeat(s * np.cos(gamma), N_TAU, axis=1)
        live = np.arange(gamma.shape[0])
        for _ in range(8):
            g, t, x = gamma[live], theta[live], nus[live]
            _, g2, (_, (d,)) = _kernels.jet(_kernels.EARRING, s, g, t, x,
                                            taus, ("nu",))
            step = np.where(np.abs(d) > 1e-12, -g2 / d, 0.0)
            nus[live] = np.clip(x + step, -0.49, 0.49)
            live = live[~(np.max(np.abs(g2), axis=1) < 1e-13)]
            if not live.size:
                break
    g1, _ = _kernels.g_pair(variant, s, gamma, theta, nus, taus)
    g1n = np.roll(g1, -1, axis=1)
    nun = np.roll(nus, -1, axis=1)
    fiber, i = np.nonzero((g1 == 0.0) | ((g1 < 0) != (g1n < 0)))
    a = np.abs(g1[fiber, i])
    frac = a / np.maximum(a + np.abs(g1n[fiber, i]), 1e-300)
    tau0 = taus[i] + frac * (2 * np.pi / N_TAU)
    nu0 = nus[fiber, i] + frac * (nun[fiber, i] - nus[fiber, i])
    ag1 = np.abs(g1)
    return (fiber, nu0, tau0), np.min(ag1, axis=1), np.max(ag1, axis=1)


# fibers per array stage of ``solve_fibers``, which bounds its peak memory
FIBER_BLOCK = 2048
# fiber statuses by code: fold band 0, two sheets 1, empty 2
STATUSES = np.array(["fold_region", "two_sheets", "empty"], dtype=object)


def _fiber_arrays(variant: str, s: float, gamma: np.ndarray, theta: np.ndarray):
    """The array stage of ``solve_fibers`` over one block of fibers.

    Returns each fiber's roots as padded (fibers, slots) arrays nu and tau
    with the mask of the kept slots, the worst Jacobian condition at its
    roots, and its status.
    """
    t0 = tau_seed(gamma, theta)
    if s == 0.0:
        # two roots in closed form, or a whole circle of them over a
        # half-lattice point
        circle = np.hypot(np.sin(gamma), np.sin(theta)) < 1e-12
        rtau = np.mod(np.column_stack([t0, t0 + np.pi]), 2 * np.pi)
        keep = np.repeat(~circle[:, None], 2, axis=1)
        return (np.zeros_like(rtau), rtau, keep, np.where(circle, np.inf, 1.0),
                STATUSES[np.where(circle, 0, 1)])

    # Newton from both s = 0 roots; a fiber whose two seeded roots converge
    # apart skips the tau scan, and the scan brackets the others' roots
    (nu_p, tau_p, ok_p), (nu_m, tau_m, ok_m) = (
        _kernels.newton_fiber_batch(variant, s, gamma, theta, 0.0, t)
        for t in (t0, t0 + np.pi))
    dtau = np.abs(np.mod(tau_p - tau_m + np.pi, 2 * np.pi) - np.pi)
    apart = ok_p & ok_m & (np.hypot(nu_p - nu_m, dtau) > 1e-4)
    seeded = np.nonzero(apart)[0]
    fiber = [seeded, seeded]
    nu = [nu_p[seeded], nu_m[seeded]]
    tau = [tau_p[seeded], tau_m[seeded]]
    # a seeded fiber left with no root reads as fold band
    g1_min, g1_max = np.zeros((2, gamma.size))
    rest = np.nonzero(~apart)[0]
    for a in range(0, rest.size, SCAN_BLOCK):
        r = rest[a:a + SCAN_BLOCK]
        (f, nu0, tau0), g1_min[r], g1_max[r] = _scan_roots(variant, s,
                                                           gamma[r], theta[r])
        fiber.append(r[f])
        nu.append(nu0)
        tau.append(tau0)

    # one Newton on the seeded roots and the brackets decides every fiber
    fiber, nu, tau = map(np.concatenate, (fiber, nu, tau))
    nu, tau, ok, cond = _kernels.newton_fibers(variant, s, gamma[fiber],
                                               theta[fiber], nu, tau)
    fiber, nu, tau, cond = fiber[ok], nu[ok], tau[ok], cond[ok]
    worst = np.ones(gamma.size)
    np.maximum.at(worst, fiber, cond)

    # per fiber, the + sheet first: roots by tau distance from the s = 0 seed
    order = np.lexsort((np.abs(np.mod(tau - t0[fiber] + np.pi, 2 * np.pi)
                               - np.pi), fiber))
    (rnu, rtau), valid = _padded(fiber[order], gamma.size, nu[order],
                                 tau[order])
    keep, rtau = _dedup(rnu, rtau, valid, DEDUP_RADIUS)

    # the status rule of solve_fibers; the scan's |g1| tells empty from a
    # graze of the fold band
    n_roots = np.count_nonzero(keep, axis=1)
    two = (n_roots >= 2) & (worst < FOLD_COND_THRESHOLD)
    empty = (n_roots == 0) & (g1_min > 0.02 * np.maximum(g1_max, 1e-12))
    return rnu, rtau, keep, worst, STATUSES[two + 2 * empty]


def solve_fibers(variant: str, s: float, gammas, thetas) -> list[FiberSolutions]:
    """Roots of the defining pair in (nu, tau) over many base points.

    Each fiber is solved at the target s, with no continuation; s = 0 is
    closed form.  Newton starts from both s = 0 roots, and a tau scan
    brackets the roots of every fiber whose two starts do not converge
    apart.  One Newton converges the seeded roots and the brackets, and one
    rule gives the status: ``two_sheets`` at two or more distinct roots with
    condition below ``FOLD_COND_THRESHOLD``, ``empty`` at none where the
    scan stays away from zero, ``fold_region`` otherwise.  The + sheet comes
    first: the root whose tau is nearest ``tau_seed``.  The work is batched
    across fibers, ``FIBER_BLOCK`` at a time; each fiber's result is its own.
    """
    gamma, theta = np.broadcast_arrays(np.asarray(gammas, dtype=float),
                                       np.asarray(thetas, dtype=float))
    gamma = gamma.ravel()
    theta = theta.ravel()
    out = []
    for a in range(0, gamma.size, FIBER_BLOCK):
        g, t = gamma[a:a + FIBER_BLOCK], theta[a:a + FIBER_BLOCK]
        rnu, rtau, keep, worst, status = _fiber_arrays(variant, s, g, t)
        for f, st in enumerate(status.tolist()):
            k = keep[f]
            roots = list(zip(rnu[f, k].tolist(), rtau[f, k].tolist()))
            out.append(FiberSolutions(variant, s, float(g[f]), float(t[f]),
                                      roots, st, cond=float(worst[f])))
    return out


def solve_fiber(variant: str, s: float, gamma: float,
                theta: float) -> FiberSolutions:
    """Roots of the defining pair over one base point; see ``solve_fibers``."""
    return solve_fibers(variant, s, [gamma], [theta])[0]


# ---------------------------------------------------------------------------
# fold circles: the extended system {G = 0, det dG/d(nu, tau) = 0}
# ---------------------------------------------------------------------------

@dataclass
class FoldCircle:
    corner: tuple[int, int]
    variant: str
    s: float
    points: list[ChartPoint]
    image: np.ndarray  # (n, 2) samples of (sin gamma, sin theta) near the corner

    @property
    def radii(self) -> np.ndarray:
        return np.hypot(self.image[:, 0], self.image[:, 1])

    def winding(self) -> int:
        ang = np.arctan2(self.image[:, 1], self.image[:, 0])
        d = np.diff(np.unwrap(np.append(ang, ang[0])))
        return int(np.round(np.sum(d) / (2 * np.pi)))


FOLD_TOL = 1e-13  # residual of (G1, G2, det) at an accepted fold point
FOLD_MAXIT = 30
COMPLEX_STEP = 1e-20  # imaginary step of the determinant's gradient


def _fold_system(code: str, s: float, gamma, theta, nu, tau):
    """F = (G1, G2, det dG/d(nu, tau)) at fixed tau over arrays of
    x = (gamma, theta, nu), and the nine entries of dF/dx by rows.

    G and its rows come from ``jet``.  The gradient of det is a complex
    step through ``jet`` (Squire & Trapp, *SIAM Review* 40, 1998): the
    kernel is analytic in x, so det at x + i h e_k is det + i h d det/dx_k
    + O(h^2) with no subtraction, and at h = 1e-20 its imaginary part over
    h is the derivative to rounding.
    """
    g1, g2, ((a0, a1, a2, a3), (b0, b1, b2, b3)) = _kernels.jet(
        code, s, gamma, theta, nu, tau, _kernels.DIRECTIONS)
    # x + i h e_k for k = 0, 1, 2 along a new leading axis
    step = 1j * COMPLEX_STEP * np.eye(3).reshape((3, 3) + (1,) * gamma.ndim)
    xc = np.moveaxis(np.stack([gamma, theta, nu]) + step, 1, 0)
    _, _, ((c2, c3), (d2, d3)) = _kernels.jet(code, s, *xc, tau, ("nu", "tau"))
    ddet = (c2 * d3 - c3 * d2).imag / COMPLEX_STEP
    return (g1, g2, a2 * b3 - a3 * b2), (a0, a1, a2, b0, b1, b2, *ddet)


def fold_locus(variant: str, s: float, n_samples: int = 192) -> list[FoldCircle]:
    """The four fold circles of the projection to the base torus.

    A fold point is a solution of G = 0 where dG/d(nu, tau) is singular;
    the solutions near each corner form a circle along which tau turns once.
    Each sample solves that square system in (gamma, theta, nu) at one tau
    of an even grid.  All samples of the four corners are one Newton over
    (4, n_samples) arrays, with the rows of ``_fold_system`` (the gradient
    of det by complex step) taken again every iteration; an element stops
    once max |F| < ``FOLD_TOL``.
    The seeds are closed form: around the corner (g0, t0) of the sign pair
    (eg, et), (gamma, theta, nu) = (g0 + 2 s et sin tau,
    t0 - 2 s eg cos tau, s eg).
    """
    if s == 0.0:
        raise ValueError("fold circles require s != 0")
    code = _kernels.variant_code(variant)
    taus = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    corners = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    eg, et = np.array(corners, dtype=float).T[:, :, None]
    g0, t0 = np.array([CORNER_BASE[c] for c in corners]).T[:, :, None]
    x = [g0 + 2 * s * et * np.sin(taus), t0 - 2 * s * eg * np.cos(taus),
         np.repeat(s * eg, n_samples, axis=1)]
    for it in range(FOLD_MAXIT + 1):
        if not np.all(np.abs(x[2]) < 1.0):
            nu = x[2][~(np.abs(x[2]) < 1.0)][0]
            raise ContinuationError(f"fold Newton left the chart at nu = {nu:.3g}")
        f, rows = _fold_system(code, s, *x, taus)
        live = ~(np.maximum.reduce([np.abs(v) for v in f]) < FOLD_TOL)
        if not live.any():
            break
        if it == FOLD_MAXIT:
            tau = taus[live.any(axis=0)][0]
            raise ContinuationError(
                f"fold Newton did not converge at tau = {tau:.4f}")
        det, *num = _kernels._cramer3(*rows, -f[0], -f[1], -f[2])
        if np.any(live & ~(np.abs(det) >= 1e-300)):
            raise ContinuationError("fold Newton met a singular Jacobian")
        with np.errstate(divide="ignore", invalid="ignore"):
            x = [np.where(live, a + d / det, a) for a, d in zip(x, num)]
    out = []
    for k, eps in enumerate(corners):
        sols = np.column_stack([a[k] for a in x])
        pts = [ChartPoint(s, g, t, nu, tau, variant)
               for (g, t, nu), tau in zip(sols.tolist(), taus.tolist())]
        img = np.sin(sols[:, :2])
        circ = FoldCircle(eps, variant, s, pts, img)
        # closure and winding checks
        gap = np.linalg.norm(img[0] - img[-1])
        spacing = np.median(np.linalg.norm(np.diff(img, axis=0), axis=1))
        if gap > 10 * spacing:
            raise ContinuationError(f"fold circle at corner {eps} failed to close")
        if np.min(circ.radii) < 0.2 * abs(s):
            raise ContinuationError(f"fold circle at corner {eps} collapsed")
        if abs(circ.winding()) != 1:
            raise ContinuationError(f"fold image at corner {eps} does not "
                                    "wind once around the corner")
        out.append(circ)
    return out


def fold_jacobian_data(pt: ChartPoint):
    """Rank data of the two restriction differentials at a chart point.

    Returns (sv0, ker0, sv1, ker1): singular values and kernel vectors of the
    base projection and of the second-factor character map, both restricted
    to the surface tangent plane at pt.
    """
    code = _kernels.variant_code(pt.variant)
    x = np.array([pt.gamma, pt.theta, pt.nu, pt.tau])
    dg = np.array(_kernels.jet(code, pt.s, *x, _kernels.DIRECTIONS, math)[2])
    _, _, vt = np.linalg.svd(dg)
    t1, t2 = vt[2], vt[3]  # orthonormal basis of the tangent plane

    _, sv0, vt0 = np.linalg.svd(np.column_stack([t1[:2], t2[:2]]))

    # d pi1 along t1 and t2: one complex step x + i h t_k through the words
    xc = x + 1j * COMPLEX_STEP * np.stack([t1, t2])
    cols = pi1_r3_of_chart(pt.s, *xc.T, variant=pt.variant).imag / COMPLEX_STEP
    _, sv1, vt1 = np.linalg.svd(cols.T)
    return sv0, vt0[-1], sv1, vt1[-1]


# ---------------------------------------------------------------------------
# topology of the two-sheeted picture
# ---------------------------------------------------------------------------

@dataclass
class TopologyReport:
    variant: str
    s: float
    grid: int
    counts: dict
    fold_circles: int
    consistent: bool
    degenerate: bool
    euler_characteristic: int | None
    genus_cover: int | None
    genus_quotient: int | None
    notes: list[str] = field(default_factory=list)
    # (gammas, thetas, statuses) of the grid and the fold circles behind the
    # report, for writers; not part of to_dict()
    fibers: tuple | None = field(default=None, repr=False, compare=False)
    circles: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.compare}


def _corner_distance(gamma, theta):
    """Torus distance to the nearest half-lattice fixed point; broadcasts."""
    dg = np.mod(gamma, np.pi)
    dt = np.mod(theta, np.pi)
    return np.hypot(np.minimum(dg, np.pi - dg), np.minimum(dt, np.pi - dt))


def classify_grid(variant: str, s: float, grid: int = 64):
    """Status of every fiber over a grid x grid sweep of the base torus,
    as ``solve_fibers`` decides it, read from its array stage."""
    gs = ts = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    gg, tt = (a.ravel() for a in np.meshgrid(gs, ts, indexing="ij"))
    status = np.empty(gg.size, dtype=object)
    for a in range(0, gg.size, FIBER_BLOCK):
        status[a:a + FIBER_BLOCK] = _fiber_arrays(
            variant, s, gg[a:a + FIBER_BLOCK], tt[a:a + FIBER_BLOCK])[-1]
    return gs, ts, status.reshape(grid, grid)


def verify_topology(variant: str, s: float, grid: int = 64, *,
                    circles: list[FoldCircle] | None = None) -> TopologyReport:
    """Check the two-sheets-outside / empty-inside / four-circles model and
    derive the Euler characteristic and genera.

    ``circles`` are the fold circles at (variant, s) if already computed.
    The report carries the fiber grid and the fold circles it was built on.
    """
    notes: list[str] = []
    fibers = classify_grid(variant, s, grid)
    if s == 0.0:
        # degenerate fibers over the fixed points are whole circles
        g0, t0 = zip(*CORNER_BASE.values())
        fixed = [fs.status for fs in solve_fibers(variant, 0.0, g0, t0)]
        ok = all(st == "fold_region" for st in fixed)
        notes.append("s = 0: circle fibers over the four fixed points; the "
                     "quotient is not a manifold quotient of a smooth family")
        return TopologyReport(variant, s, grid, {"fixed_points": fixed}, 0,
                              ok, True, None, None, None, notes, fibers=fibers)

    if circles is None:
        circles = fold_locus(variant, s)
    r_max = max(float(np.max(c.radii)) for c in circles)
    r_min = min(float(np.min(c.radii)) for c in circles)
    # fold radii in angle coordinates agree with sin-coordinates to O(r^3)
    band_out = 1.3 * r_max
    band_in = 0.7 * r_min

    gs, ts, status = fibers
    counts = {st: int(np.sum(status == st))
              for st in ("two_sheets", "fold_region", "empty")}
    dist = _corner_distance(*np.meshgrid(gs, ts, indexing="ij"))
    outside = (dist > band_out) & (status != "two_sheets")
    inside = (dist < band_in) & (status != "empty")
    consistent = not (outside.any() or inside.any())
    for i, j in zip(*np.nonzero(outside | inside)):
        where = "outside" if outside[i, j] else "inside"
        notes.append(f"fiber ({gs[i]:.3f},{ts[j]:.3f}) {where} fold disks is "
                     f"{status[i, j]}")

    # refined sweep near the fold band; a fiber inside the band between the
    # disks has no expected status, so only those outside it are solved
    refine = 4
    local = np.linspace(-2 * r_max, 2 * r_max, refine * 8)
    dgs, dts = (a.ravel() for a in np.meshgrid(local, local, indexing="ij"))
    radius = np.hypot(dgs, dts)
    checked = (radius > band_out) | (radius < band_in)
    dgs, dts, radius = dgs[checked], dts[checked], radius[checked]
    for g0, t0 in CORNER_BASE.values():
        sweep = solve_fibers(variant, s, g0 + dgs, t0 + dts)
        for d, fs in zip(radius.tolist(), sweep):
            st = fs.status
            if d > band_out and st != "two_sheets":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={d:.4f} is {st}")
            if d < band_in and st != "empty":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={d:.4f} is {st}")

    n_circ = len(circles)
    # two copies of (torus minus 4 disks) glued along 4 circles
    chi = 2 * (0 - 4) if (n_circ == 4 and consistent) else None
    genus_cover = (2 - chi) // 2 if chi is not None else None
    genus_quot = (2 - chi // 2) // 2 if chi is not None else None
    return TopologyReport(variant, s, grid, counts, n_circ, consistent, False,
                          chi, genus_cover, genus_quot, notes[:20],
                          fibers=fibers, circles=circles)


# ---------------------------------------------------------------------------
# the circles over the bottom edge
# ---------------------------------------------------------------------------

def eta(s: float, sigma):
    """The unique solution of 2 eta = -s cos(sigma + 2 eta), elementwise.

    The iteration is a contraction with factor |s|; |s| < 1/2 is required.
    Each element stops at its own convergence test, as its sigma alone
    would.  A complex sigma (a complex step) gives the analytic continuation.
    """
    if abs(s) >= 0.5:
        raise ValueError("eta requires |s| < 1/2")
    sigma = np.asarray(sigma)
    e = np.asarray(-0.5 * s * np.cos(sigma))
    live = np.ones(e.shape, dtype=bool)
    for _ in range(200):
        new = -0.5 * s * np.cos(sigma[live] + 2 * e[live])
        d = new - e[live]
        e[live] = new
        # a complex sigma carries d eta / d sigma in the imaginary part,
        # which converges after the real part (at once at sigma = pi/2)
        live[live] = ~((np.abs(d.real) < 1e-15)
                       & (np.abs(d.imag) <= 1e-15 * np.abs(new.imag)))
        if not live.any():
            break
    if np.any(np.abs(2 * e + s * np.cos(sigma + 2 * e)) > 1e-13):
        raise ContinuationError("eta fixed point did not converge")
    return e[()]


def k_circle(variant: str, s: float, sigma) -> Rep:
    """The closed-form representation over the bottom edge at angle sigma,
    elementwise: a scalar sigma gives (4,) quaternions, an array S + (4,).

    Both variants have a = f = i, so the image under the base projection is
    the bottom edge; the defining pair vanishes identically in sigma.
    """
    sigma = np.asarray(sigma)
    sn, cs = np.sin(sigma), np.cos(sigma)
    zero = np.zeros_like(sn)
    esk = np.stack([zero, zero, -sn, cs], axis=-1)  # e^{sigma i} k
    h = np.stack([zero, zero, cs, sn], axis=-1)  # e^{sigma i} j
    if variant == BYPASS:
        turn = s * cs
    else:
        et = eta(s, sigma)
        h = quat.rotate(quat.qexp(np.asarray(et)[..., None] * esk), h)
        turn = -2 * et
    esh = quat.qexp(s * h)
    b = quat.rotate(esh, quat.mul(quat.qexp(-sigma[..., None] * esk), quat.I))
    p = quat.rotate(esh, quat.qexp(np.asarray(turn)[..., None] * esk))
    i = np.broadcast_to(quat.I, esk.shape)
    return Rep(a=i.copy(), b=b, f=i.copy(), h=h, p=p, q=esh,
               variant=variant, s=s)
