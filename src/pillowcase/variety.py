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
from .words import BYPASS, Rep, chart_angle, wrapped_angle

# chart-domain corners of the base torus, indexed by the sign pair
# (eps_gamma, eps_theta) = (sign cos gamma, sign cos theta)
CORNER_BASE = {
    (1, 1): (0.0, 0.0),
    (-1, 1): (np.pi, 0.0),
    (1, -1): (0.0, np.pi),
    (-1, -1): (np.pi, np.pi),
}


class ContinuationError(RuntimeError):
    """A fiber or fold continuation failed to converge or to close up."""


def tau_seed(gamma, theta):
    """tau of the + sheet at s = 0: (cos tau, sin tau) ~ (sin gamma, sin theta);
    broadcasts over arrays."""
    return np.arctan2(np.sin(theta), np.sin(gamma))


@dataclass
class FiberSolutions:
    """The distinct roots (nu, tau) over one base point, the + sheet first,
    and the fiber's status by the rule of ``solve_fibers``."""
    gamma: float
    theta: float
    solutions: list[tuple[float, float]]
    status: str  # two_sheets | fold_region | empty


def _same_root(nu_a, tau_a, nu_b, tau_b, radius):
    """Whether roots a and b of one fiber are one root: closer than
    ``radius`` in (nu, tau), tau wrapped.  A NaN root is no other's."""
    return np.hypot(nu_a - nu_b, wrapped_angle(tau_a - tau_b)) < radius


def _dedup(nu: np.ndarray, tau: np.ndarray, valid: np.ndarray,
           radius: float):
    """Greedy first-come dedup of padded (fibers, slots) root arrays.

    Returns the kept mask and tau reduced to [0, 2 pi) by ``chart_angle``.
    """
    tau = chart_angle(tau)
    keep = np.zeros_like(valid)
    for k in range(valid.shape[1]):
        dup = np.zeros(valid.shape[0], dtype=bool)
        for j in range(k):
            dup |= keep[:, j] & _same_root(nu[:, k], tau[:, k], nu[:, j],
                                           tau[:, j], radius)
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
        # a row Newton in nu alone, kept out of ``_kernels.newton``: a port
        # to it computed the same bits in 4 more lines
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

    Returns (rnu, rtau, keep, status): each fiber's roots as padded
    (fibers, slots) arrays nu and tau, the mask of the slots ``_dedup``
    keeps, and the fiber's status by the rule of ``solve_fibers``.
    """
    t0 = tau_seed(gamma, theta)
    if s == 0.0:
        # two roots in closed form, or a whole circle of them over a
        # half-lattice point
        circle = np.hypot(np.sin(gamma), np.sin(theta)) < 1e-12
        rtau = chart_angle(np.column_stack([t0, t0 + np.pi]))
        keep = np.repeat(~circle[:, None], 2, axis=1)
        return np.zeros_like(rtau), rtau, keep, STATUSES[np.where(circle, 0, 1)]

    # Newton from both s = 0 roots, the two sheets' starts stacked as rows
    # of one batch; a fiber whose two seeded roots converge apart (two
    # distinct roots by the rule of ``_dedup``) skips the tau scan, and the
    # scan brackets the others' roots
    (nu_p, nu_m), (tau_p, tau_m), (ok_p, ok_m) = _kernels.newton_fiber_batch(
        variant, s, gamma, theta, 0.0, np.stack([t0, t0 + np.pi]))
    apart = ok_p & ok_m & ~_same_root(nu_p, tau_p, nu_m, tau_m, DEDUP_RADIUS)
    seeded = np.nonzero(apart)[0]
    roots = [(seeded, nu_p[seeded], tau_p[seeded]),
             (seeded, nu_m[seeded], tau_m[seeded])]
    # a seeded fiber left with no root reads as fold band
    g1_min, g1_max = np.zeros((2, gamma.size))
    rest = np.nonzero(~apart)[0]
    brackets = []
    for a in range(0, rest.size, SCAN_BLOCK):
        r = rest[a:a + SCAN_BLOCK]
        (f, nu0, tau0), g1_min[r], g1_max[r] = _scan_roots(variant, s,
                                                           gamma[r], theta[r])
        brackets.append((r[f], nu0, tau0))

    # the seeded roots have converged; one Newton converges the brackets
    if brackets:
        f, nu0, tau0 = map(np.concatenate, zip(*brackets))
        nu0, tau0, ok = _kernels.newton_fibers(variant, s, gamma[f],
                                               theta[f], nu0, tau0)
        roots.append((f[ok], nu0[ok], tau0[ok]))
    fiber, nu, tau = map(np.concatenate, zip(*roots))

    # per fiber, the + sheet first: roots by tau distance from the s = 0 seed
    order = np.lexsort((np.abs(wrapped_angle(tau - t0[fiber])), fiber))
    (rnu, rtau), valid = _padded(fiber[order], gamma.size, nu[order],
                                 tau[order])
    keep, rtau = _dedup(rnu, rtau, valid, DEDUP_RADIUS)

    # the status rule of solve_fibers; the scan's |g1| tells empty from a
    # graze of the fold band
    n_roots = np.count_nonzero(keep, axis=1)
    two = n_roots >= 2
    empty = (n_roots == 0) & (g1_min > 0.02 * np.maximum(g1_max, 1e-12))
    return rnu, rtau, keep, STATUSES[two + 2 * empty]


def _fiber_blocks(variant: str, s: float, gammas, thetas):
    """Yield (gamma, theta, ``_fiber_arrays``) per ``FIBER_BLOCK`` fibers."""
    gamma, theta = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(gammas, dtype=float), np.asarray(thetas, dtype=float)))
    for a in range(0, gamma.size, FIBER_BLOCK):
        g, t = gamma[a:a + FIBER_BLOCK], theta[a:a + FIBER_BLOCK]
        yield g, t, _fiber_arrays(variant, s, g, t)


def fiber_statuses(variant: str, s: float, gammas, thetas) -> np.ndarray:
    """Flat status array of ``solve_fibers`` over any base points."""
    blocks = _fiber_blocks(variant, s, gammas, thetas)
    return np.concatenate([STATUSES[:0]] + [a[-1] for *_, a in blocks])


def solve_fibers(variant: str, s: float, gammas, thetas) -> list[FiberSolutions]:
    """Roots of the defining pair in (nu, tau) over many base points.

    Each fiber is solved at the target s, with no continuation; s = 0 is
    closed form.  Newton starts from both s = 0 roots; a tau scan brackets
    the roots of each fiber whose two starts do not converge apart, for one
    more Newton.  Two roots are distinct when they lie at least
    ``DEDUP_RADIUS`` apart in (nu, tau) (``_dedup``).  The status is
    ``two_sheets`` at two or more distinct roots, ``empty`` at none where
    the scan's |g1| stays away from zero, ``fold_region`` otherwise.  The +
    sheet comes first: the root whose tau is nearest ``tau_seed``.  Fibers
    are batched ``FIBER_BLOCK`` at a time; each fiber's result is its own.
    """
    out = []
    for g, t, (rnu, rtau, keep, status) in _fiber_blocks(
            variant, s, gammas, thetas):
        for f, st in enumerate(status.tolist()):
            k = keep[f]
            roots = list(zip(rnu[f, k].tolist(), rtau[f, k].tolist()))
            out.append(FiberSolutions(float(g[f]), float(t[f]), roots, st))
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
    """A fold circle, around the corner of the sign pair ``corner``."""
    corner: tuple[int, int]
    samples: np.ndarray  # (n, 4) (gamma, theta, nu, tau), angles by chart_angle
    image: np.ndarray  # (n, 2) (sin gamma, sin theta) of the unreduced samples

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
    h is the derivative to rounding.  Each direction k is its own ``jet``
    call.  Its other two coordinates are complex too, with imaginary part
    0: numpy divides by a complex number through its reciprocal, so a real
    coordinate would round otherwise.
    """
    g1, g2, ((a0, a1, a2, a3), (b0, b1, b2, b3)) = _kernels.jet(
        code, s, gamma, theta, nu, tau, _kernels.DIRECTIONS)
    x = (gamma, theta, nu)
    ddet = []
    for k in range(3):
        xc = [v + (1j * COMPLEX_STEP if i == k else 0j)
              for i, v in enumerate(x)]
        _, _, ((c2, c3), (d2, d3)) = _kernels.jet(code, s, *xc, tau,
                                                  ("nu", "tau"))
        ddet.append((c2 * d3 - c3 * d2).imag / COMPLEX_STEP)
    return (g1, g2, a2 * b3 - a3 * b2), (a0, a1, a2, b0, b1, b2, *ddet)


def fold_locus(variant: str, s: float, n_samples: int = 192) -> list[FoldCircle]:
    """The four fold circles of the projection to the base torus.

    A fold point is a solution of G = 0 where dG/d(nu, tau) is singular;
    the solutions near each corner form a circle along which tau turns once.
    Each sample solves that square system in (gamma, theta, nu) at one tau
    of an even grid of ``n_samples``.  The corner (1, 1) is one ``newton``
    over its samples to max |F| < ``FOLD_TOL`` within |nu| < 1, with the
    rows of ``_fold_system`` (the gradient of det by complex step) at the
    first iteration and later only where a sample steps; its seeds are
    closed form, (gamma, theta, nu) = (2 s sin tau, -2 s cos tau, s).  The
    maps sigma_1 and sigma_2 of ``classify_grid`` carry the extended system
    to itself, det included, and the seeds of the other corners to the
    mapped seeds; so with n = ``n_samples`` and the sample (gamma, theta,
    nu) at the tau index j of the corner (1, 1), sigma_1 gives the corner
    (-1, 1) at the index (n/2 - j) mod n as (gamma + pi, theta, -nu),
    sigma_2 the corner (1, -1) at (-j) mod n as (gamma, theta + pi, nu),
    and sigma_1 sigma_2 the corner (-1, -1) at (j + n/2) mod n as
    (gamma + pi, theta + pi, -nu).  Each circle keeps its samples as arrays
    (``FoldCircle``) and is checked on its own.
    """
    if s == 0.0:
        raise ValueError("fold circles require s != 0")
    if n_samples % 2:
        raise ValueError("fold circles need an even n_samples: sigma_1 maps "
                         "tau to pi - tau on the tau grid")
    code = _kernels.variant_code(variant)
    n = n_samples
    taus = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    x = [2 * s * np.sin(taus), -2 * s * np.cos(taus), np.full(n, s)]

    def system(i, x, jac):
        if jac:
            return _fold_system(code, s, *x, taus[i])
        g1, g2, ((a2, a3), (b2, b3)) = _kernels.jet(code, s, *x, taus[i],
                                                    ("nu", "tau"))
        return (g1, g2, a2 * b3 - a3 * b2), None

    ok = _kernels.newton(system, x, (FOLD_TOL,) * 3, FOLD_MAXIT,
                         lambda x: np.abs(x[2]) < 1.0)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ContinuationError(f"fold Newton failed at tau = "
                                f"{taus[k]:.4f} at corner (1, 1)")
    g, t, nu = x
    j = np.arange(n)
    # per corner, the tau index of the mapped sample j, which is an
    # involution of j and so also reads the mapped samples in tau order;
    # 0 - nu keeps the bypass folds' nu = 0 from turning into -0
    mapped = [((1, 1), j, (g, t, nu)),
              ((-1, 1), (n // 2 - j) % n, (g + np.pi, t, 0.0 - nu)),
              ((1, -1), -j % n, (g, t + np.pi, nu)),
              ((-1, -1), (j + n // 2) % n, (g + np.pi, t + np.pi, 0.0 - nu))]
    out = []
    for eps, k, (cg, ct, cnu) in mapped:
        cg, ct, cnu = cg[k], ct[k], cnu[k]
        img = np.sin(np.column_stack([cg, ct]))
        circ = FoldCircle(eps, np.stack([*chart_angle([cg, ct]), cnu,
                                         chart_angle(taus)], axis=-1), img)
        # closure and winding checks
        gap = math.hypot(*(img[0] - img[-1]))
        # the median step, computed by hand: np.median imports numpy.ma
        q = np.sort(np.linalg.norm(np.diff(img, axis=0), axis=1))
        spacing = 0.5 * (q[(len(q) - 1) // 2] + q[len(q) // 2])
        if gap > 10 * spacing:
            raise ContinuationError(f"fold circle at corner {eps} failed to close")
        if np.min(circ.radii) < 0.2 * abs(s):
            raise ContinuationError(f"fold circle at corner {eps} collapsed")
        if abs(circ.winding()) != 1:
            raise ContinuationError(f"fold image at corner {eps} does not "
                                    "wind once around the corner")
        out.append(circ)
    return out


def _rank_data2(a, b, c, d):
    """Singular values, larger first, of the 2x2 matrix [[a, b], [c, d]],
    and the unit right singular vector of the smaller one, in closed form.

    With Q = |(a + d, c - b)| / 2 and R = |(a - d, c + b)| / 2 the singular
    values are Q + R and |ad - bc| / (Q + R), the second accurate near rank
    one.  The right singular vectors are the eigenvectors of M^T M; the
    larger one is at the angle phi with tan 2 phi = 2 (ab + cd) /
    (a^2 + c^2 - b^2 - d^2), and the smaller one is normal to it.
    """
    sv = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, c + b))
    phi = 0.5 * math.atan2(2.0 * (a * b + c * d),
                           a * a + c * c - b * b - d * d)
    return (sv, abs(a * d - b * c) / sv), (-math.sin(phi), math.cos(phi))


def _norm(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def _orth(v, basis):
    """v less its components along the orthonormal vectors ``basis``, one
    after the other (modified Gram-Schmidt)."""
    for e in basis:
        c = sum(x * y for x, y in zip(v, e))
        v = [x - c * y for x, y in zip(v, e)]
    return v


def _unit(v):
    n = _norm(v)
    return [x / n for x in v]


def fold_jacobian_data(variant, s, x):
    """Rank data of the two restriction differentials at the chart point
    (s, *x), x a fold sample row (gamma, theta, nu, tau) as an array.

    Returns (sv0, ker0, sv1, ker1): the singular values, larger first, and
    the kernel line of the base projection and of the second-factor
    character map, both restricted to the surface tangent plane at the
    point.  A kernel line is a unit vector in chart coordinates
    (gamma, theta, nu, tau), so it does not depend on a basis of the plane.

    Everything is closed form on floats.  The tangent plane is the kernel
    of the 2x4 dG, spanned by the two coordinate vectors that keep most of
    their length once Gram-Schmidt takes out the rows of dG and each other.
    The pi1 columns along that basis are one complex step; one QR step
    reduces them to a 2x2 triangle with the same singular values and right
    singular vectors.  Both 2x2 problems are ``_rank_data2``.
    """
    code = _kernels.variant_code(variant)
    basis = []
    for row in _kernels.jet(code, s, *x, _kernels.DIRECTIONS, math)[2]:
        basis.append(_unit(_orth(row, basis)))
    for _ in range(2):
        rest = (_orth([float(i == k) for i in range(4)], basis)
                for k in range(4))
        basis.append(_unit(max(rest, key=_norm)))
    t1, t2 = basis[2:]

    sv0, v0 = _rank_data2(t1[0], t2[0], t1[1], t2[1])

    # d pi1 along t1 and t2: one complex step x + i h t_k through the words
    xc = x + 1j * COMPLEX_STEP * np.array([t1, t2])
    c1, c2 = (pi1_r3_of_chart(s, *xc.T).imag / COMPLEX_STEP).tolist()
    q1 = _unit(c1)
    sv1, v1 = _rank_data2(_norm(c1), sum(a * b for a, b in zip(q1, c2)),
                          0.0, _norm(_orth(c2, [q1])))

    def line(v):  # a vector of the plane in chart coordinates
        return tuple(v[0] * a + v[1] * b for a, b in zip(t1, t2))

    return sv0, line(v0), sv1, line(v1)


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


# The seven maps other than the identity in the group generated by sigma_1
# = (gamma + pi, theta, -nu, pi - tau), sigma_2 = (gamma, theta + pi, nu,
# -tau) and iota = (-gamma, -theta, nu, tau + pi), angles mod 2 pi.  Each
# carries the zero set of the defining pair to itself; it is written as
# (e, (b_gamma, b_theta), nu_sign, tau_sign, tau_shift) for the map
# (e gamma + b_gamma, e theta + b_theta, nu_sign nu, tau_sign tau + tau_shift).
SYMMETRIES = {
    "sigma_1": (1.0, (np.pi, 0.0), -1.0, -1.0, np.pi),
    "sigma_2": (1.0, (0.0, np.pi), 1.0, -1.0, 0.0),
    "sigma_1 sigma_2": (1.0, (np.pi, np.pi), -1.0, 1.0, np.pi),
    "iota": (-1.0, (0.0, 0.0), 1.0, 1.0, np.pi),
    "iota sigma_1": (-1.0, (np.pi, 0.0), -1.0, -1.0, 0.0),
    "iota sigma_2": (-1.0, (0.0, np.pi), 1.0, -1.0, np.pi),
    "iota sigma_1 sigma_2": (-1.0, (np.pi, np.pi), -1.0, 1.0, 0.0),
}


def _corner_distance(gamma, theta):
    """Torus distance to the nearest half-lattice fixed point; broadcasts."""
    dg = np.mod(gamma, np.pi)
    dt = np.mod(theta, np.pi)
    return np.hypot(np.minimum(dg, np.pi - dg), np.minimum(dt, np.pi - dt))


def _grid_orbits(grid: int):
    """The grid x grid sweep of the base torus by the orbits of
    ``classify_grid``, which says which maps it reads.

    Returns (gs, ts, gammas, thetas, fill): the grid's gamma and theta
    axes, the base points of one fiber per orbit, and the map from their
    statuses, in that order, to the (grid, grid) status array of the whole
    grid.
    """
    gs = ts = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    tile = 2 - grid % 2
    m = grid // tile
    flat = np.arange(m * m).reshape(m, m)
    neg = -np.arange(m) % m
    partner = flat[np.ix_(neg, neg)]
    solved = flat <= partner
    gg, tt = np.meshgrid(gs[:m], ts[:m], indexing="ij")

    def fill(statuses):
        quarter = np.empty((m, m), dtype=object)
        quarter[solved] = statuses
        quarter[~solved] = quarter.ravel()[partner[~solved]]
        return np.tile(quarter, (tile, tile))

    return gs, ts, gg[solved], tt[solved], fill


def classify_grid(variant: str, s: float, grid: int = 64):
    """Status of every fiber over a grid x grid sweep of the base torus,
    by ``fiber_statuses``; returns (gs, ts, status), the grid's axes and
    its (grid, grid) status array.

    The maps sigma_1 = (gamma + pi, theta, -nu, pi - tau), sigma_2 =
    (gamma, theta + pi, nu, -tau) and iota = (-gamma, -theta, nu, tau + pi)
    of ``SYMMETRIES`` carry the zero set of the defining pair to itself, G
    to -G, to (-G1, G2) and to G, so the fibers over (gamma + pi, theta),
    (gamma, theta + pi) and (-gamma, -theta) have the status of the fiber
    over (gamma, theta).  On an even grid i -> i + grid/2 is a shift by pi:
    only the quarter [0, pi)^2 is solved, and it is tiled 2 x 2.  An odd
    grid is one tile.  Within the tile of side m, iota sigma_1 sigma_2 (on
    an odd grid iota itself) pairs the index (i, j) with ((-i) mod m,
    (-j) mod m): of each pair only the fiber with the smaller flat index is
    solved, and its partner takes its status.  ``_grid_orbits`` makes that
    selection and tiling, which ``verify_topology`` shares.
    """
    gs, ts, gammas, thetas, fill = _grid_orbits(grid)
    return gs, ts, fill(fiber_statuses(variant, s, gammas, thetas))


def verify_topology(variant: str, s: float, grid: int = 64, *,
                    circles: list[FoldCircle] | None = None) -> TopologyReport:
    """Check the two-sheets-outside / empty-inside / four-circles model and
    derive the Euler characteristic and genera.  The model holds when no
    fiber of the grid (as ``classify_grid`` reads it) or of the refined
    sweep around the corners is misplaced.  The sweep solves half of the
    corner (0, 0): iota of ``classify_grid`` maps the offset (dgamma,
    dtheta) to (-dgamma, -dtheta), the flat index f of its 32 x 32 offsets
    to 1023 - f, so the other half mirrors the solved one; sigma_1 and
    sigma_2 carry the corner onto (pi, 0) and (0, pi), and their product
    onto (pi, pi), so its statuses repeat at all four.  The radii that
    select the checked fibers are mirrored too, which keeps the selection
    symmetric where the offsets of ``linspace`` are not bit for bit.  At
    s != 0 the grid's orbit representatives (``_grid_orbits``) and the
    sweep's checked half are one ``fiber_statuses`` pass, the grid's first:
    the sweep's radii come from the fold circles, which are solved before.
    ``circles`` are the fold circles at (variant, s) if already computed.
    The report carries the fiber grid and the fold circles it was built on.
    """
    notes: list[str] = []
    corners = list(CORNER_BASE.values())
    if s == 0.0:
        fibers = classify_grid(variant, s, grid)
        # degenerate fibers over the fixed points are whole circles
        fixed = fiber_statuses(variant, 0.0, *np.array(corners).T).tolist()
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
    band_in, band_out = 0.7 * r_min, 1.3 * r_max

    # the refined sweep near the fold band, solved over the half of the
    # corner (0, 0) with dgamma < 0, mirrored by iota onto the other half
    # and repeated at the other three corners; a fiber in the band between
    # the disks has no expected status and is not solved
    local = np.linspace(-2 * r_max, 2 * r_max, 32)
    dgs, dts = (a.ravel()[:a.size // 2] for a in np.meshgrid(
        local, local, indexing="ij"))
    radius = np.hypot(dgs, dts)
    checked = (radius > band_out) | (radius < band_in)
    gs, ts, gammas, thetas, fill = _grid_orbits(grid)
    solved = fiber_statuses(variant, s, np.concatenate([gammas, dgs[checked]]),
                            np.concatenate([thetas, dts[checked]]))
    status, half = fill(solved[:gammas.size]), solved[gammas.size:]
    fibers = (gs, ts, status)

    def misplaced(dist, st):  # not two sheets outside, or not empty inside
        return (((dist > band_out) & (st != "two_sheets"))
                | ((dist < band_in) & (st != "empty")))
    counts = {st: int(np.sum(status == st))
              for st in ("two_sheets", "fold_region", "empty")}
    dist = _corner_distance(*np.meshgrid(gs, ts, indexing="ij"))
    off = misplaced(dist, status)
    for i, j in zip(*np.nonzero(off)):
        where = "outside" if dist[i, j] > band_out else "inside"
        notes.append(f"fiber ({gs[i]:.3f},{ts[j]:.3f}) {where} fold disks is "
                     f"{status[i, j]}")

    radius = radius[checked]
    radius = np.concatenate([radius, radius[::-1]])
    sweep = np.tile(np.concatenate([half, half[::-1]]), (len(corners), 1))
    off_sweep = misplaced(radius, sweep)
    for c, i in zip(*np.nonzero(off_sweep)):
        notes.append(f"refined fiber near {corners[c]} at d={radius[i]:.4f} "
                     f"is {sweep[c, i]}")
    consistent = not (off.any() or off_sweep.any())

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
    elementwise: its parts have the shape of sigma.

    Both variants have a = f = i, so the image under the base projection is
    the bottom edge; the defining pair vanishes identically in sigma.
    """
    shape = np.shape(sigma)
    # one sigma runs as a batch of one: numpy multiplies complex scalars
    # otherwise than complex arrays, in the last bit
    sigma = np.reshape(sigma, -1)
    sn, cs = np.sin(sigma), np.cos(sigma)
    zero = np.zeros_like(sn)
    esk = (zero, -sn, cs)  # e^{sigma i} k, a pure quaternion
    h = (zero, zero, cs, sn)  # e^{sigma i} j

    def exp(t, v):  # e^{t v} for pure v
        return quat.qexp(*(t * c for c in v))

    if variant == BYPASS:
        turn = s * cs
    else:
        et = eta(s, sigma)
        h = quat.rotate(exp(et, esk), h)
        turn = -2 * et
    esh = exp(s, h[1:])
    b = quat.rotate(esh, quat.mul(exp(-sigma, esk), quat.I))
    p = quat.rotate(esh, exp(turn, esk))
    b, h, p, esh = (tuple(x.reshape(shape) for x in q) for q in (b, h, p, esh))
    return Rep(a=quat.I, b=b, f=quat.I, h=h, p=p, q=esh, variant=variant, s=s)
