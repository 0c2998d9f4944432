"""One-point reference faces of the pillowcase maps, for the tests.

The commands run the batched faces: the word layer on (w, x, y, z) parts
of arrays (``words.eval_word``, ``projection.pi0_r3`` and ``pi1_r3``),
``words.chart_angle`` over arrays, and ``_kernels`` for the defining pairs.
The forms here are what the tests check those against: the word evaluator
on stacked (..., 4) arrays, a pillowcase point on its canonical orbit
representative with its quotient distance, the arccos round trip of the
first restriction map, the pillowcase symmetries, the chart's angle rule,
and the defining pairs at one chart point.  It also keeps the vertex-by-vertex loop that
``compose._prune_short`` runs in arrays, the batched corrector, the
fold circles' Newton and rank data and the defining pair's ``jet`` as
first written, ``verify.theorem_b`` measuring both copies of a double, and
the SVG writer's clip with its own sign-and-shift loop.
"""

import math
from dataclasses import dataclass

import numpy as np

from pillowcase import _kernels
from pillowcase.curves import (double, figure_eight, hausdorff_r3, invariants,
                               lattice_shifts)
from pillowcase.quat import mul
from pillowcase.projection import (OFF_VARIETY_SURFACE_TOL, _angles_of_r3,
                                   _characters, pi1_r3_of_chart, r3_of_orbit)
from pillowcase.variety import (COMPLEX_STEP, CORNER_BASE, FOLD_MAXIT,
                                FOLD_TOL, _fold_system)
from pillowcase.verify import CIRCLE_HAUSDORFF_PER_S
from pillowcase.words import CHARS_P0, TWO_PI, Rep, chart_angle, wrapped_angle

# the tangle generators: the generator fields of a Rep
GENERATORS = "abfhpq"


def canonical_orbit(gamma, theta):
    """Orbit representative with gamma in [0, pi]; on the two edge circles
    gamma in {0, pi} the residual ambiguity is broken by theta in [0, pi].
    Elementwise over arrays."""
    g = np.mod(gamma, 2 * np.pi)
    t = np.mod(theta, 2 * np.pi)
    flip = g > np.pi + 1e-15
    g = np.where(flip, 2 * np.pi - g, g)
    t = np.where(flip, np.mod(-t, 2 * np.pi), t)
    edge = np.minimum(np.minimum(g, np.abs(np.pi - g)),
                      np.abs(2 * np.pi - g)) < 1e-12
    t = np.where(edge & (t > np.pi + 1e-15), 2 * np.pi - t, t)
    return np.minimum(g, np.pi), t


@dataclass(frozen=True)
class PillowPoint:
    """An orbit [gamma, theta] on one pillowcase factor with cached
    character coordinates."""

    side: str  # "P0" | "P1"
    gamma: float
    theta: float
    r3: tuple[float, float, float]

    @classmethod
    def from_orbit(cls, side: str, gamma: float, theta: float) -> "PillowPoint":
        g, t = canonical_orbit(gamma, theta)
        return cls(side, float(g), float(t), tuple(r3_of_orbit(g, t)))

    @classmethod
    def from_r3(cls, side: str, x: float, y: float, z: float,
                tol: float = OFF_VARIETY_SURFACE_TOL) -> "PillowPoint":
        return cls.from_orbit(side, *_angles_of_r3((x, y, z), tol))

    def distance(self, other: "PillowPoint") -> float:
        """Quotient distance in the angle coordinates."""
        best = np.inf
        for sign in (1, -1):
            dg = self.gamma - sign * other.gamma
            dt = self.theta - sign * other.theta
            best = min(best, float(np.hypot(wrapped_angle(dg),
                                            wrapped_angle(dt))))
        return best


def stacked(q):
    """A (w, x, y, z) quaternion as one (..., 4) array."""
    return np.stack(np.broadcast_arrays(*q), axis=-1)


def eval_word_stacked(rep, word, start=None):
    """``words.eval_word`` as first written: the generator values stacked
    into (..., 4) arrays, each Hamilton product written on them, from one
    (or ``start``) left to right.  Returns (w, x, y, z) parts."""
    vals = vars(rep) if isinstance(rep, Rep) else rep
    out = np.array([1.0, 0.0, 0.0, 0.0]) if start is None else stacked(start)
    for ch in word:
        x = stacked(vals[ch.lower()])
        if ch.isupper():
            x = x * np.array([1.0, -1.0, -1.0, -1.0])
        aw, ax, ay, az = np.moveaxis(out, -1, 0)
        bw, bx, by, bz = np.moveaxis(x, -1, 0)
        out = np.stack([aw * bw - ax * bx - ay * by - az * bz,
                        aw * bx + ax * bw + ay * bz - az * by,
                        aw * by - ax * bz + ay * bw + az * bx,
                        aw * bz + ax * by - ay * bx + az * bw], axis=-1)
    return tuple(np.moveaxis(out, -1, 0))


def pi0_of_rep(rep: Rep) -> PillowPoint:
    """Same map computed from the characters of the incoming boundary loops
    (conjugation invariant, so valid off the gauge slice)."""
    return PillowPoint.from_r3("P0", *_characters(rep, CHARS_P0))


# ---------------------------------------------------------------------------
# symmetries of the pillowcase
# ---------------------------------------------------------------------------

def theta_map(p: PillowPoint) -> PillowPoint:
    """[gamma, theta] -> [gamma, -theta]; orientation-reversing."""
    return PillowPoint.from_orbit(p.side, p.gamma, -p.theta)


def psi_map(p: PillowPoint) -> PillowPoint:
    """Relabel the factor (cylindrical identification of the two boundaries);
    identity on the orbit data."""
    return PillowPoint(("P1" if p.side == "P0" else "P0"), p.gamma, p.theta,
                       p.r3)


def w1_hat(p: PillowPoint) -> PillowPoint:
    return PillowPoint.from_orbit(p.side, p.gamma + np.pi, p.theta + np.pi)


def w2_hat(p: PillowPoint) -> PillowPoint:
    return PillowPoint.from_orbit(p.side, p.gamma + np.pi, p.theta)


# ---------------------------------------------------------------------------
# the chart's angle rule and the defining pairs at one chart point
# ---------------------------------------------------------------------------

def chart_angle_ref(x) -> float:
    """The chart's angle rule on one angle, as first written: ``np.mod``
    into [0, 2 pi), and 2 pi read as 0."""
    x = float(np.mod(x, 2 * np.pi))
    return 0.0 if x == 2 * np.pi else x


def G(pt) -> tuple[float, float]:
    """The earring pair at a chart point (s, gamma, theta, nu, tau) (fast
    kernel path)."""
    g1, g2 = _kernels.g_scalar(_kernels.EARRING, *pt)
    return float(g1), float(g2)


def Gp(pt) -> tuple[float, float]:
    """The bypass pair at a chart point (s, gamma, theta, nu, tau); the
    second entry is nu exactly."""
    g1, g2 = _kernels.g_scalar(_kernels.BYPASS, *pt)
    return float(g1), float(g2)


def prune_short(lift, min_len):
    """``compose._prune_short`` as the vertex-by-vertex loop: greedily drop
    lift vertices closer than min_len to the last vertex kept (keeping the
    endpoints)."""
    pts = lift.tolist()
    keep = [0]
    for k in range(1, len(pts) - 1):
        if math.dist(pts[k], pts[keep[-1]]) >= min_len:
            keep.append(k)
    keep.append(len(pts) - 1)
    return lift[keep]


def corrector_batch(code, s, breaks, cg, ct, p0, p1, p2, n0, n1, n2, tol,
                    maxit):
    """``_kernels.corrector_batch`` as first written: G and its 2x3
    Jacobian at every iterate of every element still iterating, the step
    solved for all of them and kept where it is taken."""
    s = float(s)
    p0, p1, p2, n0, n1, n2 = (np.asarray(x, dtype=float)
                              for x in (p0, p1, p2, n0, n1, n2))
    u0, u1, u2 = p0.copy(), p1.copy(), p2.copy()
    ok = np.zeros(u0.shape, dtype=bool)
    idx = np.arange(u0.size)  # elements still iterating
    for it in range(maxit + 1):
        idx = idx[np.abs(u1[idx]) <= 0.999]
        if not idx.size:
            break
        x0, x1, x2 = u0[idx], u1[idx], u2[idx]
        f1, f2, j = _kernels._curve_jac(code, s, _kernels._spline_jets, np,
                                        breaks, cg, ct, x0, x1, x2)
        small = np.maximum(np.abs(f1), np.abs(f2)) < tol
        if it == maxit:
            ok[idx] = small
            break
        m0, m1, m2 = n0[idx], n1[idx], n2[idx]
        f3 = m0 * (x0 - p0[idx]) + m1 * (x1 - p1[idx]) + m2 * (x2 - p2[idx])
        done = small & (np.abs(f3) < 1e-9)
        ok[idx[done]] = True
        det, d0, d1, d2 = _kernels._cramer3(*j, m0, m1, m2, -f1, -f2, -f3)
        with np.errstate(divide="ignore", invalid="ignore"):
            d0, d1, d2 = d0 / det, d1 / det, d2 / det
            go = (~done & (np.abs(det) >= 1e-300)
                  & (np.abs(d0) + np.abs(d1) + np.abs(d2) <= 1.0))
        idx = idx[go]
        u0[idx] = x0[go] + d0[go]
        u1[idx] = x1[go] + d1[go]
        u2[idx] = x2[go] + d2[go]
    return u0, u1, u2, ok


def fold_samples(variant, s, n_samples):
    """``variety.fold_locus``'s Newton as first written: one Newton over
    (4, n_samples) arrays that takes ``_fold_system`` again for every
    sample at every iteration and keeps the step by ``np.where`` where a
    sample has not converged.  Returns the (4, n_samples, 4) samples
    (gamma, theta, nu, tau) by corner, as ``fold_locus`` stores them."""
    code = _kernels.variant_code(variant)
    taus = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    corners = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    eg, et = np.array(corners, dtype=float).T[:, :, None]
    g0, t0 = np.array([CORNER_BASE[c] for c in corners]).T[:, :, None]
    x = [g0 + 2 * s * et * np.sin(taus), t0 - 2 * s * eg * np.cos(taus),
         np.repeat(s * eg, n_samples, axis=1)]
    for it in range(FOLD_MAXIT + 1):
        assert np.all(np.abs(x[2]) < 1.0), "fold Newton left the chart"
        f, rows = _fold_system(code, s, *x, taus)
        live = ~(np.maximum.reduce([np.abs(v) for v in f]) < FOLD_TOL)
        if not live.any():
            break
        assert it < FOLD_MAXIT, "fold Newton did not converge"
        det, *num = _kernels._cramer3(*rows, -f[0], -f[1], -f[2])
        assert not np.any(live & ~(np.abs(det) >= 1e-300)), "singular"
        with np.errstate(divide="ignore", invalid="ignore"):
            x = [np.where(live, a + d / det, a) for a, d in zip(x, num)]
    g, t, tau = chart_angle([x[0], x[1], np.broadcast_to(taus, x[2].shape)])
    return np.stack([g, t, x[2], tau], axis=-1)


def fold_jacobian_data(variant, s, x):
    """``variety.fold_jacobian_data`` by LAPACK, as first written: the
    tangent plane from the SVD of dG, then the SVD of each restriction.
    Returns (sv0, ker0, sv1, ker1) with the kernel lines mapped into chart
    coordinates through the SVD's own tangent basis."""
    code = _kernels.variant_code(variant)
    dg = np.array(_kernels.jet(code, s, *x, _kernels.DIRECTIONS, math)[2])
    _, _, vt = np.linalg.svd(dg)
    plane = vt[2:]  # orthonormal basis of the tangent plane
    _, sv0, vt0 = np.linalg.svd(plane[:, :2].T)
    xc = x + 1j * COMPLEX_STEP * plane
    cols = pi1_r3_of_chart(s, *xc.T).imag / COMPLEX_STEP
    _, sv1, vt1 = np.linalg.svd(cols.T)
    return sv0, vt0[-1] @ plane, sv1, vt1[-1] @ plane


def fold_system(code, s, gamma, theta, nu, tau):
    """``variety._fold_system`` as first written: the three complex steps
    of det stacked along a leading axis, through one ``jet`` call."""
    g1, g2, ((a0, a1, a2, a3), (b0, b1, b2, b3)) = _kernels.jet(
        code, s, gamma, theta, nu, tau, _kernels.DIRECTIONS)
    step = 1j * COMPLEX_STEP * np.eye(3).reshape((3, 3) + (1,) * gamma.ndim)
    xc = np.moveaxis(np.stack([gamma, theta, nu]) + step, 1, 0)
    _, _, ((c2, c3), (d2, d3)) = _kernels.jet(code, s, *xc, tau, ("nu", "tau"))
    ddet = (c2 * d3 - c3 * d2).imag / COMPLEX_STEP
    return (g1, g2, a2 * b3 - a3 * b2), (a0, a1, a2, b0, b1, b2, *ddet)


def qexp(v, derivs, xp):
    """exp of the pure quaternion v = (x, y, z), and a function giving its
    derivative along a pure direction w when ``derivs``.

    d exp(v)[w] = (-sinc(n) v.w, sinc(n) w + (cos n - sinc n)/n^2 (v.w) v),
    n = |v|.  The second factor needs no series for small n: its rounding
    error is multiplied by (v.w) v = O(n^2).  A nonzero n is at least about
    1e-162 (n^2 underflows below), so n + 1e-300 is n or, at n = 0, a safe
    divisor.
    """
    x, y, z = v
    n2 = x * x + y * y + z * z
    n = xp.sqrt(n2)
    nn = n + 1e-300
    c = xp.cos(n)
    sc = xp.sin(nn) / nn
    if not derivs:
        return (c, sc * x, sc * y, sc * z), None
    k = (c - sc) / (n2 + 1e-300)

    def along(w):
        a, b, d = w
        vw = x * a + y * b + z * d
        kv = k * vw
        return -sc * vw, sc * a + kv * x, sc * b + kv * y, sc * d + kv * z

    return (c, sc * x, sc * y, sc * z), along


def jet(code, s, gamma, theta, nu, tau, wrt=(), xp=np):
    """``_kernels.jet`` as first written: the same straight-line code
    and its forward-mode derivatives, with the exponents built by the nested
    ``bxh`` and ``rot``, the exponentials and their derivatives by ``qexp``
    and its ``along``, and the products by ``quat.mul``.  Returns
    (g1, g2, (row1, row2)) as ``_kernels.jet`` does."""
    cg, sg = xp.cos(gamma), xp.sin(gamma)
    ct, st = xp.cos(theta), xp.sin(theta)
    cu, su = xp.cos(tau), xp.sin(tau)
    r = xp.sqrt(1.0 - nu * nu)
    hy, hz = r * cu, r * su

    def bxh(bx, by, x, y, z):  # s Im(b v) = s b x v for b = (bx, by, 0)
        return s * (by * z), s * (-bx * z), s * (bx * y - by * x)

    def rot(cs, sn, x, y, z):  # s Im(e^{theta k} v) for (cs, sn) = (ct, st)
        return s * (cs * x - sn * y), s * (cs * y + sn * x), s * (cs * z)

    u = bxh(cg, sg, nu, hy, hz)
    v = rot(ct, st, nu, hy, hz)
    p, dp = qexp(u, wrt, xp)
    q, dq = qexp(v, wrt, xp)
    w, mx, my, mz = mul(p, q)
    a = mx * nu + my * hy + mz * hz
    c = my * hz - mz * hy
    if code == _kernels.EARRING:
        g1, g2 = 2.0 * nu * a - mx, nu * w + c
    else:
        cw = c - nu * w
        g1, g2 = 2.0 * (a * cw + w * mx), nu
    row1, row2 = [], []
    for d in wrt:
        # m and h along d; h moves with nu and tau only, p and q with gamma
        # and theta only through b and e^{theta k}
        if d == "gamma":
            dh = None
            dm = mul(dp(bxh(-sg, cg, nu, hy, hz)), q)
        elif d == "theta":
            dh = None
            dm = mul(p, dq(rot(-st, ct, nu, hy, hz)))
        else:
            dh = ((1.0, -nu / r * cu, -nu / r * su) if d == "nu"
                  else (0.0, -hz, hy))
            m1 = mul(dp(bxh(cg, sg, *dh)), q)
            m2 = mul(p, dq(rot(ct, st, *dh)))
            dm = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
        dw, dx, dy, dz = dm
        da = dx * nu + dy * hy + dz * hz
        dc = dy * hz - dz * hy
        if dh is not None:
            da = da + (mx * dh[0] + my * dh[1] + mz * dh[2])
            dc = dc + (my * dh[2] - mz * dh[1])
        if code == _kernels.EARRING:
            d1 = 2.0 * nu * da - dx
            d2 = nu * dw + dc
            if d == "nu":
                d1 = d1 + 2.0 * a
                d2 = d2 + w
            row1.append(d1)
            row2.append(d2)
        else:
            e = dc - nu * dw
            if d == "nu":
                e = e - w
            row1.append(2.0 * (da * cw + a * e + dw * mx + w * dx))
            row2.append(1.0 if d == "nu" else 0.0)
    return g1, g2, (tuple(row1), tuple(row2))


def theorem_b(curve, composed, s):
    """``verify.theorem_b`` as first written: the invariants and the
    distance against the whole prediction, both copies of a double."""
    arc = curve.components[0].kind == "good_arc"
    pred = (figure_eight(curve, s) if arc else double(curve)).relabel("P1")
    inv = invariants(composed)
    hd = hausdorff_r3(composed, pred)
    return (sorted(c.double_points for c in inv.components), hd,
            inv == invariants(pred)
            and (arc or hd <= CIRCLE_HAUSDORFF_PER_S * abs(s)))


def clip_segments(lift):
    """``_svg._clip_segments`` as first written: its own loop over the
    signs, and over the ``lattice_shifts`` of each signed lift."""
    lo, hi = (-0.02, -0.02), (np.pi + 0.02, TWO_PI + 0.02)
    segs = []
    for sign in (1, -1):
        pts = sign * lift
        for shift in lattice_shifts(lo, hi, pts.min(axis=0), pts.max(axis=0)):
            shifted = pts + shift
            inside = ((shifted[:, 0] >= lo[0]) & (shifted[:, 0] <= hi[0])
                      & (shifted[:, 1] >= lo[1]) & (shifted[:, 1] <= hi[1]))
            step = np.diff(np.concatenate(([0], inside.view(np.int8), [0])))
            for a, b in zip(np.flatnonzero(step == 1).tolist(),
                            np.flatnonzero(step == -1).tolist()):
                if b - a >= 2:
                    segs.append(shifted[a:b])
    return segs
