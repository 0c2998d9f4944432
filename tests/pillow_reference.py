"""One-point reference faces of the pillowcase maps, for the tests.

The commands run the batched faces: ``projection.pi0_r3`` and ``pi1_r3``
over arrays, ``words.chart_angle`` over arrays, and ``_kernels`` for the
defining pairs.  The scalar forms here are what the tests check those
against: a pillowcase point on its canonical orbit representative with its
quotient distance, the arccos round trip of the first restriction map, the
pillowcase symmetries, the chart's angle rule, and the defining pairs at one
chart point.  It also keeps the vertex-by-vertex loop that
``compose._prune_short`` runs in arrays, and the batched corrector and the
fold circles' rank data as first written.
"""

import math
from dataclasses import dataclass

import numpy as np

from pillowcase import _kernels
from pillowcase.projection import (OFF_VARIETY_SURFACE_TOL, _angles_of_r3,
                                   _characters, pi1_r3_of_chart, r3_of_orbit)
from pillowcase.variety import COMPLEX_STEP
from pillowcase.words import CHARS_P0, Rep, wrapped_angle

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
