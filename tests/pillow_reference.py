"""One-point reference faces of the pillowcase maps, for the tests.

The commands run the batched faces: ``projection.pi0_r3`` and ``pi1_r3``
over arrays, ``words.chart_angle`` over arrays, and ``_kernels`` for the
defining pairs.  The scalar forms here are what the tests check those
against: a pillowcase point on its canonical orbit representative with its
quotient distance, the arccos round trip of the first restriction map, the
pillowcase symmetries, the chart's angle rule, and the defining pairs at one
chart point.  It also keeps the vertex-by-vertex loop that
``compose._prune_short`` runs in arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from pillowcase import _kernels
from pillowcase.projection import (OFF_VARIETY_SURFACE_TOL, _angles_of_r3,
                                   _characters, r3_of_orbit)
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
