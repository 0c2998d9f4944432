"""The pillowcase factors, the two restriction maps, and the symmetries.

A pillowcase point is an orbit [gamma, theta] of the torus involution
(gamma, theta) ~ (-gamma, -theta), carried with its character coordinates
(cos gamma, cos theta, cos(gamma - theta)) on the singular surface
x^2 + y^2 + z^2 - 2xyz = 1 in R^3.  The first restriction map reads the base
coordinates off a chart point; the second evaluates the characters of the
outgoing boundary loops.  The involution exchanging the two boundary spheres
factors the second map through the first:  pi1 = Psi o Theta o pi0 o U_s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .words import (EARRING, CHARS_P0, CHARS_P1, ChartPoint, Rep, U_A, U_B,
                    U_F, U_H, embed_arrays, embed_L, eval_word,
                    variety_residual)

CORNERS_R3 = np.array([
    [1.0, 1.0, 1.0],
    [-1.0, -1.0, 1.0],
    [-1.0, 1.0, -1.0],
    [1.0, -1.0, -1.0],
])

OFF_VARIETY_SURFACE_TOL = 1e-6


class OffVarietyError(ValueError):
    """The input does not lie on the variety, so its image misses the
    pillowcase surface."""


class ReGaugeError(RuntimeError):
    """Conjugating back into the gauge slice degenerated (b parallel to a)."""


def canonical_orbit(gamma: float, theta: float) -> tuple[float, float]:
    """Orbit representative with gamma in [0, pi]; on the two edge circles
    gamma in {0, pi} the residual ambiguity is broken by theta in [0, pi]."""
    g = float(np.mod(gamma, 2 * np.pi))
    t = float(np.mod(theta, 2 * np.pi))
    if g > np.pi + 1e-15:
        g = 2 * np.pi - g
        t = float(np.mod(-t, 2 * np.pi))
    edge = min(g, abs(np.pi - g), abs(2 * np.pi - g)) < 1e-12
    if edge and t > np.pi + 1e-15:
        t = 2 * np.pi - t
    if g > np.pi:
        g = np.pi
    return g, t


def r3_of_orbit(gamma: float, theta: float) -> np.ndarray:
    return np.array([np.cos(gamma), np.cos(theta), np.cos(gamma - theta)])


def surface_residual(v) -> float:
    x, y, z = v
    return float(abs(x * x + y * y + z * z - 2 * x * y * z - 1.0))


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
        return cls(side, g, t, tuple(r3_of_orbit(g, t)))

    @classmethod
    def from_r3(cls, side: str, x: float, y: float, z: float,
                tol: float = OFF_VARIETY_SURFACE_TOL) -> "PillowPoint":
        if surface_residual((x, y, z)) > tol:
            raise OffVarietyError(
                f"character triple off the pillowcase surface by "
                f"{surface_residual((x, y, z)):.3e}")
        g = float(np.arccos(np.clip(x, -1.0, 1.0)))
        t0 = float(np.arccos(np.clip(y, -1.0, 1.0)))
        # resolve the sign of theta against the third character
        if abs(np.cos(g - t0) - z) <= abs(np.cos(g + t0) - z):
            t = t0
        else:
            t = 2 * np.pi - t0
        return cls.from_orbit(side, g, t)

    @property
    def is_corner(self) -> bool:
        return bool(np.min(np.max(np.abs(CORNERS_R3 - np.asarray(self.r3)),
                                  axis=1)) < 1e-8)

    def distance(self, other: "PillowPoint") -> float:
        """Quotient distance in the angle coordinates."""
        best = np.inf
        for sign in (1, -1):
            dg = self.gamma - sign * other.gamma
            dt = self.theta - sign * other.theta
            dg = abs(np.mod(dg + np.pi, 2 * np.pi) - np.pi)
            dt = abs(np.mod(dt + np.pi, 2 * np.pi) - np.pi)
            best = min(best, float(np.hypot(dg, dt)))
        return best


def pi0(pt: ChartPoint) -> PillowPoint:
    """First-factor restriction: forget everything but the base orbit."""
    return PillowPoint.from_orbit("P0", pt.gamma, pt.theta)


def pi0_of_rep(rep: Rep) -> PillowPoint:
    """Same map computed from the characters of the incoming boundary loops
    (conjugation invariant, so valid off the gauge slice)."""
    return PillowPoint.from_r3("P0", *(float(quat.real_part(eval_word(rep, w)))
                                       for w in CHARS_P0))


def pi1_r3(rep: Rep) -> np.ndarray:
    """Characters of the outgoing boundary loops (c d^-, f d^-, c f^-)."""
    return np.array([float(quat.real_part(eval_word(rep, w))) for w in CHARS_P1])


def pi1_r3_of_chart(s, gamma, theta, nu, tau, variant=EARRING) -> np.ndarray:
    """pi1 characters straight from chart coordinates (vectorized over
    broadcastable inputs); raises ValueError for |nu| > 1/2."""
    vals = embed_arrays(s, gamma, theta, nu, tau)
    return np.stack([quat.real_part(eval_word(vals, w)) for w in CHARS_P1],
                    axis=-1)


def pi1(rep: Rep, *, tol: float = OFF_VARIETY_SURFACE_TOL) -> PillowPoint:
    """Second-factor restriction; raises OffVarietyError when the input is
    not (numerically) on its variety."""
    v = pi1_r3(rep)
    if surface_residual(v) > tol:
        raise OffVarietyError(
            f"pi1 characters miss the pillowcase surface by "
            f"{surface_residual(v):.3e}; |G| = {variety_residual(rep):.3e}")
    return PillowPoint.from_r3("P1", *v)


# ---------------------------------------------------------------------------
# symmetries of the pillowcase
# ---------------------------------------------------------------------------

def theta_map(p: PillowPoint) -> PillowPoint:
    """[gamma, theta] -> [gamma, -theta]; orientation-reversing."""
    return PillowPoint.from_orbit(p.side, p.gamma, -p.theta)


def theta_r3(v) -> np.ndarray:
    x, y, z = v
    return np.array([x, y, 2 * x * y - z])


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
# the involution exchanging the two boundary spheres
# ---------------------------------------------------------------------------

def u_values(rep: Rep) -> dict[str, np.ndarray]:
    """Images of a, b, f, h under the involution's action on words."""
    return {
        "a": eval_word(rep, U_A),
        "b": eval_word(rep, U_B),
        "f": eval_word(rep, U_F),
        "h": eval_word(rep, U_H),
    }


def u_involution(rep: Rep) -> Rep:
    """The induced involution on the variety, returned in gauge-slice form.

    The transformed (a, b, f, h) are conjugated so that a = i and b lies in
    the span of i and j with non-negative j part; p and q are then recomputed
    from the perturbation conditions.  Requires an on-variety input.
    """
    vals = u_values(rep)
    a2, b2, f2, h2 = vals["a"], vals["b"], vals["f"], vals["h"]
    if abs(float(quat.real_part(a2))) > 1e-6:
        raise OffVarietyError("transformed a is not traceless; input is off "
                              "the variety")
    u1 = quat.rotation_taking(quat.normalize(quat.ima(a2)), quat.I)
    b3 = quat.rotate(u1, b2)
    # rotate about i to kill the k-component of b and make the j-part >= 0
    phi = np.arctan2(b3[3], b3[2])
    u2 = quat.qexp(-0.5 * phi * quat.I)
    u = quat.mul(u2, u1)
    b4 = quat.rotate(u, b2)
    f4 = quat.rotate(u, f2)
    h4 = quat.rotate(u, h2)
    if np.hypot(b4[2], b4[3]) < 1e-9:
        raise ReGaugeError("b is aligned with a; the slice gauge is degenerate")
    gamma = float(np.arctan2(b4[2], b4[1]))
    if abs(f4[3]) > 1e-6:
        raise OffVarietyError("transformed f left the gauge plane; input is "
                              "off the variety")
    theta = float(np.arctan2(f4[2], f4[1]))
    nu = float(h4[1])
    tau = float(np.arctan2(h4[3], h4[2]))
    pt = ChartPoint(rep.s, gamma, theta, np.clip(nu, -0.5, 0.5), tau,
                    rep.variant)
    out = embed_L(pt)
    res = variety_residual(out)
    if res > 1e-8:
        raise OffVarietyError(f"involution output misses the variety by {res:.3e}")
    return out


def characters_in_out(rep: Rep) -> np.ndarray:
    """The six boundary characters (both factors) of a representation."""
    return np.concatenate([np.asarray(pi0_of_rep(rep).r3), pi1_r3(rep)])


def verify_factorization(rep: Rep) -> float:
    """Distance in R^3 between pi1 and Psi o Theta o pi0 o U_s."""
    target = pi1_r3(rep)
    moved = u_involution(rep)
    v0 = np.asarray(pi0_of_rep(moved).r3)
    return float(np.max(np.abs(theta_r3(v0) - target)))


def pi0_u_r3(rep: Rep) -> np.ndarray:
    """pi0 o U_s from the word images alone (no re-gauging); used where the
    full slice form is not needed."""
    vals = u_values(rep)
    x = float(quat.real_part(quat.mul(vals["b"], quat.conj(vals["a"]))))
    y = float(quat.real_part(quat.mul(vals["f"], quat.conj(vals["a"]))))
    z = float(quat.real_part(quat.mul(vals["b"], quat.conj(vals["f"]))))
    return np.array([x, y, z])
