"""The pillowcase factors, the two restriction maps, and the reflection.

A pillowcase point is an orbit [gamma, theta] of the torus involution
(gamma, theta) ~ (-gamma, -theta), carried with its character coordinates
(cos gamma, cos theta, cos(gamma - theta)) on the singular surface
x^2 + y^2 + z^2 - 2xyz = 1 in R^3.  Every map here works on (..., 3)
arrays of character triples, read off word images in (w, x, y, z) parts.
The first restriction map reads the base coordinates off the characters
of the incoming boundary loops; the second evaluates the characters of the
outgoing ones.  The involution exchanging the two boundary
spheres factors the second map through the first:
pi1 = Psi o Theta o pi0 o U_s, where Theta is the reflection
[gamma, theta] -> [gamma, -theta] and Psi relabels the factor.
"""

from __future__ import annotations

import numpy as np

from . import quat
from .words import (CHARS_P0, CHARS_P1, Rep, U_A, U_B, U_F, U_H, chart_angle,
                    embed_L, eval_word, slice_parts, variety_residual)

OFF_VARIETY_SURFACE_TOL = 1e-6


class OffVarietyError(ValueError):
    """The input does not lie on the variety, so its image misses the
    pillowcase surface."""


class ReGaugeError(RuntimeError):
    """Conjugating back into the gauge slice degenerated (b parallel to a)."""


def r3_of_orbit(gamma, theta) -> np.ndarray:
    return np.stack([np.cos(gamma), np.cos(theta), np.cos(gamma - theta)],
                    axis=-1)


def surface_residual(v):
    x, y, z = np.moveaxis(np.asarray(v), -1, 0)
    return np.abs(x * x + y * y + z * z - 2 * x * y * z - 1.0)


def _angles_of_r3(v, tol: float = OFF_VARIETY_SURFACE_TOL):
    """Angles (gamma, theta) of character triples v of shape (..., 3)."""
    res = surface_residual(v)
    if np.any(res > tol):
        raise OffVarietyError(f"character triple off the pillowcase surface "
                              f"by {np.max(res):.3e}")
    x, y, z = np.moveaxis(np.asarray(v), -1, 0)
    g = np.arccos(np.clip(x, -1.0, 1.0))
    t0 = np.arccos(np.clip(y, -1.0, 1.0))
    # resolve the sign of theta against the third character
    return g, np.where(np.abs(np.cos(g - t0) - z) <= np.abs(np.cos(g + t0) - z),
                       t0, 2 * np.pi - t0)


def _characters(rep, words) -> np.ndarray:
    """Re of each word of a triple on a Rep or a dict of (batched, possibly
    complex) generator values, stacked along a last axis of length 3."""
    parts = (eval_word(rep, w)[0] for w in words)
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def pi0_r3(rep: Rep) -> np.ndarray:
    """First-factor restriction over a (batched) Rep: the characters of the
    incoming boundary loops (conjugation invariant, so valid off the gauge
    slice), read back through their orbit angles."""
    return r3_of_orbit(*_angles_of_r3(_characters(rep, CHARS_P0)))


def pi1_r3(rep) -> np.ndarray:
    """Characters of the outgoing boundary loops (c d^-, f d^-, c f^-) on a
    Rep or a dict of generator values.  The first word is the third
    followed by the second, so it continues the third's products: 20
    products for the three."""
    w1, w2, w3 = CHARS_P1
    c3 = eval_word(rep, w3)
    c1 = eval_word(rep, w1[len(w3):], c3)
    return np.stack([c1[0], eval_word(rep, w2)[0], c3[0]], axis=-1)


def pi1_r3_of_chart(s, gamma, theta, nu, tau) -> np.ndarray:
    """``pi1_r3`` straight from chart coordinates (``slice_parts``), which
    broadcast and may be complex; raises ValueError for |nu| > 1/2."""
    return pi1_r3(slice_parts(s, gamma, theta, nu, tau))


def theta_r3(v) -> np.ndarray:
    """The reflection [gamma, theta] -> [gamma, -theta] on character
    triples."""
    x, y, z = np.moveaxis(np.asarray(v), -1, 0)
    return np.stack([x, y, 2 * x * y - z], axis=-1)


# ---------------------------------------------------------------------------
# the involution exchanging the two boundary spheres
# ---------------------------------------------------------------------------

def u_values(rep: Rep) -> dict[str, tuple]:
    """Images of a, b, f, h under the involution's action on words."""
    return {
        "a": eval_word(rep, U_A),
        "b": eval_word(rep, U_B),
        "f": eval_word(rep, U_F),
        "h": eval_word(rep, U_H),
    }


def u_involution(rep: Rep) -> Rep:
    """The induced involution of a (batched) variety Rep, in gauge-slice form.

    The transformed (a, b, f, h) are conjugated so that a = i and b lies in
    the span of i and j with non-negative j part; p and q are then recomputed
    from the perturbation conditions.  A batch equals one point at a time
    bit for bit.  Requires an on-variety input: one point off it fails the
    batch.
    """
    vals = u_values(rep)
    a2, b2, f2, h2 = vals["a"], vals["b"], vals["f"], vals["h"]
    if np.any(np.abs(a2[0]) > 1e-6):
        raise OffVarietyError("transformed a is not traceless; input is off "
                              "the variety")
    u1 = quat.rotation_taking(quat.normalize((0.0, *a2[1:])), quat.I)
    b3 = quat.rotate(u1, b2)
    # rotate about i to kill the k-component of b and make the j-part >= 0
    phi = np.arctan2(b3[3], b3[2])
    u2 = quat.qexp(*(-0.5 * phi * c for c in quat.I[1:]))
    u = quat.mul(u2, u1)
    b4, f4, h4 = (quat.rotate(u, x) for x in (b2, f2, h2))
    if np.any(np.hypot(b4[2], b4[3]) < 1e-9):
        raise ReGaugeError("b is aligned with a; the slice gauge is degenerate")
    if np.any(np.abs(f4[3]) > 1e-6):
        raise OffVarietyError("transformed f left the gauge plane; input is "
                              "off the variety")
    gamma, theta, tau = chart_angle(
        [np.arctan2(b4[2], b4[1]), np.arctan2(f4[2], f4[1]),
         np.arctan2(h4[3], h4[2])])
    nu = np.clip(h4[1], -0.5, 0.5)
    out = embed_L(rep.variant, rep.s, gamma, theta, nu, tau)
    res = variety_residual(out)
    if res > 1e-8:
        raise OffVarietyError(f"involution output misses the variety by {res:.3e}")
    return out


def characters_in_out(rep: Rep) -> np.ndarray:
    """The six boundary characters (both factors) of a (batched) Rep."""
    return np.concatenate([pi0_r3(rep), pi1_r3(rep)], axis=-1)


def verify_factorization(rep: Rep) -> float:
    """Largest distance in R^3 between pi1 and Psi o Theta o pi0 o U_s over
    a (batched) Rep."""
    moved = pi0_r3(u_involution(rep))
    return float(np.max(np.abs(theta_r3(moved) - pi1_r3(rep))))


def pi0_u_r3(rep: Rep) -> np.ndarray:
    """pi0 o U_s from the word images alone (no re-gauging); used where the
    full slice form is not needed.  A complex Rep gives a complex result."""
    return _characters(u_values(rep), CHARS_P0)
