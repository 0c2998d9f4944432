"""Quaternion arithmetic on numpy arrays.

A quaternion w + x i + y j + z k is stored as an array of shape (..., 4) in
the order (w, x, y, z); every operation broadcasts over leading axes.  SU(2)
is the unit three-sphere, and the traceless elements (the conjugacy class of
i) are the pure unit quaternions with w = 0.  Products, conjugates, norms
and exponentials keep their input's dtype, so a complex step x + i h d
passes through them analytically.
"""

from __future__ import annotations

import numpy as np

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

UNIT_TOL = 1e-12

# Long word evaluations renormalize the running product this often to bound
# rounding drift.
RENORM_EVERY = 64


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, broadcasting over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def conj(q: np.ndarray) -> np.ndarray:
    return np.asarray(q) * np.array([1.0, -1.0, -1.0, -1.0])


def real_part(q: np.ndarray) -> np.ndarray:
    """Re(q); a scalar (or array of scalars)."""
    return np.asarray(q)[..., 0]


def ima(q: np.ndarray) -> np.ndarray:
    """Im(q) as a pure quaternion."""
    out = np.array(q, copy=True)
    out[..., 0] = 0.0
    return out


def norm(q: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(q) ** 2, axis=-1))


def normalize(q: np.ndarray) -> np.ndarray:
    return q / norm(q)[..., None]


def is_unit(q: np.ndarray, tol: float = UNIT_TOL) -> bool:
    return bool(np.all(np.abs(np.sum(np.asarray(q) ** 2, axis=-1) - 1.0) <= tol))


def conj_inv(q: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Inverse of a unit quaternion (its conjugate).

    Raises ValueError when the input is not unit within ``tol``; for non-unit
    quaternions conjugation does not invert.
    """
    if not is_unit(q, tol):
        raise ValueError("conj_inv requires unit quaternions")
    return conj(q)


def qexp(v: np.ndarray) -> np.ndarray:
    """Exponential of a pure quaternion: cos|v| + sinc|v| * v.

    The sinc form keeps qexp(0) = 1 exact, which the s -> 0 limits exercise
    constantly.
    """
    v = np.asarray(v)
    n = np.sqrt(v[..., 1] ** 2 + v[..., 2] ** 2 + v[..., 3] ** 2)
    nn = np.maximum(n, 1e-300)
    sc = np.sin(nn) / nn
    out = np.empty(np.broadcast_shapes(v.shape[:-1], n.shape) + (4,), n.dtype)
    out[..., 0] = np.cos(n)
    out[..., 1] = sc * v[..., 1]
    out[..., 2] = sc * v[..., 2]
    out[..., 3] = sc * v[..., 3]
    return out


def from_parts(w, x, y, z) -> np.ndarray:
    return np.stack([np.asarray(w, dtype=float),
                     np.asarray(x, dtype=float),
                     np.asarray(y, dtype=float),
                     np.asarray(z, dtype=float)], axis=-1)


def rotate(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation u x u^{-1} for unit u."""
    return mul(mul(u, x), conj(u))


def rotation_taking(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A unit quaternion u with u * src * u^{-1} = dst, for pure unit src, dst.

    Antipodal pairs are rotated through an arbitrary perpendicular axis.
    """
    s = np.asarray(src, dtype=float)[1:]
    d = np.asarray(dst, dtype=float)[1:]
    c = float(np.dot(s, d))
    axis = np.cross(s, d)
    na = float(np.hypot(np.hypot(axis[0], axis[1]), axis[2]))
    if na < 1e-12:
        if c > 0:
            return ONE.copy()
        # pick any axis perpendicular to src
        trial = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(trial, s)) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        perp = np.cross(s, trial)
        perp /= np.linalg.norm(perp)
        return from_parts(0.0, *perp)
    axis = axis / na
    half = 0.5 * np.arctan2(na, c)
    return from_parts(np.cos(half), *(np.sin(half) * axis))
