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


def mul_parts(aw, ax, ay, az, bw, bx, by, bz):
    """Hamilton product a * b from the components of a and b, as the tuple
    (w, x, y, z); on floats or elementwise over arrays."""
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, broadcasting over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.stack(mul_parts(a[..., 0], a[..., 1], a[..., 2], a[..., 3],
                              b[..., 0], b[..., 1], b[..., 2], b[..., 3]),
                    axis=-1)


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


def qexp_parts(x, y, z):
    """Exponential of the pure quaternion (x, y, z), cos|v| + sinc|v| * v,
    as the tuple (w, x, y, z); elementwise over arrays.

    The sinc form keeps qexp(0) = 1 exact, which the s -> 0 limits exercise
    constantly.
    """
    n = np.sqrt(x ** 2 + y ** 2 + z ** 2)
    nn = np.maximum(n, 1e-300)
    sc = np.sin(nn) / nn
    return np.cos(n), sc * x, sc * y, sc * z


def qexp(v: np.ndarray) -> np.ndarray:
    """Exponential of a pure quaternion (``qexp_parts``), broadcasting over
    leading axes."""
    v = np.asarray(v)
    return np.stack(qexp_parts(v[..., 1], v[..., 2], v[..., 3]), axis=-1)


def rotate(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Conjugation u x u^{-1} for unit u."""
    return mul(mul(u, x), conj(u))


def rotation_taking(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """A unit quaternion u with u * src * u^{-1} = dst, for pure unit src, dst,
    broadcasting over leading axes; antipodal pairs are rotated through a
    perpendicular axis chosen element by element."""
    s, d = np.broadcast_arrays(np.asarray(src, dtype=float)[..., 1:],
                               np.asarray(dst, dtype=float)[..., 1:])
    c = np.sum(s * d, axis=-1)
    axis = np.cross(s, d)
    na = np.hypot(np.hypot(axis[..., 0], axis[..., 1]), axis[..., 2])
    # any axis perpendicular to src: its cross with i, or with j near +-i
    perp = np.cross(s, np.where(np.abs(s[..., :1]) > 0.9, J[1:], I[1:]))
    perp = perp / np.sqrt(np.sum(perp * perp, axis=-1))[..., None]
    flat = (na < 1e-12)[..., None]
    half = 0.5 * np.arctan2(na, c)[..., None]
    axis = axis / np.where(flat, 1.0, na[..., None])
    return np.where(flat,
                    np.where(c[..., None] > 0, ONE, np.insert(perp, 0, 0.0, -1)),
                    np.concatenate([np.cos(half), np.sin(half) * axis], -1))
