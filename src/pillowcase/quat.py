"""Quaternion arithmetic on (w, x, y, z) tuples.

A quaternion w + x i + y j + z k is the tuple of its four parts, each a
float or an array; every operation works elementwise and broadcasts.  SU(2)
is the unit three-sphere, and the traceless elements (the conjugacy class of
i) are the pure unit quaternions with w = 0.  The operations keep their
input's dtype, so a complex step x + i h d passes through them analytically.
"""

from __future__ import annotations

import numpy as np

ONE = (1.0, 0.0, 0.0, 0.0)
I = (0.0, 1.0, 0.0, 0.0)
J = (0.0, 0.0, 1.0, 0.0)


def mul(a, b):
    """Hamilton product a * b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def conj(q):
    return q[0], -q[1], -q[2], -q[3]


def normalize(q):
    n = np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return tuple(c / n for c in q)


def qexp(x, y, z):
    """Exponential of the pure quaternion (x, y, z), cos|v| + sinc|v| * v.

    The sinc form keeps qexp(0) = 1 exact, which the s -> 0 limits exercise
    constantly.
    """
    n = np.sqrt(x ** 2 + y ** 2 + z ** 2)
    nn = np.maximum(n, 1e-300)
    sc = np.sin(nn) / nn
    return np.cos(n), sc * x, sc * y, sc * z


def rotate(u, x):
    """Conjugation u x u^{-1} for unit u."""
    return mul(mul(u, x), conj(u))


def rotation_taking(src, dst):
    """A unit quaternion u with u * src * u^{-1} = dst, for pure unit src,
    dst; antipodal pairs are rotated through a perpendicular axis chosen
    element by element."""
    _, sx, sy, sz = src
    _, dx, dy, dz = dst
    c = sx * dx + sy * dy + sz * dz
    ax, ay, az = sy * dz - sz * dy, sz * dx - sx * dz, sx * dy - sy * dx
    na = np.hypot(np.hypot(ax, ay), az)
    # any axis perpendicular to src: its cross with i, or with j near +-i
    near = np.abs(sx) > 0.9
    ex, ey = np.where(near, 0.0, 1.0), np.where(near, 1.0, 0.0)
    px, py, pz = sy * 0.0 - sz * ey, sz * ex - sx * 0.0, sx * ey - sy * ex
    pn = np.sqrt(px * px + py * py + pz * pz)
    flat = na < 1e-12
    half = 0.5 * np.arctan2(na, c)
    sh, d = np.sin(half), np.where(flat, 1.0, na)
    turn = c > 0
    return (np.where(flat, np.where(turn, 1.0, 0.0), np.cos(half)),
            *(np.where(flat, np.where(turn, 0.0, p / pn), sh * (a / d))
              for p, a in ((px, ax), (py, ay), (pz, az))))
