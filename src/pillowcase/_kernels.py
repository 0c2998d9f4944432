"""Hot numeric kernels.

Everything here evaluates the two defining functions of the perturbed
varieties in chart coordinates (s, gamma, theta, nu, tau) and runs the small
Newton loops built on them: fiber root finding and the corrector step of
pseudo-arclength continuation.  These dominate the runtime of grid traces,
fold extraction, and curve composition.

The defining pair is written once, in scalar form that also broadcasts over
numpy arrays; fiber Newton is written once, over arrays of fibers
(``newton_fibers``), and ``newton_fiber`` is its one-point face.  ``g_jac``
evaluates the pair at one point together with its exact Jacobian, by
forward-mode differentiation on Python floats; the continuation corrector
and tangent, the corner-chart solves of the fold circles and the fold rank
data take their derivatives from it.  When numba is installed (the optional
``numba`` extra) the scalar pair ``g_scalar`` is compiled with numba.njit;
setting the environment variable PILLOWCASE_NUMBA=0, or running without
numba, selects the pure-numpy path.
"""

from __future__ import annotations

import math
import os

import numpy as np

try:
    from numba import njit as _njit
    from numba.extending import register_jitable as _register_jitable

    _HAVE_NUMBA = True
except ImportError:  # numba is an optional extra
    _HAVE_NUMBA = False

    def _register_jitable(f):
        return f


NUMBA_ENABLED = _HAVE_NUMBA and os.environ.get("PILLOWCASE_NUMBA", "1") != "0"

EARRING = 0
BYPASS = 1


def variant_code(variant) -> int:
    if variant == "earring" or variant == EARRING:
        return EARRING
    if variant == "bypass" or variant == BYPASS:
        return BYPASS
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# scalar/broadcast quaternion helpers (tuple-of-components form)
# ---------------------------------------------------------------------------

@_register_jitable
def _qmul(aw, ax, ay, az, bw, bx, by, bz):
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


@_register_jitable
def _qexp_pure(x, y, z):
    n = np.sqrt(x * x + y * y + z * z)
    nn = np.maximum(n, 1e-300)
    sc = np.sin(nn) / nn
    return np.cos(n), sc * x, sc * y, sc * z


@_register_jitable
def _g_earring_impl(s, gamma, theta, nu, tau):
    """G = (Re(p q h^- a h^-), Re(p q h^- a)) on the gauge slice."""
    cg = np.cos(gamma)
    sg = np.sin(gamma)
    ct = np.cos(theta)
    st = np.sin(theta)
    r = np.sqrt(1.0 - nu * nu)
    hx = nu
    hy = r * np.cos(tau)
    hz = r * np.sin(tau)
    zero = 0.0 * (gamma + theta + nu + tau)
    one = 1.0 + zero
    # p = exp(s Im(b h)), b = cg i + sg j, Im(b h) = b x h
    pw, px, py, pz = _qexp_pure(s * (sg * hz), s * (-cg * hz), s * (cg * hy - sg * hx))
    # q = exp(s Im(e^{theta k} h))
    qw, qx, qy, qz = _qexp_pure(
        s * (ct * hx - st * hy), s * (ct * hy + st * hx), s * (ct * hz)
    )
    mw, mx, my, mz = _qmul(pw, px, py, pz, qw, qx, qy, qz)
    # z1 = (p q) conj(h)
    zw, zx, zy, zz = _qmul(mw, mx, my, mz, zero, -hx, -hy, -hz)
    # z2 = z1 * i ; Re gives the second component
    uw, ux, uy, uz = _qmul(zw, zx, zy, zz, zero, one, zero, zero)
    g2 = uw
    # g1 = Re(z2 * conj(h))
    g1 = ux * hx + uy * hy + uz * hz
    return g1, g2


@_register_jitable
def _g_bypass_impl(s, gamma, theta, nu, tau):
    """G' = (Re(q^- p^- h p q h^- a), Re(h^- a)); the second component is nu."""
    cg = np.cos(gamma)
    sg = np.sin(gamma)
    ct = np.cos(theta)
    st = np.sin(theta)
    r = np.sqrt(1.0 - nu * nu)
    hx = nu
    hy = r * np.cos(tau)
    hz = r * np.sin(tau)
    zero = 0.0 * (gamma + theta + nu + tau)
    pw, px, py, pz = _qexp_pure(s * (sg * hz), s * (-cg * hz), s * (cg * hy - sg * hx))
    qw, qx, qy, qz = _qexp_pure(
        s * (ct * hx - st * hy), s * (ct * hy + st * hx), s * (ct * hz)
    )
    mw, mx, my, mz = _qmul(pw, px, py, pz, qw, qx, qy, qz)
    # t = conj(pq) h (pq)
    t1w, t1x, t1y, t1z = _qmul(mw, -mx, -my, -mz, zero, hx, hy, hz)
    tw, tx, ty, tz = _qmul(t1w, t1x, t1y, t1z, mw, mx, my, mz)
    # z = t conj(h); g1 = Re(z * i) = -z_x
    zw, zx, zy, zz = _qmul(tw, tx, ty, tz, zero, -hx, -hy, -hz)
    g1 = -zx
    g2 = nu + zero
    return g1, g2


@_register_jitable
def _g_impl(variant, s, gamma, theta, nu, tau):
    if variant == EARRING:
        return _g_earring_impl(s, gamma, theta, nu, tau)
    return _g_bypass_impl(s, gamma, theta, nu, tau)


# ---------------------------------------------------------------------------
# the defining pair with its exact Jacobian, one point at a time
# ---------------------------------------------------------------------------

def _qexp_jvp(x, y, z, dirs):
    """exp of the pure quaternion v = (x, y, z) and its derivatives along the
    pure directions w in ``dirs``.

    d exp(v)[w] = (-sinc(n) v.w, sinc(n) w + (cos n - sinc n)/n^2 (v.w) v),
    n = |v|.  The second factor needs no series for small n: its rounding
    error is multiplied by (v.w) v = O(n^2).
    """
    n = math.sqrt(x * x + y * y + z * z)
    nn = max(n, 1e-300)
    sc = math.sin(nn) / nn
    c = math.cos(n)
    k = (c - sc) / max(n * n, 1e-300)
    out = []
    for a, b, d in dirs:
        vw = x * a + y * b + z * d
        kv = k * vw
        out.append((-sc * vw, sc * a + kv * x, sc * b + kv * y, sc * d + kv * z))
    return (c, sc * x, sc * y, sc * z), out


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def g_jac(code, s, gamma, theta, nu, tau):
    """The defining pair at one point and its exact 2x4 Jacobian.

    Returns (g1, g2, J) with J = ((dg1/dgamma, dg1/dtheta, dg1/dnu,
    dg1/dtau), (dg2/...)), by forward-mode differentiation of ``_g_impl``
    through ``_qexp_pure`` and ``_qmul`` on Python floats.
    """
    s, nu = float(s), float(nu)  # numpy scalars would slow every operation
    cg, sg = math.cos(gamma), math.sin(gamma)
    ct, st = math.cos(theta), math.sin(theta)
    cu, su = math.cos(tau), math.sin(tau)
    r = math.sqrt(1.0 - nu * nu)
    h = (nu, r * cu, r * su)
    h_nu = (1.0, -nu / r * cu, -nu / r * su)
    h_tau = (0.0, -h[2], h[1])

    def bxh(bx, by, v):  # s Im(b v) = s b x v for b = (bx, by, 0)
        return s * (by * v[2]), s * (-bx * v[2]), s * (bx * v[1] - by * v[0])

    def rot(c, sn, v):  # s Im(e^{theta k} v)
        return (s * (c * v[0] - sn * v[1]), s * (c * v[1] + sn * v[0]),
                s * (c * v[2]))

    p, (p_g, p_nu, p_tau) = _qexp_jvp(
        *bxh(cg, sg, h),
        (bxh(-sg, cg, h), bxh(cg, sg, h_nu), bxh(cg, sg, h_tau)))
    q, (q_t, q_nu, q_tau) = _qexp_jvp(
        *rot(ct, st, h),
        (rot(-st, ct, h), rot(ct, st, h_nu), rot(ct, st, h_tau)))
    m = _qmul(*p, *q)
    # derivatives of m = p q and of h along gamma, theta, nu, tau
    dm = (_qmul(*p_g, *q), _qmul(*p, *q_t),
          _add(_qmul(*p_nu, *q), _qmul(*p, *q_nu)),
          _add(_qmul(*p_tau, *q), _qmul(*p, *q_tau)))
    dh = (None, None, h_nu, h_tau)
    nh = (0.0, -h[0], -h[1], -h[2])
    if code == EARRING:
        # z = (p q) conj(h); g2 = Re(z i) = -z_x; g1 = Re(z i conj(h))
        zw, zx, zy, zz = _qmul(*m, *nh)
        row1, row2 = [], []
        for dm_k, dh_k in zip(dm, dh):
            dz = _qmul(*dm_k, *nh)
            d1 = 0.0
            if dh_k is not None:
                dz = _add(dz, _qmul(*m, 0.0, -dh_k[0], -dh_k[1], -dh_k[2]))
                d1 = zw * dh_k[0] + zz * dh_k[1] - zy * dh_k[2]
            row1.append(dz[0] * h[0] + dz[3] * h[1] - dz[2] * h[2] + d1)
            row2.append(-dz[1])
        return (zw * h[0] + zz * h[1] - zy * h[2], -zx,
                (tuple(row1), tuple(row2)))
    # t = conj(pq) h (pq); z = t conj(h); g1 = Re(z i) = -z_x; g2 = nu
    mc = (m[0], -m[1], -m[2], -m[3])
    t1 = _qmul(*mc, 0.0, *h)
    t = _qmul(*t1, *m)
    row1 = []
    for dm_k, dh_k in zip(dm, dh):
        dt1 = _qmul(dm_k[0], -dm_k[1], -dm_k[2], -dm_k[3], 0.0, *h)
        if dh_k is not None:
            dt1 = _add(dt1, _qmul(*mc, 0.0, *dh_k))
        dz = _qmul(*_add(_qmul(*dt1, *m), _qmul(*t1, *dm_k)), *nh)
        if dh_k is not None:
            dz = _add(dz, _qmul(*t, 0.0, -dh_k[0], -dh_k[1], -dh_k[2]))
        row1.append(-dz[1])
    return -_qmul(*t, *nh)[1], nu, (tuple(row1), (0.0, 0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# cubic piecewise-polynomial evaluation (scipy PPoly layout: c[k, i])
# ---------------------------------------------------------------------------

@_register_jitable
def _ppoly_eval(breaks, c, x):
    n = len(breaks) - 1
    i = int(np.searchsorted(breaks, x)) - 1
    if i < 0:
        i = 0
    if i > n - 1:
        i = n - 1
    dx = x - breaks[i]
    return ((c[0, i] * dx + c[1, i]) * dx + c[2, i]) * dx + c[3, i]


def _spline_jet(breaks, cg, ct, t):
    """Values and t-derivatives of both curve splines at t:
    (gamma, gamma', theta, theta'), over one interval search."""
    i = min(max(int(np.searchsorted(breaks, t)) - 1, 0), len(breaks) - 2)
    dx = float(t - breaks[i])
    a0, a1, a2, a3 = cg[:, i].tolist()
    b0, b1, b2, b3 = ct[:, i].tolist()
    return (((a0 * dx + a1) * dx + a2) * dx + a3,
            (3.0 * a0 * dx + 2.0 * a1) * dx + a2,
            ((b0 * dx + b1) * dx + b2) * dx + b3,
            (3.0 * b0 * dx + 2.0 * b1) * dx + b2)


# ---------------------------------------------------------------------------
# pseudo-arclength continuation over a curve: unknowns u = (t, nu, tau)
# ---------------------------------------------------------------------------

def _curve_jac(code, s, breaks, cg, ct, u0, u1, u2):
    """The defining pair at u and its 2x3 Jacobian in u, rows flattened."""
    gamma, dgamma, theta, dtheta = _spline_jet(breaks, cg, ct, u0)
    f1, f2, (j1, j2) = g_jac(code, s, gamma, theta, u1, u2)
    return f1, f2, (j1[0] * dgamma + j1[1] * dtheta, j1[2], j1[3],
                    j2[0] * dgamma + j2[1] * dtheta, j2[2], j2[3])


def _null(j):
    """Unit null vector of a 2x3 Jacobian (cross product of its rows), or
    None where the rows are dependent."""
    a00, a01, a02, a10, a11, a12 = j
    tx = a01 * a12 - a02 * a11
    ty = a02 * a10 - a00 * a12
    tz = a00 * a11 - a01 * a10
    nrm = math.sqrt(tx * tx + ty * ty + tz * tz)
    if nrm < 1e-300:
        return None
    return tx / nrm, ty / nrm, tz / nrm


def tangent(code, s, breaks, cg, ct, u0, u1, u2):
    """Unit tangent of the solution curve at u: (t0, t1, t2, ok)."""
    tn = _null(_curve_jac(code, s, breaks, cg, ct, u0, u1, u2)[2])
    if tn is None:
        return 0.0, 0.0, 0.0, False
    return tn[0], tn[1], tn[2], True


def corrector(code, s, breaks, cg, ct, u0, u1, u2, t0, t1, t2, tol, maxit):
    """Newton on {G = 0, tangent . (u - u_pred) = 0}.

    Returns (u0, u1, u2, ok, tangent): the unit tangent at the returned
    point, from the Jacobian its last iteration evaluated there, or None
    when it degenerates or the correction failed.
    """
    u0, u1, u2, t0, t1, t2 = map(float, (u0, u1, u2, t0, t1, t2))
    p0, p1, p2 = u0, u1, u2
    for it in range(maxit + 1):
        f1, f2, j = _curve_jac(code, s, breaks, cg, ct, u0, u1, u2)
        if it == maxit:
            return u0, u1, u2, max(abs(f1), abs(f2)) < tol, _null(j)
        f3 = t0 * (u0 - p0) + t1 * (u1 - p1) + t2 * (u2 - p2)
        if max(abs(f1), abs(f2)) < tol and abs(f3) < 1e-9:
            return u0, u1, u2, True, _null(j)
        a00, a01, a02, a10, a11, a12 = j
        r0 = -f1
        r1 = -f2
        r2 = -f3
        det = (
            a00 * (a11 * t2 - a12 * t1)
            - a01 * (a10 * t2 - a12 * t0)
            + a02 * (a10 * t1 - a11 * t0)
        )
        if abs(det) < 1e-300:
            return u0, u1, u2, False, None
        du0 = (
            r0 * (a11 * t2 - a12 * t1)
            - a01 * (r1 * t2 - a12 * r2)
            + a02 * (r1 * t1 - a11 * r2)
        ) / det
        du1 = (
            a00 * (r1 * t2 - a12 * r2)
            - r0 * (a10 * t2 - a12 * t0)
            + a02 * (a10 * r2 - r1 * t0)
        ) / det
        du2 = (
            a00 * (a11 * r2 - r1 * t1)
            - a01 * (a10 * r2 - r1 * t0)
            + r0 * (a10 * t1 - a11 * t0)
        ) / det
        if abs(u1 + du1) > 0.999:
            return u0, u1, u2, False, None
        if abs(du0) + abs(du1) + abs(du2) > 1.0:
            return u0, u1, u2, False, None
        u0 += du0
        u1 += du1
        u2 += du2


# ---------------------------------------------------------------------------
# instantiate both paths
# ---------------------------------------------------------------------------

# pure-python/numpy face (elementwise forms broadcast over arrays)
g_scalar_py = _g_impl
g_scalar = _njit(cache=True)(_g_impl) if NUMBA_ENABLED else _g_impl


def g_pair(variant, s, gamma, theta, nu, tau):
    """Vectorized evaluation of the defining pair; broadcasts all arguments."""
    code = variant_code(variant)
    gamma, theta, nu, tau = np.broadcast_arrays(
        np.asarray(gamma, dtype=float),
        np.asarray(theta, dtype=float),
        np.asarray(nu, dtype=float),
        np.asarray(tau, dtype=float),
    )
    g1, g2 = _g_impl(code, float(s), gamma, theta, nu, tau)
    return np.asarray(g1, dtype=float), np.asarray(g2, dtype=float) + np.zeros_like(gamma)


# ---------------------------------------------------------------------------
# Newton refinement of fiber roots in (nu, tau)
# ---------------------------------------------------------------------------

def newton_fibers(variant, s, gamma, theta, nu0, tau0, tol=1e-12, maxit=50):
    """Damped Newton on (nu, tau) over many fibers at once.

    Returns (nu, tau, ok, cond) arrays of the broadcast input shape.  Each
    element iterates on its own: a central-difference Jacobian, then a full
    step halved up to 8 times until the residual drops; a trial step that
    leaves |nu| < 0.999 is rejected.  An element stops when its residual is
    below ``tol`` (ok), its Jacobian is singular or no trial step improves
    (not ok, last accepted iterate kept), or after ``maxit`` steps.  ``cond``
    is the 2x2 Jacobian condition estimate at the last iterate, used
    upstream for fold detection.
    """
    code = variant_code(variant)
    s = float(s)
    gamma, theta, nu, tau = np.broadcast_arrays(
        np.asarray(gamma, dtype=float),
        np.asarray(theta, dtype=float),
        np.asarray(nu0, dtype=float),
        np.asarray(tau0, dtype=float),
    )
    shape = gamma.shape
    gamma = gamma.ravel()
    theta = theta.ravel()
    nu = nu.flatten()
    tau = tau.flatten()
    ok = np.zeros(nu.size, dtype=bool)
    cond = np.ones(nu.size)
    fd = 1e-6
    idx = np.arange(nu.size)  # elements still iterating
    for _ in range(maxit):
        if not idx.size:
            break
        g = gamma[idx]
        t = theta[idx]
        x = nu[idx]
        y = tau[idx]
        f1, f2 = _g_impl(code, s, g, t, x, y)
        res = np.maximum(np.abs(f1), np.abs(f2))
        a11p, a21p = _g_impl(code, s, g, t, x + fd, y)
        a11m, a21m = _g_impl(code, s, g, t, x - fd, y)
        a12p, a22p = _g_impl(code, s, g, t, x, y + fd)
        a12m, a22m = _g_impl(code, s, g, t, x, y - fd)
        j11 = (a11p - a11m) / (2 * fd)
        j21 = (a21p - a21m) / (2 * fd)
        j12 = (a12p - a12m) / (2 * fd)
        j22 = (a22p - a22m) / (2 * fd)
        det = j11 * j22 - j12 * j21
        tr = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
        disc = tr * tr - 4.0 * det * det
        disc = np.where(disc < 0.0, 0.0, disc)
        s1sq = 0.5 * (tr + np.sqrt(disc))
        s2sq = 0.5 * (tr - np.sqrt(disc))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond[idx] = np.where(s2sq <= 1e-300 * s1sq, 1e300,
                                 np.sqrt(s1sq / s2sq))
        done = res < tol
        ok[idx[done]] = True
        go = ~done & ~(np.abs(det) < 1e-300)
        idx, g, t, x, y, res = idx[go], g[go], t[go], x[go], y[go], res[go]
        f1, f2, j11, j12, j21, j22, det = (
            a[go] for a in (f1, f2, j11, j12, j21, j22, det))
        dnu = -(f1 * j22 - f2 * j12) / det
        dtau = -(j11 * f2 - j21 * f1) / det
        # backtracking keeps |nu| < 1 and the residual monotone
        improved = np.zeros(idx.size, dtype=bool)
        scale = 1.0
        for _ in range(8):
            k = np.nonzero(~improved)[0]
            if not k.size:
                break
            nu_t = x[k] + scale * dnu[k]
            tau_t = y[k] + scale * dtau[k]
            inside = np.abs(nu_t) < 0.999
            k, nu_t, tau_t = k[inside], nu_t[inside], tau_t[inside]
            if k.size:
                h1, h2 = _g_impl(code, s, g[k], t[k], nu_t, tau_t)
                better = np.maximum(np.abs(h1), np.abs(h2)) < res[k]
                k = k[better]
                improved[k] = True
                nu[idx[k]] = nu_t[better]
                tau[idx[k]] = tau_t[better]
            scale *= 0.5
        idx = idx[improved]
    if idx.size:
        f1, f2 = _g_impl(code, s, gamma[idx], theta[idx], nu[idx], tau[idx])
        ok[idx] = np.maximum(np.abs(f1), np.abs(f2)) < tol
    return (nu.reshape(shape), tau.reshape(shape), ok.reshape(shape),
            cond.reshape(shape))


def newton_fiber(variant, s, gamma, theta, nu0, tau0, tol, maxit):
    """One fiber root by ``newton_fibers``; returns (nu, tau, ok, cond)."""
    nu, tau, ok, cond = newton_fibers(variant, s, gamma, theta, nu0, tau0,
                                      tol, maxit)
    return float(nu), float(tau), bool(ok), float(cond)


def newton_fiber_batch(variant, s, gamma, theta, nu0, tau0, tol=1e-12, maxit=50):
    """``newton_fibers`` without the condition estimates: (nu, tau, ok)."""
    return newton_fibers(variant, s, gamma, theta, nu0, tau0, tol, maxit)[:3]
