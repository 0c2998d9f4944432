"""Hot numeric kernels.

Everything here evaluates the two defining functions of the perturbed
varieties in chart coordinates (s, gamma, theta, nu, tau) and runs the small
Newton loops built on them: fiber root finding and the corrector step of
pseudo-arclength continuation.  These dominate the runtime of grid traces,
fold extraction, and curve composition.

The defining pair is written once, in scalar form that also broadcasts over
numpy arrays; fiber Newton is written once, over arrays of fibers
(``newton_fibers``), and ``newton_fiber`` is its one-point face.  When numba
is installed (the optional ``numba`` extra) the scalar pair and the
continuation kernels are compiled with numba.njit; setting the environment
variable PILLOWCASE_NUMBA=0, or running without numba, selects the
pure-numpy path.
"""

from __future__ import annotations

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


@_register_jitable
def _curve_g(variant, s, breaks, cg, ct, t, nu, tau):
    gamma = _ppoly_eval(breaks, cg, t)
    theta = _ppoly_eval(breaks, ct, t)
    return _g_impl(variant, s, gamma, theta, nu, tau)


@_register_jitable
def _jac23(variant, s, breaks, cg, ct, u0, u1, u2):
    fd = 1e-6
    j = np.empty((2, 3))
    f1p, f2p = _curve_g(variant, s, breaks, cg, ct, u0 + fd, u1, u2)
    f1m, f2m = _curve_g(variant, s, breaks, cg, ct, u0 - fd, u1, u2)
    j[0, 0] = (f1p - f1m) / (2 * fd)
    j[1, 0] = (f2p - f2m) / (2 * fd)
    f1p, f2p = _curve_g(variant, s, breaks, cg, ct, u0, u1 + fd, u2)
    f1m, f2m = _curve_g(variant, s, breaks, cg, ct, u0, u1 - fd, u2)
    j[0, 1] = (f1p - f1m) / (2 * fd)
    j[1, 1] = (f2p - f2m) / (2 * fd)
    f1p, f2p = _curve_g(variant, s, breaks, cg, ct, u0, u1, u2 + fd)
    f1m, f2m = _curve_g(variant, s, breaks, cg, ct, u0, u1, u2 - fd)
    j[0, 2] = (f1p - f1m) / (2 * fd)
    j[1, 2] = (f2p - f2m) / (2 * fd)
    return j


def _tangent_impl(variant, s, breaks, cg, ct, u0, u1, u2):
    """Unit null vector of the 2x3 Jacobian (cross product of its rows)."""
    j = _jac23(variant, s, breaks, cg, ct, u0, u1, u2)
    tx = j[0, 1] * j[1, 2] - j[0, 2] * j[1, 1]
    ty = j[0, 2] * j[1, 0] - j[0, 0] * j[1, 2]
    tz = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    nrm = np.sqrt(tx * tx + ty * ty + tz * tz)
    if nrm < 1e-300:
        return 0.0, 0.0, 0.0, False
    return tx / nrm, ty / nrm, tz / nrm, True


def _corrector_impl(variant, s, breaks, cg, ct, u0, u1, u2, t0, t1, t2, tol, maxit):
    """Newton on {G = 0, tangent . (u - u_pred) = 0}; returns u and ok."""
    p0, p1, p2 = u0, u1, u2
    for _ in range(maxit):
        f1, f2 = _curve_g(variant, s, breaks, cg, ct, u0, u1, u2)
        f3 = t0 * (u0 - p0) + t1 * (u1 - p1) + t2 * (u2 - p2)
        if max(abs(f1), abs(f2)) < tol and abs(f3) < 1e-9:
            return u0, u1, u2, True
        j = _jac23(variant, s, breaks, cg, ct, u0, u1, u2)
        a00 = j[0, 0]
        a01 = j[0, 1]
        a02 = j[0, 2]
        a10 = j[1, 0]
        a11 = j[1, 1]
        a12 = j[1, 2]
        r0 = -f1
        r1 = -f2
        r2 = -f3
        det = (
            a00 * (a11 * t2 - a12 * t1)
            - a01 * (a10 * t2 - a12 * t0)
            + a02 * (a10 * t1 - a11 * t0)
        )
        if abs(det) < 1e-300:
            return u0, u1, u2, False
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
            return u0, u1, u2, False
        if abs(du0) + abs(du1) + abs(du2) > 1.0:
            return u0, u1, u2, False
        u0 += du0
        u1 += du1
        u2 += du2
    f1, f2 = _curve_g(variant, s, breaks, cg, ct, u0, u1, u2)
    return u0, u1, u2, max(abs(f1), abs(f2)) < tol


# ---------------------------------------------------------------------------
# instantiate both paths
# ---------------------------------------------------------------------------

# pure-python/numpy face (elementwise forms broadcast over arrays)
g_scalar_py = _g_impl
tangent_py = _tangent_impl
corrector_py = _corrector_impl

if NUMBA_ENABLED:
    g_scalar = _njit(cache=True)(_g_impl)
    tangent = _njit(cache=True)(_tangent_impl)
    corrector = _njit(cache=True)(_corrector_impl)
else:  # pure-numpy fallback
    g_scalar = _g_impl
    tangent = _tangent_impl
    corrector = _corrector_impl


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
