"""Hot numeric kernels.

Everything here evaluates the two defining functions of the perturbed
varieties in chart coordinates (s, gamma, theta, nu, tau) and runs the small
Newton loops built on them: fiber root finding and the corrector step of
pseudo-arclength continuation.  These dominate the runtime of grid traces,
fold extraction, and curve composition.

The defining pair is the straight-line kernel ``jet``: G and its exact
derivatives along any of (gamma, theta, nu, tau), by forward mode through
the reduced form in m = p q.  It runs on Python floats (``xp=math``) and
broadcasts over numpy arrays (``xp=numpy``), complex ones included, which
the fold circles' complex-step gradient uses.  ``_g_impl`` is its value-only
face on arrays.  It is the one implementation of the defining pair: every
solver takes G and its derivatives from it.  Fiber Newton is written once,
over arrays of fibers (``newton_fibers``), with its (nu, tau) Jacobian from
``jet``; ``newton_fiber_batch``, its face without condition estimates,
starts every fiber of ``variety.solve_fibers`` from its s = 0 roots.  The
continuation corrector and tangent take their 2x4 Jacobian from
``jet(..., DIRECTIONS, math)``; both run on Python floats and give the unit
tangent as a tuple, or None where the Jacobian rows are dependent.
``corrector_batch`` is the corrector over arrays of predictions, each with
its own hyperplane normal.  Both faces take their 2x3 Jacobian from one
``_curve_jac``, over ``jet`` and the spline jet (``_spline_jet`` on floats,
``_spline_jets`` on arrays), and the batch takes the scalar corrector's
steps and exits element by element.  Every 3x3 Newton step,
the corrector's (both faces) and the fold circles' (``variety.fold_locus``),
goes through one Cramer solve, ``_cramer3``, elementwise on arrays;
``_solve3`` is its float face.

The curve splines that continuation runs along are fitted here too:
``cubic_fit`` is the not-a-knot cubic interpolant, written in the
piecewise-polynomial layout ``c[k, i]`` that ``_ppoly_eval`` and
``_spline_jet`` read (the latter without copying the coefficients), and its
tridiagonal solve follows LAPACK ``dgtsv`` step for step, so its
coefficients equal ``scipy.interpolate.CubicSpline``'s bit for bit without
importing scipy.

The variant is passed by name, ``EARRING`` ("earring") or ``BYPASS``
("bypass"), the strings ``words`` uses too; ``variant_code`` checks that a
name is one of the two and returns it.

Everything runs on numpy and Python floats.  ``NUMBA_ENABLED`` (always
False), the aliases ``g_scalar`` and ``g_scalar_py`` of ``_g_impl`` and the
one-point face ``newton_fiber``, which no solver calls, stay because the
benchmark in ``perfbench/`` reads them.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .quat import mul_parts

NUMBA_ENABLED = False

EARRING = "earring"
BYPASS = "bypass"


def variant_code(variant) -> str:
    """The variant itself, once checked to be one of the two."""
    if variant != EARRING and variant != BYPASS:
        raise ValueError(f"unknown variant {variant!r}")
    return variant


# ---------------------------------------------------------------------------
# the defining pair and its derivatives, on floats or arrays
# ---------------------------------------------------------------------------

def _qexp(v, derivs, xp):
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
    """The defining pair at (s, gamma, theta, nu, tau) and its derivatives.

    Returns (g1, g2, (row1, row2)), where row_i holds dg_i along each name
    of ``wrt`` in turn, a subset of "gamma", "theta", "nu", "tau".  With
    ``xp=math`` it runs on Python floats; with ``xp=numpy`` it broadcasts
    over arrays.  A derivative that is constant (the second bypass row) is
    a Python float.

    With h = (nu, r cos tau, r sin tau), r = sqrt(1 - nu^2), and
    m = p q = (w, mx, my, mz), p = exp(s Im(b h)), q = exp(s Im(e^{theta k} h)),
    b = cos gamma i + sin gamma j, the pair reduces to a = m.h and
    c = (m x h)_x (Im m written as m):

    - earring: G = (Re(p q h^- a h^-), Re(p q h^- a))
      = (2 nu a - mx, nu w + c);
    - bypass: G' = (Re(q^- p^- h p q h^- a), Re(h^- a)) = ((t x h)_x, nu)
      with t = conj(m) h m, that is (2 a (c - nu w) + 2 w mx, nu).

    The derivatives are forward mode through that straight-line code
    (Griewank & Walther, *Evaluating Derivatives*, 2008).
    """
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
    p, dp = _qexp(u, wrt, xp)
    q, dq = _qexp(v, wrt, xp)
    w, mx, my, mz = mul_parts(*p, *q)
    a = mx * nu + my * hy + mz * hz
    c = my * hz - mz * hy
    if code == EARRING:
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
            dm = mul_parts(*dp(bxh(-sg, cg, nu, hy, hz)), *q)
        elif d == "theta":
            dh = None
            dm = mul_parts(*p, *dq(rot(-st, ct, nu, hy, hz)))
        else:
            dh = ((1.0, -nu / r * cu, -nu / r * su) if d == "nu"
                  else (0.0, -hz, hy))
            m1 = mul_parts(*dp(bxh(cg, sg, *dh)), *q)
            m2 = mul_parts(*p, *dq(rot(ct, st, *dh)))
            dm = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
        dw, dx, dy, dz = dm
        da = dx * nu + dy * hy + dz * hz
        dc = dy * hz - dz * hy
        if dh is not None:
            da = da + (mx * dh[0] + my * dh[1] + mz * dh[2])
            dc = dc + (my * dh[2] - mz * dh[1])
        if code == EARRING:
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


def _g_impl(variant, s, gamma, theta, nu, tau):
    """The defining pair (g1, g2): ``jet`` through numpy, without
    derivatives; broadcasts over arrays."""
    return jet(variant, s, gamma, theta, nu, tau)[:2]


g_scalar = g_scalar_py = _g_impl

DIRECTIONS = ("gamma", "theta", "nu", "tau")


# ---------------------------------------------------------------------------
# cubic splines: not-a-knot fit and evaluation in the piecewise-polynomial
# layout c[k, i] (coefficient of (x - breaks[i])^(3 - k) on interval i)
# ---------------------------------------------------------------------------

def _gtsv(dl, d, du, b):
    """Solution of the tridiagonal system with sub-, main and super-diagonal
    ``dl``, ``d``, ``du`` for the (n, m) right-hand side ``b``.

    Gaussian elimination with partial pivoting (rows i and i + 1 swap where
    |d_i| < |dl_i|), then back substitution, in the operation order of
    LAPACK ``dgtsv``; each column of ``b`` sees the same float operations as
    a one-column solve.
    """
    dl, d, du = dl.tolist(), d.tolist(), du.tolist()
    n = len(d)
    cols = b.T.tolist()
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for col in cols:
                col[i + 1] = col[i + 1] - fact * col[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:  # the swapped row gains a second super-diagonal
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for col in cols:
                temp = col[i]
                col[i] = col[i + 1]
                col[i + 1] = temp - fact * col[i + 1]
    for col in cols:
        col[n - 1] = col[n - 1] / d[n - 1]
        col[n - 2] = (col[n - 2] - du[n - 2] * col[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - du[i] * col[i + 1] - dl[i] * col[i + 2]) / d[i]
    return np.array(cols).T


def cubic_fit(x, y):
    """Coefficients c[k, i, ...] of the not-a-knot cubic spline through
    (x[i], y[i, ...]); every column of ``y`` is fitted on its own.

    The knot slopes solve the tridiagonal system of C2 continuity with
    not-a-knot end rows (de Boor, *A Practical Guide to Splines*, ch. IV),
    in the form and operation order of ``scipy.interpolate.CubicSpline``;
    two knots give the line, three the parabola through them.  Raises
    ``ValueError`` unless the knots are finite and strictly increasing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    dx = np.diff(x)
    if n < 2 or len(y) != n or not (np.all(np.isfinite(x))
                                     and np.all(dx > 0)):
        raise ValueError("spline knots must be at least two, finite and "
                         "strictly increasing, with one value row each")
    dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    if n == 2:
        s = np.stack([slope[0], slope[0]])
    elif n == 3:
        s1 = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
        s = np.stack([2 * slope[0] - s1, s1, 2 * slope[1] - s1])
    else:
        d = np.empty(n)
        du = np.empty(n - 1)
        dl = np.empty(n - 1)
        b = np.empty_like(y)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        du[1:] = dx[:-1]
        dl[:-1] = dx[1:]
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        # not-a-knot rows; dx[0] ** 2 is a scalar power, as in scipy
        d[0] = dx[1]
        du[0] = h = x[2] - x[0]
        b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0]
                + dx[0] ** 2 * slope[1]) / h
        d[-1] = dx[-2]
        dl[-1] = h = x[-1] - x[-3]
        b[-1] = (dx[-1] ** 2 * slope[-2]
                 + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
        s = _gtsv(dl, d, du, b.reshape(n, -1)).reshape(b.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _ppoly_eval(breaks, c, x):
    """The spline with coefficients ``c`` at x (a float or an array), on the
    interval of each x; the end polynomials extend past the breaks."""
    i = np.clip(np.searchsorted(breaks, x) - 1, 0, len(breaks) - 2)
    dx = x - breaks[i]
    return ((c[0, i] * dx + c[1, i]) * dx + c[2, i]) * dx + c[3, i]


def _spline_jet(breaks, cg, ct, t):
    """Values and t-derivatives of both curve splines at t:
    (gamma, gamma', theta, theta'), over one interval search.

    The search and the coefficient reads go through memoryviews of the
    arrays, which copy nothing and give Python floats; ``bisect_left``
    finds the interval ``np.searchsorted`` would.
    """
    b = memoryview(breaks)
    i = min(max(bisect_left(b, t) - 1, 0), len(b) - 2)
    dx = float(t - b[i])
    g = memoryview(cg)
    a0, a1, a2, a3 = g[0, i], g[1, i], g[2, i], g[3, i]
    g = memoryview(ct)
    b0, b1, b2, b3 = g[0, i], g[1, i], g[2, i], g[3, i]
    return (((a0 * dx + a1) * dx + a2) * dx + a3,
            (3.0 * a0 * dx + 2.0 * a1) * dx + a2,
            ((b0 * dx + b1) * dx + b2) * dx + b3,
            (3.0 * b0 * dx + 2.0 * b1) * dx + b2)


def _spline_jets(breaks, cg, ct, t):
    """``_spline_jet`` over an array of t: (gamma, gamma', theta, theta')
    arrays, on the intervals ``_ppoly_eval`` picks."""
    i = np.clip(np.searchsorted(breaks, t) - 1, 0, len(breaks) - 2)
    dx = t - breaks[i]
    a0, a1, a2, a3 = cg[:, i]
    b0, b1, b2, b3 = ct[:, i]
    return (((a0 * dx + a1) * dx + a2) * dx + a3,
            (3.0 * a0 * dx + 2.0 * a1) * dx + a2,
            ((b0 * dx + b1) * dx + b2) * dx + b3,
            (3.0 * b0 * dx + 2.0 * b1) * dx + b2)


# ---------------------------------------------------------------------------
# pseudo-arclength continuation over a curve: unknowns u = (t, nu, tau)
# ---------------------------------------------------------------------------

def _curve_jac(code, s, spline, xp, breaks, cg, ct, u0, u1, u2):
    """The defining pair at u = (t, nu, tau) and its 2x3 Jacobian in u, rows
    flattened, with the curve from ``spline``: ``_spline_jet`` on floats
    (``xp=math``) or ``_spline_jets`` over arrays (``xp=numpy``), where an
    entry of J that is constant is a float."""
    gamma, dgamma, theta, dtheta = spline(breaks, cg, ct, u0)
    f1, f2, (j1, j2) = jet(code, s, gamma, theta, u1, u2, DIRECTIONS, xp)
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
    """Unit tangent (t0, t1, t2) of the solution curve at u, or None where
    the Jacobian rows are dependent."""
    return _null(_curve_jac(code, s, _spline_jet, math, breaks, cg, ct,
                             u0, u1, u2)[2])


def _cramer3(a00, a01, a02, a10, a11, a12, a20, a21, a22, r0, r1, r2):
    """det A and the three Cramer numerators of the 3x3 system A x = r,
    rows of A given in order; on floats or elementwise over arrays."""
    det = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    return det, (
        r0 * (a11 * a22 - a12 * a21)
        - a01 * (r1 * a22 - a12 * r2)
        + a02 * (r1 * a21 - a11 * r2)
    ), (
        a00 * (r1 * a22 - a12 * r2)
        - r0 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * r2 - r1 * a20)
    ), (
        a00 * (a11 * r2 - r1 * a21)
        - a01 * (a10 * r2 - r1 * a20)
        + r0 * (a10 * a21 - a11 * a20)
    )


def _solve3(*system):
    """The solution of the 3x3 system A x = r by Cramer's rule (arguments as
    for ``_cramer3``), or None when det A vanishes."""
    det, x0, x1, x2 = _cramer3(*system)
    if abs(det) < 1e-300:
        return None
    return x0 / det, x1 / det, x2 / det


def corrector(code, s, breaks, cg, ct, u0, u1, u2, t0, t1, t2, tol, maxit):
    """Newton on {G = 0, tangent . (u - u_pred) = 0}.

    Returns (u0, u1, u2, ok, tangent): the unit tangent at the returned
    point, from the Jacobian its last iteration evaluated there, or None
    when it degenerates or the correction failed.
    """
    s, u0, u1, u2, t0, t1, t2 = map(float, (s, u0, u1, u2, t0, t1, t2))
    p0, p1, p2 = u0, u1, u2
    for it in range(maxit + 1):
        f1, f2, j = _curve_jac(code, s, _spline_jet, math, breaks, cg, ct,
                               u0, u1, u2)
        if it == maxit:
            return u0, u1, u2, max(abs(f1), abs(f2)) < tol, _null(j)
        f3 = t0 * (u0 - p0) + t1 * (u1 - p1) + t2 * (u2 - p2)
        if max(abs(f1), abs(f2)) < tol and abs(f3) < 1e-9:
            return u0, u1, u2, True, _null(j)
        step = _solve3(*j, t0, t1, t2, -f1, -f2, -f3)
        if step is None:
            return u0, u1, u2, False, None
        du0, du1, du2 = step
        if abs(u1 + du1) > 0.999:
            return u0, u1, u2, False, None
        if abs(du0) + abs(du1) + abs(du2) > 1.0:
            return u0, u1, u2, False, None
        u0 += du0
        u1 += du1
        u2 += du2


def corrector_batch(code, s, breaks, cg, ct, p0, p1, p2, n0, n1, n2, tol,
                    maxit):
    """``corrector`` over arrays: Newton on {G = 0, n . (u - p) = 0} from
    every prediction p = (p0, p1, p2), with its own hyperplane normal n.

    Each element takes the scalar corrector's steps and exits: it stops as
    converged once max|G| < ``tol`` and |n . (u - p)| < 1e-9, as failed where
    the 3x3 system is singular or a step would take |nu| above 0.999 or
    move more than 1 in the 1-norm, and after ``maxit`` steps it is
    converged if max|G| < ``tol``.  The 3x3 solve is ``_cramer3`` elementwise.  Returns
    (u0, u1, u2, ok) arrays; a failed element keeps its last iterate.
    """
    s = float(s)
    p0, p1, p2, n0, n1, n2 = (np.asarray(x, dtype=float)
                              for x in (p0, p1, p2, n0, n1, n2))
    u0, u1, u2 = p0.copy(), p1.copy(), p2.copy()
    ok = np.zeros(u0.shape, dtype=bool)
    idx = np.arange(u0.size)  # elements still iterating
    for it in range(maxit + 1):
        if not idx.size:
            break
        x0, x1, x2 = u0[idx], u1[idx], u2[idx]
        f1, f2, j = _curve_jac(code, s, _spline_jets, np, breaks, cg, ct,
                               x0, x1, x2)
        small = np.maximum(np.abs(f1), np.abs(f2)) < tol
        if it == maxit:
            ok[idx] = small
            break
        m0, m1, m2 = n0[idx], n1[idx], n2[idx]
        f3 = m0 * (x0 - p0[idx]) + m1 * (x1 - p1[idx]) + m2 * (x2 - p2[idx])
        done = small & (np.abs(f3) < 1e-9)
        ok[idx[done]] = True
        det, d0, d1, d2 = _cramer3(*j, m0, m1, m2, -f1, -f2, -f3)
        with np.errstate(divide="ignore", invalid="ignore"):
            d0, d1, d2 = d0 / det, d1 / det, d2 / det
            go = (~done & (np.abs(det) >= 1e-300)
                  & (np.abs(x1 + d1) <= 0.999)
                  & (np.abs(d0) + np.abs(d1) + np.abs(d2) <= 1.0))
        idx = idx[go]
        u0[idx] = x0[go] + d0[go]
        u1[idx] = x1[go] + d1[go]
        u2[idx] = x2[go] + d2[go]
    return u0, u1, u2, ok


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

def newton_fibers(variant, s, gamma, theta, nu0, tau0, tol=1e-13, maxit=50):
    """Damped Newton on (nu, tau) over many fibers at once.

    Returns (nu, tau, ok, cond) arrays of the broadcast input shape.  Each
    element iterates on its own: the exact Jacobian in (nu, tau) from
    ``jet``, then a full step halved up to 8 times until the residual drops;
    a trial step that leaves the region |nu| < 0.999 is rejected.  An
    element stops when its residual is below ``tol`` (ok), its Jacobian is
    singular or no trial step improves (not ok, last accepted iterate kept),
    or after ``maxit`` steps.  ``cond`` is the 2x2 Jacobian condition
    estimate at the last iterate, used upstream for fold detection.
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
    idx = np.arange(nu.size)  # elements still iterating
    for _ in range(maxit):
        if not idx.size:
            break
        g = gamma[idx]
        t = theta[idx]
        x = nu[idx]
        y = tau[idx]
        f1, f2, ((j11, j12), (j21, j22)) = jet(code, s, g, t, x, y,
                                               ("nu", "tau"))
        res = np.maximum(np.abs(f1), np.abs(f2))
        det = j11 * j22 - j12 * j21
        tr = j11 * j11 + j12 * j12 + j21 * j21 + j22 * j22
        disc = tr * tr - 4.0 * det * det
        disc = np.where(disc < 0.0, 0.0, disc)
        s1sq = 0.5 * (tr + np.sqrt(disc))
        s2sq = 0.5 * (tr - np.sqrt(disc))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond[idx] = np.where(s2sq <= 1e-300 * s1sq, 1e300,
                                 np.sqrt(s1sq / s2sq))
            # the step before the filter below: a constant Jacobian entry
            # (the second bypass row) is a float, which cannot be indexed
            dnu = -(f1 * j22 - f2 * j12) / det
            dtau = -(j11 * f2 - j21 * f1) / det
        done = res < tol
        ok[idx[done]] = True
        go = ~done & ~(np.abs(det) < 1e-300)
        idx, g, t, x, y, res, dnu, dtau = (
            a[go] for a in (idx, g, t, x, y, res, dnu, dtau))
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


def newton_fiber_batch(variant, s, gamma, theta, nu0, tau0, tol=1e-13, maxit=50):
    """``newton_fibers`` without the condition estimates: (nu, tau, ok)."""
    return newton_fibers(variant, s, gamma, theta, nu0, tau0, tol, maxit)[:3]
