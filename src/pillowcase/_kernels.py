"""Hot numeric kernels.

Everything here evaluates the two defining functions of the perturbed
varieties in chart coordinates (s, gamma, theta, nu, tau) and runs the
Newton solves built on them, which dominate the runtime of grid traces,
fold extraction, and curve composition.

The defining pair is the straight-line kernel ``jet``: G and its exact
derivatives along any of (gamma, theta, nu, tau), by forward mode through
the reduced form in m = p q, written out in place with no nested function.
It runs on Python floats (``xp=math``) and broadcasts over numpy arrays
(``xp=numpy``), complex ones included, which the fold circles' complex-step
gradient uses.  ``_g_impl`` is its value-only face on arrays.  It is the
one implementation of the defining pair: every solver takes G and its
derivatives from it.

Every array Newton is one ``newton``: each element stops on its own, on
per-row tolerances, an optional chart guard and step rule, with the step
by Cramer's rule (``_cramer3`` at 3x3).  It solves the fiber roots
(``newton_fibers``, damped by backtracking; ``newton_fiber_batch`` is it
under its own name), the dense corrector (``corrector_batch``, with each
prediction's hyperplane row) and the fold circles (``variety.fold_locus``).
The continuation corrector and tangent run on Python floats, the corrector
solving by ``_cramer3`` too; both give the unit tangent as a tuple, or None
where the Jacobian rows are dependent.  Both correctors take their 2x3
Jacobian from one ``_curve_jac``, over ``jet`` and the spline jet
(``_spline_jet`` on floats, ``_spline_jets`` on arrays).

The curve splines that continuation runs along are fitted here too:
``cubic_fit`` is the C1 cubic interpolant with Bessel knot slopes, local
and exact on quadratics, written in the piecewise-polynomial layout
``c[k, i]`` that ``_ppoly_eval`` and ``_spline_jet`` read (the latter
without copying the coefficients).

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
    (Griewank & Walther, *Evaluating Derivatives*, 2008), with
    d exp(v)[e] = (-sinc(n) v.e, sinc(n) e + k (v.e) v) for a pure
    quaternion v, n = |v| and k = (cos n - sinc n)/n^2, which needs no series
    for small n: its rounding error is multiplied by (v.e) v = O(n^2).  A
    nonzero n is at least about 1e-162 (n^2 underflows below), so
    n + 1e-300 is n or, at n = 0, a safe divisor.
    """
    cg, sg = xp.cos(gamma), xp.sin(gamma)
    ct, st = xp.cos(theta), xp.sin(theta)
    cu, su = xp.cos(tau), xp.sin(tau)
    r = xp.sqrt(1.0 - nu * nu)
    hy, hz = r * cu, r * su
    # the exponents u = s b x h of p and v = s Im(e^{theta k} h) of q
    u1, u2, u3 = s * (sg * hz), s * (-cg * hz), s * (cg * hy - sg * nu)
    v1, v2, v3 = s * (ct * nu - st * hy), s * (ct * hy + st * nu), s * (ct * hz)
    n2 = u1 * u1 + u2 * u2 + u3 * u3
    n = xp.sqrt(n2)
    nn = n + 1e-300
    pw = xp.cos(n)
    sp = xp.sin(nn) / nn
    kp = (pw - sp) / (n2 + 1e-300) if wrt else None
    del n2, n, nn  # arrays: freed before q's are made
    n2 = v1 * v1 + v2 * v2 + v3 * v3
    n = xp.sqrt(n2)
    nn = n + 1e-300
    qw = xp.cos(n)
    sq = xp.sin(nn) / nn
    kq = (qw - sq) / (n2 + 1e-300) if wrt else None
    del n2, n, nn
    px, py, pz = sp * u1, sp * u2, sp * u3
    qx, qy, qz = sq * v1, sq * v2, sq * v3
    if not wrt:  # only the derivatives read the sinc factors again
        del sp, sq
    w = pw * qw - px * qx - py * qy - pz * qz
    mx = pw * qx + px * qw + py * qz - pz * qy
    my = pw * qy - px * qz + py * qw + pz * qx
    mz = pw * qz + px * qy - py * qx + pz * qw
    a = mx * nu + my * hy + mz * hz
    c = my * hz - mz * hy
    if code == EARRING:
        g1, g2 = 2.0 * nu * a - mx, nu * w + c
    else:
        cw = c - nu * w
        g1, g2 = 2.0 * (a * cw + w * mx), nu
    row1, row2 = [], []
    for d in wrt:
        # h moves along e = (e1, e2, e3) with nu and tau only, b along
        # (bx, by) with gamma only and e^{theta k} along (cs, sn) with theta
        # only; dm = dp q + p dq
        if d == "gamma":
            bx, by, e1, e2, e3 = -sg, cg, nu, hy, hz
        elif d == "theta":
            cs, sn, e1, e2, e3 = -st, ct, nu, hy, hz
        else:
            bx, by, cs, sn = cg, sg, ct, st
            e1, e2, e3 = ((1.0, -nu / r * cu, -nu / r * su) if d == "nu"
                          else (0.0, -hz, hy))
        if d != "theta":  # dp = d exp(u)[s b x e], times q
            x, y, z = s * (by * e3), s * (-bx * e3), s * (bx * e2 - by * e1)
            vw = u1 * x + u2 * y + u3 * z
            kv = kp * vw
            ow, x, y, z = (-sp * vw, sp * x + kv * u1, sp * y + kv * u2,
                           sp * z + kv * u3)
            dw = ow * qw - x * qx - y * qy - z * qz
            dx = ow * qx + x * qw + y * qz - z * qy
            dy = ow * qy - x * qz + y * qw + z * qx
            dz = ow * qz + x * qy - y * qx + z * qw
        if d != "gamma":  # dq = d exp(v)[s Im(e^{theta k} e)], p times it
            x, y, z = (s * (cs * e1 - sn * e2), s * (cs * e2 + sn * e1),
                       s * (cs * e3))
            vw = v1 * x + v2 * y + v3 * z
            kv = kq * vw
            ow, x, y, z = (-sq * vw, sq * x + kv * v1, sq * y + kv * v2,
                           sq * z + kv * v3)
            ow, x, y, z = (pw * ow - px * x - py * y - pz * z,
                           pw * x + px * ow + py * z - pz * y,
                           pw * y - px * z + py * ow + pz * x,
                           pw * z + px * y - py * x + pz * ow)
            if d == "theta":
                dw, dx, dy, dz = ow, x, y, z
            else:
                dw, dx, dy, dz = dw + ow, dx + x, dy + y, dz + z
        da = dx * nu + dy * hy + dz * hz
        dc = dy * hz - dz * hy
        if d == "nu" or d == "tau":
            da = da + (mx * e1 + my * e2 + mz * e3)
            dc = dc + (my * e3 - mz * e2)
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
# cubic splines: local fit and evaluation in the piecewise-polynomial layout
# c[k, i] (coefficient of (x - breaks[i])^(3 - k) on interval i)
# ---------------------------------------------------------------------------

def cubic_fit(x, y):
    """Coefficients c[k, i, ...] of the C1 cubic spline through
    (x[i], y[i, ...]) with Bessel knot slopes; every column of ``y`` is
    fitted on its own.

    Each interior knot takes the slope of the parabola through it and its
    two neighbours, each end knot that of the end parabola (de Boor, *A
    Practical Guide to Splines*, ch. IV), so the fit is local and exact on
    quadratics; two knots give the line.  Raises ``ValueError`` unless the
    knots are finite and strictly increasing.
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
    else:
        inner = ((dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
                 / (dxr[:-1] + dxr[1:]))
        s = np.concatenate([2 * slope[:1] - inner[:1], inner,
                            2 * slope[-1:] - inner[-1:]])
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


def newton(system, x, tol, maxit, inside=None, step=None):
    """Newton on many square systems in 2 or 3 unknowns, each element on
    its own (Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch.
    2-3); updates ``x``, one flat array per unknown, in place and returns
    the mask of converged elements.

    ``system(i, xi, jac)`` gives the residual rows at the elements ``i``,
    whose unknowns are ``xi``, and the Jacobian entries row by row (floats
    or arrays) only when ``jac`` is true: both at the first iteration, then
    the rows (unless the last step gave them) and the Jacobian where an
    element steps.  An element converges once |row r| < ``tol[r]`` for all
    r, the verdict after ``maxit`` steps too.  It fails, keeping its
    iterate, outside ``inside(xi)`` (the start too), at det J zero or NaN,
    or where ``step(i, xi, dx, rows)`` refuses the Cramer step dx: it gives
    the mask of the elements that move, their new iterates (None: xi + dx)
    and rows (None: not known), by element.
    """
    ok = np.zeros(x[0].size, dtype=bool)
    idx = np.arange(x[0].size)  # elements still iterating
    f = None  # the rows at idx, where the last step gave them
    for it in range(maxit + 1):
        xi = [v[idx] for v in x]
        if inside is not None:
            keep = inside(xi)
            if not keep.all():  # an all-true mask would only copy
                idx, xi = idx[keep], [v[keep] for v in xi]
                f = None if f is None else [r[keep] for r in f]
        if not idx.size:
            break
        if f is None:
            f, j = system(idx, xi, not it)
        small = np.logical_and.reduce([np.abs(r) < t for r, t in zip(f, tol)])
        if it == maxit:
            ok[idx] = small
            break
        ok[idx[small]] = True
        if it:  # the rows alone so far: the Jacobian where an element steps
            live = ~small
            idx, small = idx[live], small[live]
            if not idx.size:
                break
            xi, f = [v[live] for v in xi], [r[live] for r in f]
            j = system(idx, xi, True)[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(x) == 2:
                (f1, f2), (j11, j12, j21, j22) = f, j
                det = j11 * j22 - j12 * j21
                dx = [-(f1 * j22 - f2 * j12) / det,
                      -(j11 * f2 - j21 * f1) / det]
            else:
                det, *num = _cramer3(*j, -f[0], -f[1], -f[2])
                dx = [d / det for d in num]
            go = ~small & (np.abs(det) >= 1e-300)
        if not go.all():
            idx, xi, dx, f = (idx[go], [v[go] for v in xi],
                              [d[go] for d in dx], [r[go] for r in f])
        took, xn, f = step(idx, xi, dx, f) if step else (None, None, None)
        if xn is None:
            xn = [a + d for a, d in zip(xi, dx)]
        if took is not None and not took.all():
            idx, xn = idx[took], [a[took] for a in xn]
            f = None if f is None else [r[took] for r in f]
        for v, a in zip(x, xn):
            v[idx] = a
    return ok


def corrector(code, s, breaks, cg, ct, u0, u1, u2, t0, t1, t2, tol, maxit):
    """Newton on {G = 0, tangent . (u - u_pred) = 0}, failing at any
    iterate with |nu| > 0.999, the prediction included.

    Returns (u0, u1, u2, ok, tangent): the unit tangent at the returned
    point, from the Jacobian its last iteration evaluated there, or None
    when it degenerates or the correction failed.
    """
    s, u0, u1, u2, t0, t1, t2 = map(float, (s, u0, u1, u2, t0, t1, t2))
    p0, p1, p2 = u0, u1, u2
    for it in range(maxit + 1):
        if abs(u1) > 0.999:
            return u0, u1, u2, False, None
        f1, f2, j = _curve_jac(code, s, _spline_jet, math, breaks, cg, ct,
                               u0, u1, u2)
        if it == maxit:
            return u0, u1, u2, max(abs(f1), abs(f2)) < tol, _null(j)
        f3 = t0 * (u0 - p0) + t1 * (u1 - p1) + t2 * (u2 - p2)
        if max(abs(f1), abs(f2)) < tol and abs(f3) < 1e-9:
            return u0, u1, u2, True, _null(j)
        det, du0, du1, du2 = _cramer3(*j, t0, t1, t2, -f1, -f2, -f3)
        if abs(det) < 1e-300:
            return u0, u1, u2, False, None
        du0, du1, du2 = du0 / det, du1 / det, du2 / det
        if abs(du0) + abs(du1) + abs(du2) > 1.0:
            return u0, u1, u2, False, None
        u0, u1, u2 = u0 + du0, u1 + du1, u2 + du2


def corrector_batch(code, s, breaks, cg, ct, p0, p1, p2, n0, n1, n2, tol,
                    maxit):
    """``corrector`` over arrays: ``newton`` on {G = 0, n . (u - p) = 0}
    from every prediction p = (p0, p1, p2), with its own hyperplane normal n.

    Each element takes the scalar corrector's steps and exits: it stops as
    converged once max|G| < ``tol`` and |n . (u - p)| < 1e-9, the verdict
    after ``maxit`` steps too (a step leaves that linear row at rounding
    level), and as failed at an iterate with |nu| above 0.999, a singular
    3x3 system or a step over 1 in the 1-norm.  G is evaluated with its 2x3
    Jacobian at the first iteration, where a prediction is seldom
    converged, and alone after.  Returns (u0, u1, u2, ok) arrays; a failed
    element keeps its last iterate.
    """
    s = float(s)
    p0, p1, p2, n0, n1, n2 = (np.asarray(x, dtype=float)
                              for x in (p0, p1, p2, n0, n1, n2))

    def system(i, x, jac):
        f3 = (n0[i] * (x[0] - p0[i]) + n1[i] * (x[1] - p1[i])
              + n2[i] * (x[2] - p2[i]))
        if jac:
            *g, j = _curve_jac(code, s, _spline_jets, np, breaks, cg, ct, *x)
            return (*g, f3), j + (n0[i], n1[i], n2[i])
        gamma, _, theta, _ = _spline_jets(breaks, cg, ct, x[0])
        return (*_g_impl(code, s, gamma, theta, x[1], x[2]), f3), None

    u = [p0.copy(), p1.copy(), p2.copy()]
    ok = newton(system, u, (tol, tol, 1e-9), maxit,
                lambda x: np.abs(x[1]) <= 0.999,
                lambda i, x, d, f: (np.abs(d[0]) + np.abs(d[1])
                                    + np.abs(d[2]) <= 1.0, None, None))
    return (*u, ok)


def g_pair(variant, s, gamma, theta, nu, tau):
    """Vectorized evaluation of the defining pair; broadcasts all arguments."""
    code = variant_code(variant)
    gamma, theta, nu, tau = np.broadcast_arrays(*(
        np.asarray(v, dtype=float) for v in (gamma, theta, nu, tau)))
    g1, g2 = _g_impl(code, float(s), gamma, theta, nu, tau)
    return np.asarray(g1, dtype=float), np.asarray(g2, dtype=float) + np.zeros_like(gamma)


# ---------------------------------------------------------------------------
# Newton refinement of fiber roots in (nu, tau)
# ---------------------------------------------------------------------------

# the scales of ``newton_fibers``' trial steps, one row per trial, by
# evaluation: the full step, then its 7 halvings
_TRIAL_SCALES = (np.ones((1, 1)), 0.5 ** np.arange(1.0, 8.0)[:, None])


def newton_fibers(variant, s, gamma, theta, nu0, tau0, tol=1e-13, maxit=50):
    """Damped ``newton`` on (nu, tau) over many fibers at once.

    Returns (nu, tau, ok) arrays of the broadcast input shape.  Each element
    steps by the exact Jacobian in (nu, tau) from ``jet`` to the first of
    the full step and its 7 halvings, in that order, that stays inside
    |nu| < 0.999 and lowers the residual.  The full steps of all elements
    are one ``_g_impl`` evaluation, and the 7 halvings of every element
    that the full step leaves refused one more, so an iteration evaluates
    G at most twice past its Jacobian.  An element stops when its residual
    is below ``tol`` (ok), its Jacobian is singular or no trial step
    improves (not ok, last accepted iterate kept), or after ``maxit`` steps.
    Each element's iterates are its own: a batch gives every element the
    bits it gets alone.
    """
    code = variant_code(variant)
    s = float(s)
    gamma, theta, nu, tau = np.broadcast_arrays(*(
        np.asarray(v, dtype=float) for v in (gamma, theta, nu0, tau0)))
    shape = gamma.shape
    gamma, theta, x = gamma.ravel(), theta.ravel(), [nu.flatten(),
                                                     tau.flatten()]

    def system(i, x, jac):  # every step gives the residual: jac is true
        f1, f2, (r1, r2) = jet(code, s, gamma[i], theta[i], *x, ("nu", "tau"))
        return (f1, f2), r1 + r2

    def backtrack(i, x, d, f):
        res = np.maximum(np.abs(f[0]), np.abs(f[1]))
        improved = np.zeros(i.size, dtype=bool)
        out = np.empty((4, i.size))  # the accepted trial points and residuals
        k = np.arange(i.size)  # the elements with no accepted trial yet
        for scale in _TRIAL_SCALES:  # the full step, then its halvings
            # trial (row r, element c) is the step of element k[c] scaled
            # by scale[r]; np.nonzero runs row by row, so the first hit of
            # an element is its largest improving step
            nu_t = x[0][k] + scale * d[0][k]
            tau_t = x[1][k] + scale * d[1][k]
            r, c = np.nonzero(np.abs(nu_t) < 0.999)
            if c.size:
                nu_t, tau_t = nu_t[r, c], tau_t[r, c]
                h1, h2 = _g_impl(code, s, gamma[i[k[c]]], theta[i[k[c]]],
                                 nu_t, tau_t)
                hit = np.flatnonzero(np.maximum(np.abs(h1), np.abs(h2))
                                     < res[k[c]])
                c, first = np.unique(c[hit], return_index=True)
                hit = hit[first]
                improved[k[c]] = True
                out[:, k[c]] = nu_t[hit], tau_t[hit], h1[hit], h2[hit]
                k = k[~improved[k]]
            if not k.size:
                break
        return improved, out[:2], out[2:]

    ok = newton(system, x, (tol, tol), maxit, step=backtrack)
    return x[0].reshape(shape), x[1].reshape(shape), ok.reshape(shape)


def newton_fiber(variant, s, gamma, theta, nu0, tau0, tol, maxit):
    """One fiber root by ``newton_fibers``; returns (nu, tau, ok)."""
    nu, tau, ok = newton_fibers(variant, s, gamma, theta, nu0, tau0, tol,
                                maxit)
    return float(nu), float(tau), bool(ok)


def newton_fiber_batch(variant, s, gamma, theta, nu0, tau0, tol=1e-13, maxit=50):
    """``newton_fibers`` for the seeded starts, by a name the tracer pins."""
    return newton_fibers(variant, s, gamma, theta, nu0, tau0, tol, maxit)
