"""The analytic Jacobian of the defining pair and the solvers built on it,
against central differences and against the finite-difference versions
they replaced (kept here as references)."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from pillowcase import _kernels as K
from pillowcase import compose as X
from pillowcase import curves as C
from pillowcase import projection as P
from pillowcase import variety as V

S = 0.05
CODES = (K.EARRING, K.BYPASS)


def _points(rng, n):
    """n random (s, gamma, theta, nu, tau), among them s = 0 and points where
    b = (cos gamma, sin gamma, 0) is parallel to h, so |v_p| = 0."""
    pts = np.column_stack([rng.uniform(-0.2, 0.2, n),
                           rng.uniform(0, 2 * np.pi, (n, 2)),
                           rng.uniform(-0.5, 0.5, n),
                           rng.uniform(0, 2 * np.pi, n)])
    pts[:50, 0] = 0.0
    # gamma = pi/2, nu = cos gamma, tau = 0 gives h = b exactly
    pts[50:100, 1] = np.pi / 2
    pts[50:100, 3] = np.cos(np.pi / 2)
    pts[50:100, 4] = 0.0
    return pts


@pytest.mark.parametrize("code", CODES)
def test_g_jac_value_matches_g_impl(code):
    for s, g, t, nu, tau in _points(np.random.default_rng(0), 500):
        g1, g2, _ = K.jet(code, s, g, t, nu, tau, K.DIRECTIONS, math)
        a1, a2 = K._g_impl(code, s, g, t, nu, tau)
        assert abs(g1 - a1) <= 1e-15 and abs(g2 - a2) <= 1e-15


def test_bypass_second_row_is_exact():
    for s, g, t, nu, tau in _points(np.random.default_rng(1), 200):
        _, g2, jac = K.jet(K.BYPASS, s, g, t, nu, tau, K.DIRECTIONS, math)
        assert g2 == nu
        assert jac[1] == (0.0, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("code", CODES)
def test_g_jac_matches_central_differences(code):
    pts = _points(np.random.default_rng(2), 2000)
    # |v_p| is exactly zero at the parallel points
    s, g, _, nu, tau = pts[50]
    r = np.sqrt(1 - nu * nu)
    assert (np.cos(g) * r * np.cos(tau) - np.sin(g) * nu) == 0.0
    fd = 1e-6
    fd_jac = np.empty((len(pts), 2, 4))
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = fd
        plus = K._g_impl(code, pts[:, 0], *(pts[:, 1:] + dx).T)
        minus = K._g_impl(code, pts[:, 0], *(pts[:, 1:] - dx).T)
        for row in range(2):
            fd_jac[:, row, k] = (plus[row] - minus[row]) / (2 * fd)
    jac = np.array([K.jet(code, *p, K.DIRECTIONS, math)[2] for p in pts])
    assert np.max(np.abs(jac - fd_jac)) <= 1e-8


@pytest.mark.parametrize("code", CODES)
def test_fold_det_gradient_matches_central_differences(code):
    """The complex-step gradient of det dG/d(nu, tau) against a central
    difference of the exact det, at the fold samples and off them."""
    fd = 1e-6
    circles = V.fold_locus(code, 0.2, n_samples=24)
    pts = np.array([[p.gamma, p.theta, p.nu, p.tau]
                    for c in circles for p in c.points])
    pts = np.concatenate([pts, pts + [0.05, -0.03, 0.02, 0.0]])
    x, tau = pts[:, :3].T, pts[:, 3]
    _, rows = V._fold_system(code, 0.2, *x, tau)
    for k in range(3):
        dx = np.zeros((3, 1))
        dx[k] = fd
        plus = V._fold_system(code, 0.2, *(x + dx), tau)[0][2]
        minus = V._fold_system(code, 0.2, *(x - dx), tau)[0][2]
        assert np.max(np.abs(rows[6 + k] - (plus - minus) / (2 * fd))) < 1e-6


def test_spline_jet_matches_scipy():
    x = np.concatenate([[0.0], np.cumsum(np.random.default_rng(3)
                                          .uniform(0.01, 0.1, 60))])
    sg = CubicSpline(x, np.sin(3 * x) + x)
    st = CubicSpline(x, np.cos(5 * x))
    cg, ct = np.ascontiguousarray(sg.c), np.ascontiguousarray(st.c)
    # interior points, the breaks themselves, and a little past both ends
    for t in np.concatenate([np.linspace(-0.01, x[-1] + 0.01, 301), x]):
        g, dg, th, dth = K._spline_jet(sg.x, cg, ct, t)
        assert g == K._ppoly_eval(sg.x, cg, t)
        assert th == K._ppoly_eval(sg.x, ct, t)
        assert abs(g - float(sg(t, 0))) < 1e-13
        assert abs(dg - float(sg(t, 1))) < 1e-12
        assert abs(th - float(st(t, 0))) < 1e-13
        assert abs(dth - float(st(t, 1))) < 1e-12


# ---------------------------------------------------------------------------
# the replaced finite-difference corrector, kept as the reference
# ---------------------------------------------------------------------------

def _ref_curve_g(code, s, breaks, cg, ct, t, nu, tau):
    return K._g_impl(code, s, K._ppoly_eval(breaks, cg, t),
                     K._ppoly_eval(breaks, ct, t), nu, tau)


def _ref_jac23(code, s, breaks, cg, ct, u0, u1, u2):
    fd = 1e-6
    j = np.empty((2, 3))
    u = np.array([u0, u1, u2])
    for k in range(3):
        du = np.zeros(3)
        du[k] = fd
        fp = _ref_curve_g(code, s, breaks, cg, ct, *(u + du))
        fm = _ref_curve_g(code, s, breaks, cg, ct, *(u - du))
        j[0, k] = (fp[0] - fm[0]) / (2 * fd)
        j[1, k] = (fp[1] - fm[1]) / (2 * fd)
    return j


def _ref_corrector(code, s, breaks, cg, ct, u0, u1, u2, t0, t1, t2, tol,
                   maxit):
    p = np.array([u0, u1, u2])
    u = p.copy()
    tang = np.array([t0, t1, t2])
    for _ in range(maxit):
        f1, f2 = _ref_curve_g(code, s, breaks, cg, ct, *u)
        f3 = float(tang @ (u - p))
        if max(abs(f1), abs(f2)) < tol and abs(f3) < 1e-9:
            return u, True
        a = np.vstack([_ref_jac23(code, s, breaks, cg, ct, *u), tang])
        if abs(np.linalg.det(a)) < 1e-300:
            return u, False
        du = np.linalg.solve(a, -np.array([f1, f2, f3]))
        if abs(u[1] + du[1]) > 0.999 or np.sum(np.abs(du)) > 1.0:
            return u, False
        u = u + du
    f1, f2 = _ref_curve_g(code, s, breaks, cg, ct, *u)
    return u, max(abs(f1), abs(f2)) < tol


def _ref_tangent(code, s, breaks, cg, ct, u):
    j = _ref_jac23(code, s, breaks, cg, ct, *u)
    t = np.cross(j[0], j[1])
    return t / np.linalg.norm(t)


def _corrector_calls(variant, monkeypatch):
    """Arguments of every corrector call of one continuation loop over the
    forward pairing's input arc of the torus-knot scene, at the default
    step, with predictors moved 0.5 off the curve in (nu, tau) appended."""
    calls = []
    corrector = K.corrector

    def record(*args):
        calls.append(args)
        return corrector(*args)

    arc = C.slope_one_arc()
    breaks, cg, ct, period, length = X._component_splines(arc.components[0])
    t0 = 0.5 * length
    fs = V.solve_fiber(variant, S, K._ppoly_eval(breaks, cg, t0),
                       K._ppoly_eval(breaks, ct, t0))
    nu, tau = fs.solutions[0]
    with monkeypatch.context() as m:
        m.setattr(K, "corrector", record)
        X._trace_loop(K.variant_code(variant), S, breaks, cg, ct, period,
                      (t0, float(nu), float(tau)), X.MAX_STEP)
    assert len(calls) > 1000
    # every step there converges; the far predictors exercise the failure
    # exits too
    far = [args[:6] + (args[6] + 0.5, args[7] + 0.5) + args[8:]
           for args in calls[::20]]
    return calls[::10] + far


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_corrector_matches_finite_difference_reference(variant, monkeypatch):
    verdicts = set()
    for args in _corrector_calls(variant, monkeypatch):
        u0, u1, u2, ok, tang = K.corrector(*args)
        u_ref, ok_ref = _ref_corrector(*args)
        assert ok == ok_ref
        verdicts.add(ok)
        if not ok:
            continue
        assert np.max(np.abs(np.array([u0, u1, u2]) - u_ref)) < 1e-10
        t_ref = _ref_tangent(*args[:5], u_ref)
        assert min(np.max(np.abs(np.array(tang) - t_ref)),
                   np.max(np.abs(np.array(tang) + t_ref))) < 1e-8
    assert verdicts == {True, False}


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_corrector_batch_matches_finite_difference_reference(variant,
                                                             monkeypatch):
    calls = _corrector_calls(variant, monkeypatch)
    # one curve throughout: the same code, s and splines in every call
    head = calls[0][:5]
    assert all(args[:5] == head for args in calls)
    pred_normal = np.array([args[5:11] for args in calls]).T
    tol, maxit = X.CORRECTOR
    # two steps at most: the far predictors reach the iteration cap
    for cap in (maxit, 2):
        *u, ok = K.corrector_batch(*head, *pred_normal, tol, cap)
        u = np.column_stack(u)
        for k, args in enumerate(calls):
            u_ref, ok_ref = _ref_corrector(*args[:11], tol, cap)
            assert ok[k] == ok_ref
            if ok_ref:
                assert np.max(np.abs(u[k] - u_ref)) < 1e-10
        assert set(ok.tolist()) == {True, False}


def _ref_fold_jacobian_data(pt):
    """``fold_jacobian_data`` with dG and the pi1 columns from the central
    differences it replaced."""
    code = K.variant_code(pt.variant)
    x = np.array([pt.gamma, pt.theta, pt.nu, pt.tau])
    fd = 1e-6
    dg = np.zeros((2, 4))
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = fd
        fp = K.jet(code, pt.s, *(x + dx))[:2]
        fm = K.jet(code, pt.s, *(x - dx))[:2]
        dg[:, k] = (np.array(fp) - np.array(fm)) / (2 * fd)
    _, _, vt = np.linalg.svd(dg)
    t1, t2 = vt[2], vt[3]
    _, sv0, vt0 = np.linalg.svd(np.column_stack([t1[:2], t2[:2]]))
    step = 1e-5
    cols = [(P.pi1_r3_of_chart(pt.s, *(x + step * t))
             - P.pi1_r3_of_chart(pt.s, *(x - step * t))) / (2 * step)
            for t in (t1, t2)]
    _, sv1, vt1 = np.linalg.svd(np.column_stack(cols))
    return sv0, vt0[-1], sv1, vt1[-1]


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_jacobian_data_matches_finite_differences(variant):
    for circle in V.fold_locus(variant, S):
        for pt in circle.points[::48]:
            sv0, k0, sv1, k1 = V.fold_jacobian_data(pt)
            r0, q0, r1, q1 = _ref_fold_jacobian_data(pt)
            # both restriction maps drop rank at a fold point
            assert sv0[1] / sv0[0] < 1e-4 and sv1[1] / sv1[0] < 1e-4
            assert np.max(np.abs(sv0 - r0)) < 1e-7
            assert np.max(np.abs(sv1 - r1)) < 1e-7
            # kernel lines agree up to sign
            assert 1 - abs(float(np.dot(k0, q0))) < 1e-8
            assert 1 - abs(float(np.dot(k1, q1))) < 1e-6
