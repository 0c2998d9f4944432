"""The kernels against the word evaluation, their batch forms and scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from pillowcase import _kernels as k
from pillowcase import words as W


def test_kernel_matches_word_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(-0.2, 0.2)
        g, t, tau = rng.uniform(0, 2 * np.pi, 3)
        nu = rng.uniform(-0.5, 0.5)
        rep = W.embed_L(W.ChartPoint(s, g, t, nu, tau))
        g1w, g2w = W.g_of_rep(rep)
        g1, g2 = k.g_scalar(k.EARRING, s, g, t, nu, tau)
        assert abs(g1 - float(g1w)) < 1e-13
        assert abs(g2 - float(g2w)) < 1e-13
        g1w, g2w = W.gp_of_rep(rep)
        g1, g2 = k.g_scalar(k.BYPASS, s, g, t, nu, tau)
        assert abs(g1 - float(g1w)) < 1e-13
        assert abs(g2 - float(g2w)) < 1e-13


CODES = (k.EARRING, k.BYPASS)
ANGLE = st.floats(0.0, 2 * np.pi)
# chart points (s, gamma, theta, nu, tau) in the domain of words.ChartPoint
CHART = st.tuples(st.floats(-0.45, 0.45, allow_subnormal=False), ANGLE, ANGLE,
                  st.floats(-0.5, 0.5, allow_subnormal=False), ANGLE)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pt=CHART)
def test_jet_matches_word_evaluation(pt):
    rep = W.embed_L(W.ChartPoint(*pt))
    for code, pair in zip(CODES, (W.g_of_rep, W.gp_of_rep)):
        g1, g2, _ = k.jet(code, *pt, (), math)
        w1, w2 = pair(rep)
        assert abs(g1 - float(w1)) <= 1e-14 and abs(g2 - float(w2)) <= 1e-14


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pt=CHART)
def test_jet_jacobian_matches_central_differences(pt):
    s, x = pt[0], np.array(pt[1:])
    fd = 1e-6
    for code in CODES:
        _, _, rows = k.jet(code, s, *x, k.DIRECTIONS, math)
        for j in range(4):
            dx = np.zeros(4)
            dx[j] = fd
            plus = k.jet(code, s, *(x + dx), (), math)[:2]
            minus = k.jet(code, s, *(x - dx), (), math)[:2]
            for i in range(2):
                assert abs(rows[i][j] - (plus[i] - minus[i]) / (2 * fd)) <= 1e-8


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pt=CHART,
       wrt=st.lists(st.sampled_from(k.DIRECTIONS), unique=True, max_size=4))
def test_jet_float_and_array_faces_agree(pt, wrt):
    arrays = [np.full(3, v) for v in pt]
    for code in CODES:
        g1, g2, rows = k.jet(code, *pt, tuple(wrt), math)
        a1, a2, arows = k.jet(code, *arrays, tuple(wrt), np)
        assert len(rows[0]) == len(rows[1]) == len(wrt)
        for f, a in zip((g1, g2, *rows[0], *rows[1]),
                        (a1, a2, *arows[0], *arows[1])):
            assert np.all(np.abs(a - f) <= 1e-15)


def _reprs(result):
    """The ten floats of a (g1, g2, (row1, row2)) result as reprs, which
    tell signed zeros apart."""
    g1, g2, (row1, row2) = result
    return [repr(x) for x in (g1, g2, *row1, *row2)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pt=CHART)
def test_g_jac_is_jet_on_floats(pt):
    for code in CODES:
        assert _reprs(k.g_jac(code, *pt)) == _reprs(
            k.jet(code, *pt, k.DIRECTIONS, math))


@pytest.mark.parametrize("s", [0.0, -0.0, 0.05])
@pytest.mark.parametrize("gamma,theta", [(0.0, 0.0), (1.0, 2.0)])
@pytest.mark.parametrize("nu", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("tau", [0.0, math.pi / 2])
def test_g_jac_is_jet_at_zeros(s, gamma, theta, nu, tau):
    pt = (s, gamma, theta, nu, tau)
    for code in CODES:
        assert _reprs(k.g_jac(code, *pt)) == _reprs(
            k.jet(code, *pt, k.DIRECTIONS, math))


def test_batch_matches_scalar():
    rng = np.random.default_rng(2)
    n = 64
    g = rng.uniform(0, 2 * np.pi, n)
    t = rng.uniform(0, 2 * np.pi, n)
    nu = rng.uniform(-0.5, 0.5, n)
    tau = rng.uniform(0, 2 * np.pi, n)
    for variant in ("earring", "bypass"):
        code = k.variant_code(variant)
        g1, g2 = k.g_pair(variant, 0.07, g, t, nu, tau)
        for i in range(n):
            a = k.g_scalar(code, 0.07, g[i], t[i], nu[i], tau[i])
            assert g1[i] == a[0] and g2[i] == a[1]


def test_newton_fiber_batch_matches_scalar():
    rng = np.random.default_rng(3)
    n = 16
    g = rng.uniform(0.3, np.pi - 0.3, n)
    t = rng.uniform(0.3, np.pi - 0.3, n)
    tau0 = np.arctan2(np.sin(t), np.sin(g))
    nu_b, tau_b, ok_b = k.newton_fiber_batch("earring", 0.05, g, t,
                                             np.zeros(n), tau0)
    assert np.all(ok_b)
    for i in range(n):
        nu, tau, ok, _ = k.newton_fiber(k.EARRING, 0.05, g[i], t[i], 0.0,
                                        tau0[i], 1e-12, 50)
        assert ok
        assert abs(nu - nu_b[i]) < 1e-9
        assert abs(np.mod(tau - tau_b[i] + np.pi, 2 * np.pi) - np.pi) < 1e-9


def test_bypass_second_component_is_nu_exactly():
    rng = np.random.default_rng(4)
    for _ in range(50):
        nu = rng.uniform(-0.5, 0.5)
        _, g2 = k.g_scalar(k.BYPASS, rng.uniform(-0.2, 0.2),
                           rng.uniform(0, 7), rng.uniform(0, 7), nu,
                           rng.uniform(0, 7))
        assert g2 == nu


def test_ppoly_eval_matches_scipy():
    x = np.linspace(0, 3, 40)
    y = np.sin(2 * x) + 0.3 * x
    spl = CubicSpline(x, y)
    for xv in np.linspace(0.01, 2.99, 23):
        mine = k._ppoly_eval(spl.x, np.ascontiguousarray(spl.c), float(xv))
        assert abs(mine - float(spl(xv))) < 1e-12


def test_ppoly_eval_broadcasts_like_the_scalar_form():
    x = np.concatenate([[0.0], np.cumsum(np.random.default_rng(6)
                                          .uniform(0.01, 0.1, 80))])
    c = k.cubic_fit(x, np.sin(4 * x))
    ts = np.concatenate([np.linspace(-0.05, x[-1] + 0.05, 997), x])
    assert np.array_equal(k._ppoly_eval(x, c, ts),
                          [k._ppoly_eval(x, c, float(t)) for t in ts])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(0.01, 10.0), min_size=3, max_size=60),
       data=st.data())
def test_cubic_fit_is_bit_equal_to_cubic_spline(gaps, data):
    x = np.concatenate([[-1.0], -1.0 + np.cumsum(gaps)])
    value = st.floats(-100.0, 100.0, allow_subnormal=False)
    y = np.array(data.draw(st.lists(st.tuples(value, value), min_size=len(x),
                                    max_size=len(x))))
    c = k.cubic_fit(x, y)
    for j in range(2):
        assert np.array_equal(c[..., j], CubicSpline(x, y[:, j]).c)


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_fit_few_knots_is_the_line_or_parabola(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))])
        y = rng.normal(size=n)
        ref = CubicSpline(x, y)
        c = k.cubic_fit(x, y)
        if n == 2:
            assert np.all(c[:2] == 0.0)
        ts = np.linspace(x[0] - 0.1, x[-1] + 0.1, 50)
        val = k._ppoly_eval(x, c, ts)
        der = np.array([k._spline_jet(x, c, c, t)[1] for t in ts])
        assert np.max(np.abs(val - ref(ts))) <= 1e-14 * np.max(np.abs(y))
        assert (np.max(np.abs(der - ref(ts, 1)))
                <= 1e-14 * np.max(np.abs(ref(ts, 1))))


@pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0],
                               [0.0, np.nan, 2.0, 3.0], [0.0]])
def test_cubic_fit_rejects_knots_not_strictly_increasing(x):
    with pytest.raises(ValueError):
        k.cubic_fit(x, np.zeros(len(x)))
