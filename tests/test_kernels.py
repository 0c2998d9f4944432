"""The kernels against the word evaluation, their batch forms and scipy."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from pillowcase import _kernels as k
from pillowcase import words as W
from pillowcase.variety import COMPLEX_STEP

import pillow_reference as ref


def test_kernel_matches_word_evaluation():
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(-0.2, 0.2)
        g, t, tau = rng.uniform(0, 2 * np.pi, 3)
        nu = rng.uniform(-0.5, 0.5)
        rep = W.embed_L("earring", s, g, t, nu, tau)
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
# chart points (s, gamma, theta, nu, tau) in the chart domain, |nu| <= 1/2
CHART = st.tuples(st.floats(-0.45, 0.45, allow_subnormal=False), ANGLE, ANGLE,
                  st.floats(-0.5, 0.5, allow_subnormal=False), ANGLE)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pt=CHART)
def test_jet_matches_word_evaluation(pt):
    rep = W.embed_L("earring", *pt)
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


# three maps of the chart (gamma, theta, nu, tau) that carry the zero set of
# either defining pair to itself: the map, the signs it puts on (G1, G2),
# and its derivative, which is diagonal.  sigma_1 and sigma_2 cover the
# pillowcase maps w2_hat and w1_hat o w2_hat, which permute the corners;
# iota covers the identity and has no fixed point.
SYMMETRIES = {
    "sigma_1": (lambda g, t, n, u: (g + math.pi, t, -n, math.pi - u),
                (-1, -1), (1, 1, -1, -1)),
    "sigma_2": (lambda g, t, n, u: (g, t + math.pi, n, -u),
                (-1, 1), (1, 1, 1, -1)),
    "iota": (lambda g, t, n, u: (-g, -t, n, u + math.pi),
             (1, 1), (-1, -1, 1, 1)),
}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pt=st.tuples(st.floats(-0.49, 0.49, allow_subnormal=False), ANGLE,
                    ANGLE, st.floats(-0.5, 0.5, allow_subnormal=False), ANGLE),
       code=st.sampled_from(CODES), name=st.sampled_from(sorted(SYMMETRIES)))
def test_jet_maps_by_the_symmetries_of_v(pt, code, name):
    """G(m(x)) = S G(x), so dG(m(x)) Dm = S dG(x): each row of the Jacobian
    at the image, times the diagonal Dm, is the row at x times its sign."""
    s, *x = pt
    move, signs, dm = SYMMETRIES[name]
    g1, g2, rows = k.jet(code, s, *x, k.DIRECTIONS, math)
    h1, h2, image_rows = k.jet(code, s, *move(*x), k.DIRECTIONS, math)
    for value, image, sign in zip((g1, g2), (h1, h2), signs):
        assert abs(image - sign * value) <= 1e-14
    for row, image_row, sign in zip(rows, image_rows, signs):
        for d, a, b in zip(dm, row, image_row):
            assert abs(d * b - sign * a) <= 1e-14


@pytest.mark.parametrize("code", CODES)
def test_sigma_2_keeps_the_sign_of_g2(code):
    """sigma_2 puts (-1, +1) on (G1, G2); the signs (+1, -1) miss by far
    more than rounding, for both pairs."""
    rng = np.random.default_rng(11)
    s = rng.uniform(-0.49, 0.49, 200)
    x = (*rng.uniform(0.0, 2 * np.pi, (2, 200)), rng.uniform(-0.5, 0.5, 200),
         rng.uniform(0.0, 2 * np.pi, 200))
    g1, g2, _ = k.jet(code, s, *x)
    h1, h2, _ = k.jet(code, s, *SYMMETRIES["sigma_2"][0](*x))
    assert max(np.max(np.abs(h1 + g1)), np.max(np.abs(h2 - g2))) <= 1e-14
    assert np.max(np.abs(h1 - g1)) > 0.1 and np.max(np.abs(h2 + g2)) > 0.1


def _reprs(result):
    """The ten floats of a (g1, g2, (row1, row2)) result as reprs, which
    tell signed zeros apart; one-element arrays count as their element."""
    g1, g2, (row1, row2) = result
    return [repr(float(np.asarray(x).ravel()[0]))
            for x in (g1, g2, *row1, *row2)]


def _g_jac_faces(code, pt):
    """The defining pair and its Jacobian on floats, as the scalar corrector,
    ``tangent`` and ``fold_jacobian_data`` take it, and on one-element
    arrays, as the batch corrector takes it."""
    return (_reprs(k.jet(code, *pt, k.DIRECTIONS, math)),
            _reprs(k.jet(code, *(np.array([v]) for v in pt), k.DIRECTIONS,
                         np)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pt=CHART)
def test_g_jac_is_jet_on_floats(pt):
    # bit for bit, so the scalar and batch paths make the same samples
    for code in CODES:
        on_floats, on_arrays = _g_jac_faces(code, pt)
        assert on_floats == on_arrays


@pytest.mark.parametrize("s", [0.0, -0.0, 0.05])
@pytest.mark.parametrize("gamma,theta", [(0.0, 0.0), (1.0, 2.0)])
@pytest.mark.parametrize("nu", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("tau", [0.0, math.pi / 2])
def test_g_jac_is_jet_at_zeros(s, gamma, theta, nu, tau):
    pt = (s, gamma, theta, nu, tau)
    for code in CODES:
        on_floats, on_arrays = _g_jac_faces(code, pt)
        assert on_floats == on_arrays


# every subset of the directions, in their order
SUBSETS = [c for n in range(5) for c in itertools.combinations(k.DIRECTIONS, n)]


def _bits(result):
    """A jet result as comparable reprs, which tell signed zeros apart:
    each entry's type and dtype, and its value or its elements."""
    g1, g2, (row1, row2) = result
    return [(type(x), np.asarray(x).dtype, repr(np.asarray(x).tolist()))
            for x in (g1, g2, *row1, *row2)]


def _jet_faces(pt):
    """A chart point as jet takes it: on floats, on one-element arrays, and
    as complex steps along gamma, theta and nu, stacked as the fold
    Newton's gradient stacks them."""
    s, gamma, theta, nu, tau = pt
    step = 1j * COMPLEX_STEP * np.eye(3)
    xc = np.array([gamma, theta, nu])[:, None] + step
    return (((s, gamma, theta, nu, tau), math),
            (tuple(np.array([v]) for v in pt), np),
            ((s, *xc, np.full(3, tau)), np))


def _assert_jet_is_the_first_written(pt, array_subsets=SUBSETS):
    for (args, xp), subsets in zip(_jet_faces(pt),
                                   (SUBSETS, array_subsets, array_subsets)):
        for code in CODES:
            for wrt in subsets:
                assert (_bits(k.jet(code, *args, wrt, xp))
                        == _bits(ref.jet(code, *args, wrt, xp))), (code, wrt)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pt=CHART, wrt=st.sampled_from(SUBSETS))
def test_jet_is_the_first_written_jet(pt, wrt):
    # bit for bit: on floats along every subset of the directions, on the
    # array faces along a drawn one and the two the solvers ask for
    _assert_jet_is_the_first_written(
        pt, dict.fromkeys([wrt, ("nu", "tau"), k.DIRECTIONS]))


def test_jet_is_the_first_written_jet_at_zeros():
    # every face along every subset
    for pt in itertools.product([0.0, -0.0, 0.05], [(0.0, 0.0), (1.0, 2.0)],
                                [0.0, -0.0, 0.3],
                                [0.0, -0.0, math.pi / 2, math.pi]):
        s, (gamma, theta), nu, tau = pt
        _assert_jet_is_the_first_written((s, gamma, theta, nu, tau))


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
        nu, tau, ok = k.newton_fiber(k.EARRING, 0.05, g[i], t[i], 0.0,
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
def test_cubic_fit_reproduces_quadratics(gaps, data):
    # Bessel slopes are the parabola's at every knot, the end knots included
    x = np.concatenate([[-1.0], -1.0 + np.cumsum(gaps)])
    coef = st.floats(-100.0, 100.0, allow_subnormal=False)
    a = np.array(data.draw(st.lists(st.tuples(coef, coef, coef), min_size=2,
                                    max_size=2))).T
    y = a[0] + np.outer(x, a[1]) + np.outer(x * x, a[2])
    c = k.cubic_fit(x, y)
    ts = np.concatenate([x, (x[:-1] + x[1:]) / 2])
    for j in range(2):
        val = k._ppoly_eval(x, c[..., j], ts)
        der = k._spline_jets(x, c[..., j], c[..., j], ts)[1]
        ref = a[0, j] + a[1, j] * ts + a[2, j] * ts * ts
        dref = a[1, j] + 2 * a[2, j] * ts
        scale = np.max(np.abs(a[:, j])) * (1 + np.max(np.abs(ts))) ** 2
        assert np.max(np.abs(val - ref)) <= 1e-13 * scale
        assert np.max(np.abs(der - dref)) <= 1e-13 * scale


def test_cubic_fit_is_c1_and_interpolates():
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, 40))])
    y = rng.normal(size=(len(x), 2))
    c = k.cubic_fit(x, y)
    h = np.diff(x)[:, None]
    # each piece's value and slope at its right end, against the next piece
    end = ((c[0] * h + c[1]) * h + c[2]) * h + c[3]
    slope = (3 * c[0] * h + 2 * c[1]) * h + c[2]
    assert np.array_equal(c[3], y[:-1])
    assert np.allclose(end, y[1:], rtol=0, atol=1e-12)
    assert np.allclose(slope[:-1], c[2, 1:], rtol=0, atol=1e-11)


@pytest.mark.parametrize("n", [3, 4, 9])
def test_cubic_fit_is_local(n):
    # y[k] reaches the slopes of knots k - 1 .. k + 1 (and an end slope
    # reaches one knot further in), so the pieces max(0, k - 2) .. k + 1
    rng = np.random.default_rng(n)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n - 1))])
    y = rng.normal(size=n)
    c = k.cubic_fit(x, y)
    for kk in range(n):
        bumped = y.copy()
        bumped[kk] += 1.0
        moved = np.any(k.cubic_fit(x, bumped) != c, axis=0)
        reach = np.arange(n - 1)
        assert np.array_equal(moved, (reach >= kk - 2) & (reach <= kk + 1))


@pytest.mark.parametrize("name", ["wavy_arc", "vertical_circle"])
def test_cubic_fit_is_near_cubic_spline_on_curve_lifts(monkeypatch, name):
    # the knots and lifts compose fits, circles padded two periods each way
    from pillowcase import compose, curves

    fits = []
    fit = k.cubic_fit
    monkeypatch.setattr(k, "cubic_fit", lambda x, y: fits.append((x, y))
                        or fit(x, y))
    curve = getattr(curves, name)()
    compose._component_splines(curve.components[0])
    (x, y), = fits
    c = fit(x, y)
    ts = np.concatenate([x, (x[:-1] + x[1:]) / 2])
    for j in range(2):
        assert (np.max(np.abs(k._ppoly_eval(x, c[..., j], ts)
                              - CubicSpline(x, y[:, j])(ts))) < 1e-8)


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


# ---------------------------------------------------------------------------
# the array Newton's contract, on toy systems: F_r = x_r - c_r where an
# element is linear, x_r^2 - c_r elsewhere, so J is diagonal
# ---------------------------------------------------------------------------

def _toy(c, linear, calls=None):
    """The toy system over flat arrays: c holds one target array per
    unknown, ``linear`` marks the linear elements; ``calls`` records each
    call's (elements, jac)."""
    def system(i, x, jac):
        if calls is not None:
            calls.append((i.copy(), jac))
        lin = linear[i]
        f = [np.where(lin, v - c[r][i], v * v - c[r][i])
             for r, v in enumerate(x)]
        if not jac:
            return f, None
        n = len(x)
        return f, [np.where(lin, 1.0, 2.0 * x[r]) if r == q else 0.0
                   for r in range(n) for q in range(n)]
    return system


def _starts(n, m=6):
    """m elements of n unknowns: starts, targets and the linear mask; every
    value is dyadic, so a linear element converges in one exact step."""
    x = [np.full(m, 1.5) for _ in range(n)]
    c = [np.full(m, 2.0) for _ in range(n)]
    return x, c, np.arange(m) % 2 == 0


@pytest.mark.parametrize("n", [2, 3])
def test_newton_converges_every_element_on_its_own(n):
    x, c, linear = _starts(n)
    ok = k.newton(_toy(c, linear), x, (1e-14,) * n, 50)
    assert ok.all()
    for v in x:
        assert np.all(v[linear] == 2.0)
        assert np.all(np.abs(v[~linear] - math.sqrt(2.0)) < 1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_newton_stops_on_per_row_tolerances(n):
    # linear rows at the start: row r is 10^-(3 r + 3)
    res = [10.0 ** -(3 * r + 3) for r in range(n)]
    tol = [10.0 * v for v in res]
    for r in range(-1, n):
        t = list(tol)
        if r >= 0:
            t[r] = res[r] / 10  # one row above its own tolerance
        x = [np.array([v]) for v in res]
        start = [v.copy() for v in x]
        ok = k.newton(_toy([np.zeros(1)] * n, np.ones(1, bool)), x, t, 0)
        assert ok[0] == (r < 0)
        assert all(np.array_equal(a, b) for a, b in zip(x, start))


@pytest.mark.parametrize("n", [2, 3])
def test_newton_maxit_zero_checks_the_start_only(n):
    x, c, linear = _starts(n)
    for v in x:  # a linear element at its root, a quadratic one not
        v[:2] = 2.0
    start = [v.copy() for v in x]
    calls = []
    ok = k.newton(_toy(c, linear, calls), x, (1e-14,) * n, 0,
                  step=lambda *a: pytest.fail("no step at maxit 0"))
    assert all(np.array_equal(a, b) for a, b in zip(x, start))
    assert len(calls) == 1 and np.array_equal(calls[0][0], np.arange(6))
    assert ok.tolist() == [True] + [False] * 5


@pytest.mark.parametrize("n", [2, 3])
def test_newton_inside_fails_a_start_or_an_iterate_outside(n):
    x, c, linear = _starts(n)
    x[0][1] = 0.95  # a start outside
    c[0][2] = 2.5  # a linear element whose one step lands outside, at 2.5
    calls = []
    ok = k.newton(_toy(c, linear, calls), x, (1e-14,) * n, 50,
                  inside=lambda x: np.abs(x[0] - 1.5) < 0.52)
    assert not ok[1] and not ok[2] and ok[[0, 3, 4, 5]].all()
    assert x[0][1] == 0.95  # kept its start, never evaluated
    assert all(1 not in i for i, _ in calls)
    assert x[0][2] == 2.5 and all(v[2] == 2.0 for v in x[1:])
    assert all(2 not in i for i, _ in calls[1:])  # not evaluated out there


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_newton_fails_at_a_singular_or_nan_jacobian(n, bad):
    x, c, linear = _starts(n)
    linear[:] = False
    x[n - 1][3] = bad  # J has 2 x = 0 or NaN on its diagonal
    start = [v.copy() for v in x]
    with np.errstate(invalid="ignore"):
        ok = k.newton(_toy(c, linear), x, (1e-14,) * n, 50)
    assert not ok[3] and np.delete(ok, 3).all()
    for a, b in zip(x, start):
        assert a[3] == b[3] or (np.isnan(a[3]) and np.isnan(b[3]))


@pytest.mark.parametrize("n", [2, 3])
def test_newton_refused_step_keeps_the_iterate(n):
    x, c, linear = _starts(n)
    linear[:] = False
    seen = []

    def step(i, xi, dx, f):
        seen.append(i.copy())
        return i != 4, None, None  # element 4 is refused at once

    ok = k.newton(_toy(c, linear), x, (1e-14,) * n, 50, step=step)
    assert not ok[4] and np.delete(ok, 4).all()
    assert all(v[4] == 1.5 for v in x)
    assert 4 in seen[0] and all(4 not in i for i in seen[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_newton_residuals_from_the_step_skip_the_rows_only_call(n):
    x, c, linear = _starts(n)
    calls = []
    rows = _toy(c, linear)

    def step(i, xi, dx, f):  # the full step, with the rows there
        xn = [a + d for a, d in zip(xi, dx)]
        return np.ones(i.size, bool), xn, rows(i, xn, False)[0]

    ok = k.newton(_toy(c, linear, calls), x, (1e-14,) * n, 50, step=step)
    assert ok.all() and len(calls) > 2
    assert all(jac for _, jac in calls)
    # each call after the first is at the elements that step: not the
    # linear ones, which converge at their first step
    assert all(not linear[i].any() for i, _ in calls[1:])


@pytest.mark.parametrize("n", [2, 3])
def test_newton_jacobian_only_where_an_element_steps(n):
    x, c, linear = _starts(n)
    calls = []
    ok = k.newton(_toy(c, linear, calls), x, (1e-14,) * n, 50)
    assert ok.all()
    assert calls[0][1] and np.array_equal(calls[0][0], np.arange(6))
    # later: the rows at every live element, then J where one steps; the
    # linear elements converge at their first step and leave
    later = calls[1:]
    assert [j for _, j in later] == [False, True] * (len(later) // 2) + (
        [False] if len(later) % 2 else [])
    for (rows_at, _), (jac_at, _) in zip(later[0::2], later[1::2]):
        assert np.isin(jac_at, rows_at).all() and not linear[jac_at].any()
        assert jac_at.size < rows_at.size or not linear[rows_at].any()
