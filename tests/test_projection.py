import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pillowcase import projection as P
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase import words as W
from pillowcase.cli import _variety_points

from pillow_reference import (GENERATORS, G, PillowPoint, canonical_orbit,
                              chart_angle_ref, eval_word_stacked, pi0_of_rep,
                              psi_map, stacked, theta_map, w1_hat, w2_hat)


def variety_points(variant, s, n, seed=0):
    return _variety_points(random.Random(seed), variant, s, n)


def chart_of(rep):
    """(gamma, theta, nu, tau) read back from a gauge-slice Rep's b, f and
    h."""
    b, f, h = rep.b, rep.f, rep.h
    return (np.arctan2(b[2], b[1]), np.arctan2(f[2], f[1]), h[1],
            np.arctan2(h[3], h[2]))


def test_canonical_orbit():
    g, t = canonical_orbit(-0.7, -1.1)
    assert g == pytest.approx(0.7)
    assert t == pytest.approx(1.1)
    # edge circles: theta folded into [0, pi]
    g, t = canonical_orbit(0.0, 5.0)
    assert g == 0.0
    assert t == pytest.approx(2 * np.pi - 5.0)
    g, t = canonical_orbit(np.pi, 4.0)
    assert g == pytest.approx(np.pi)
    assert t == pytest.approx(2 * np.pi - 4.0)


def test_pillow_point_surface_and_corners():
    p = PillowPoint.from_orbit("P0", 0.0, 0.0)
    assert np.allclose(p.r3, (1, 1, 1))
    p = PillowPoint.from_orbit("P0", np.pi / 2, 0.0)
    assert np.allclose(p.r3, (0, 1, 0), atol=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        assert P.surface_residual(p.r3) < 1e-10
    with pytest.raises(P.OffVarietyError):
        PillowPoint.from_r3("P0", 0.5, 0.5, 0.9)


def test_pi0_routes_agree():
    # the base orbit read off the chart, and the characters read back
    for variant, seed in (("earring", 0), ("bypass", 3)):
        for pt in variety_points(variant, 0.05, 10, seed=seed):
            a = P.r3_of_orbit(*canonical_orbit(pt[1], pt[2]))
            b = P.pi0_r3(W.embed_L(variant, *pt))
            assert np.max(np.abs(a - b)) < 1e-10
    # corners and an explicit value
    assert np.allclose(P.pi0_r3(W.embed_L(
        "earring", 0.1, 0.0, 0.0, 0.2, 1.0)), (1, 1, 1))
    assert np.allclose(P.pi0_r3(W.embed_L(
        "earring", 0.1, np.pi / 2, 0.0, 0.0, 0.0)), (0, 1, 0), atol=1e-15)


_angle = st.one_of(st.sampled_from([0.0, np.pi]), st.floats(0.0, 2 * np.pi))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(gamma=_angle, theta=_angle, sign=st.sampled_from([1, -1]),
       m=st.integers(-3, 3), n=st.integers(-3, 3))
def test_orbit_representatives_share_their_characters(gamma, theta, sign,
                                                      m, n):
    # pi0_r3 reads its triple off the arccos angles, no canonical
    # representative: every representative +-(gamma, theta) + 2 pi (m, n)
    # of an orbit, an edge one too, has the same characters
    other = P.r3_of_orbit(sign * gamma + 2 * np.pi * m,
                          sign * theta + 2 * np.pi * n)
    assert np.max(np.abs(other - P.r3_of_orbit(gamma, theta))) <= 1e-14


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_pi0_is_the_canonical_reference_bit_for_bit(variant):
    rows = variety_points(variant, 0.05, 100, seed=5)
    got = P.pi0_r3(W.embed_L(variant, *rows.T))
    for row, v in zip(rows, got):
        ref = pi0_of_rep(W.embed_L(variant, *row)).r3
        assert v.tobytes() == np.array(ref).tobytes()


def test_pi1_explicit_point_and_surface():
    rep = W.rho_eps(1, 1, 0.07)
    # the outgoing loops evaluate to j and i here
    assert np.allclose(W.eval_word(rep, W.C_WORD), quat.J, atol=1e-12)
    assert np.allclose(W.eval_word(rep, W.D_WORD), quat.I, atol=1e-12)
    v = P.pi1_r3(rep)
    assert np.allclose(v, (0, 1, 0), atol=1e-10)
    assert P.surface_residual(v) < P.OFF_VARIETY_SURFACE_TOL

    for pt in variety_points("bypass", 0.05, 8, seed=1):
        v = P.pi1_r3(W.embed_L("bypass", *pt))
        assert P.surface_residual(v) < 1e-8


def test_pi1_rejects_off_variety():
    pt = (0.05, 1.0, 2.0, 0.3, 0.7)
    rep = W.embed_L("earring", *pt)
    assert abs(G(pt)[1]) > 0.1
    assert P.surface_residual(P.pi1_r3(rep)) > P.OFF_VARIETY_SURFACE_TOL


def test_theta_map():
    p = PillowPoint.from_orbit("P0", 0.7, 1.1)
    q = theta_map(p)
    assert q.distance(PillowPoint.from_orbit("P0", 0.7, -1.1)) < 1e-14
    assert np.max(np.abs(np.asarray(q.r3) - P.theta_r3(p.r3))) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        assert theta_map(theta_map(p)).distance(p) < 1e-12
        assert np.max(np.abs(np.asarray(theta_map(p).r3)
                             - P.theta_r3(p.r3))) < 1e-12


def test_theta_orientation_reversing():
    # Jacobian determinant in the orbit coordinates at an interior point
    p0 = np.array([0.7, 1.1])
    fd = 1e-6
    cols = []
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = fd
        a = theta_map(PillowPoint.from_orbit("P0", *(p0 + dp)))
        b = theta_map(PillowPoint.from_orbit("P0", *(p0 - dp)))
        cols.append((np.array([a.gamma, a.theta]) -
                     np.array([b.gamma, b.theta])) / (2 * fd))
    det = np.linalg.det(np.column_stack(cols))
    assert det == pytest.approx(-1.0, abs=1e-6)


def test_w_hats():
    p = PillowPoint.from_orbit("P0", np.pi / 2, 0.0)
    assert w2_hat(p).distance(p) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        for m in (w1_hat, w2_hat):
            assert m(m(p)).distance(p) < 1e-12
            # commutes with the reflection
            a = m(theta_map(p))
            b = theta_map(m(p))
            assert a.distance(b) < 1e-12


def test_psi_relabels():
    p = PillowPoint.from_orbit("P0", 1.0, 2.0)
    q = psi_map(p)
    assert q.side == "P1"
    assert (q.gamma, q.theta) == (p.gamma, p.theta)


def test_u_involution_fixes_explicit_points():
    for e1 in (1, -1):
        for e2 in (1, -1):
            for variant in ("earring", "bypass"):
                rep = W.rho_eps(e1, e2, 0.08, variant)
                moved = P.u_involution(rep)
                drift = np.max(np.abs(P.characters_in_out(moved)
                                      - P.characters_in_out(rep)))
                assert drift < 1e-8


def test_u_involution_at_s_zero_matches_formula():
    # on the limit surface the involution is
    # [gamma, theta, 0, tau] -> [-gamma, theta, 0, -tau + pi]
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = float(rng.uniform(0.2, np.pi - 0.2))
        t = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        tau = float(np.mod(np.arctan2(np.sin(t), np.sin(g)), 2 * np.pi))
        moved = P.u_involution(W.embed_L("earring", 0.0, g, t, 0.0, tau))
        gm, tm, num, taum = chart_of(moved)
        expect = (-g, t, -tau + np.pi)
        direct = (np.mod(expect[0], 2 * np.pi), np.mod(expect[1], 2 * np.pi),
                  np.mod(expect[2], 2 * np.pi))
        flipped = (np.mod(-expect[0], 2 * np.pi), np.mod(-expect[1], 2 * np.pi),
                   np.mod(expect[2] + np.pi, 2 * np.pi))
        got = (gm, tm, taum)
        d1 = max(abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)
                 for a, b in zip(got, direct))
        d2 = max(abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)
                 for a, b in zip(got, flipped))
        assert min(d1, d2) < 1e-9
        assert abs(num) < 1e-9


def test_u_involution_squares_to_identity_on_characters():
    for variant in ("earring", "bypass"):
        for pt in variety_points(variant, 0.05, 6, seed=4):
            rep = W.embed_L(variant, *pt)
            twice = P.u_involution(P.u_involution(rep))
            drift = np.max(np.abs(P.characters_in_out(twice)
                                  - P.characters_in_out(rep)))
            assert drift < 1e-8


def test_factorization():
    for e1 in (1, -1):
        for e2 in (1, -1):
            assert P.verify_factorization(W.rho_eps(e1, e2, 0.05)) < 1e-10
    for variant in ("earring", "bypass"):
        assert VF.factorization(
            variant, variety_points(variant, 0.05, 15, seed=5))[1]


# the replaced one-point re-gauge, kept as the reference for its batched form


def _rotation_taking_reference(src, dst):
    s = np.asarray(src, dtype=float)[1:]
    d = np.asarray(dst, dtype=float)[1:]
    c = float(np.dot(s, d))
    axis = np.cross(s, d)
    na = float(np.hypot(np.hypot(axis[0], axis[1]), axis[2]))
    if na < 1e-12:
        if c > 0:
            return quat.ONE
        trial = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(trial, s)) > 0.9:
            trial = np.array([0.0, 1.0, 0.0])
        perp = np.cross(s, trial)
        perp /= np.linalg.norm(perp)
        return np.array([0.0, *perp])
    axis = axis / na
    half = 0.5 * np.arctan2(na, c)
    return np.array([np.cos(half), *(np.sin(half) * axis)])


def _u_involution_reference(rep):
    vals = P.u_values(rep)
    a2, b2, f2, h2 = vals["a"], vals["b"], vals["f"], vals["h"]
    if abs(float(a2[0])) > 1e-6:
        raise P.OffVarietyError("transformed a is not traceless")
    u1 = _rotation_taking_reference(quat.normalize((0.0, *a2[1:])), quat.I)
    b3 = quat.rotate(u1, b2)
    phi = np.arctan2(b3[3], b3[2])
    u = quat.mul(quat.qexp(*(-0.5 * phi * c for c in quat.I[1:])), u1)
    b4, f4, h4 = (quat.rotate(u, x) for x in (b2, f2, h2))
    if np.hypot(b4[2], b4[3]) < 1e-9:
        raise P.ReGaugeError("b is aligned with a")
    gamma = float(np.arctan2(b4[2], b4[1]))
    if abs(f4[3]) > 1e-6:
        raise P.OffVarietyError("transformed f left the gauge plane")
    theta = float(np.arctan2(f4[2], f4[1]))
    nu = float(h4[1])
    tau = float(np.arctan2(h4[3], h4[2]))
    gamma, theta, tau = map(chart_angle_ref, (gamma, theta, tau))
    out = W.embed_L(rep.variant, rep.s, gamma, theta, np.clip(nu, -0.5, 0.5),
                    tau)
    if W.variety_residual(out) > 1e-8:
        raise P.OffVarietyError("involution output misses the variety")
    return out


def _factorization_reference(rep):
    target = P.pi1_r3(rep)
    v0 = np.asarray(pi0_of_rep(_u_involution_reference(rep)).r3)
    x, y, z = v0
    return float(np.max(np.abs(np.array([x, y, 2 * x * y - z]) - target)))


def _stack(reps):
    return W.Rep(variant=reps[0].variant, s=np.array([r.s for r in reps]),
                 **{g: tuple(np.stack([getattr(r, g)[k] for r in reps])
                             for k in range(4))
                    for g in GENERATORS})


def _at(q, k):
    """Point k of a batched quaternion, some of whose parts may be floats."""
    return [x[k] if np.ndim(x) else x for x in q]


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_batched_involution_matches_one_point_reference(variant):
    # 40 variety points take the generic rotation, the 12 explicit points
    # (a is sent to -i) the antipodal one
    pts = variety_points(variant, 0.05, 40, seed=11)
    explicit = [W.rho_eps(e1, e2, s, variant) for e1 in (1, -1)
                for e2 in (1, -1) for s in (0.01, 0.05, 0.1)]
    assert all(np.array_equal(P.u_values(r)["a"], np.negative(quat.I))
               for r in explicit)
    for reps, batch in (([W.embed_L(variant, *p) for p in pts],
                         W.embed_L(variant, *pts.T)),
                        (explicit, _stack(explicit))):
        moved = P.u_involution(batch)
        for k, rep in enumerate(reps):
            ref = _u_involution_reference(rep)
            for g in GENERATORS:
                assert np.array_equal(_at(getattr(moved, g), k),
                                      getattr(ref, g))
            assert P.verify_factorization(rep) == _factorization_reference(rep)
            assert np.array_equal(P.characters_in_out(moved)[k],
                                  P.characters_in_out(ref))
        assert P.verify_factorization(batch) == max(
            map(_factorization_reference, reps))
        # the one-point re-gauge: its chart point, read back from b, f, h
        one = P.u_involution(reps[0])
        ref = _u_involution_reference(reps[0])
        assert one.s == ref.s and chart_of(one) == chart_of(ref)


def test_batched_involution_refuses_one_off_variety_member():
    pts = variety_points("bypass", 0.05, 5, seed=2)
    both = np.vstack([pts, (0.05, 1.0, 2.0, 0.3, 0.5)])
    with pytest.raises(P.OffVarietyError):
        P.u_involution(W.embed_L("bypass", *both.T))
    with pytest.raises(P.OffVarietyError):
        VF.factorization("bypass", both)


def _pi1_inputs(kind, n):
    """Chart coordinates (s, gamma, theta, nu, tau) of ``n`` points: real,
    a complex step in every coordinate, one point as 0-d values, or a
    gamma column against theta and tau rows."""
    rng = np.random.default_rng(n)
    g, t, tau = rng.uniform(0, 2 * np.pi, (3, n))
    nu = rng.uniform(-0.5, 0.5, n)
    if kind == "real":
        return rng.uniform(-0.45, 0.45, n), g, t, nu, tau
    if kind == "complex":
        d = 1e-20j * rng.normal(size=(4, n))
        return 0.05, g + d[0], t + d[1], nu + d[2], tau + d[3]
    if kind == "0-d":
        return 0.2, g[0], t[0], nu[0], tau[0]
    return 0.05, g[:, None], t[None, :], nu[0], tau[None, :]


@pytest.mark.parametrize("n", [1, 4096])
@pytest.mark.parametrize("kind", ["real", "complex", "0-d", "broadcast"])
def test_pi1_r3_of_chart_is_the_word_evaluation_bit_for_bit(kind, n):
    # the first word continues the third's products
    w1, w2, w3 = W.CHARS_P1
    assert w1 == w3 + w2
    if kind == "broadcast":
        n = min(n, 64)
    x = _pi1_inputs(kind, n)
    got = P.pi1_r3_of_chart(*x)
    vals = W.slice_parts(*x)
    want = np.stack([eval_word_stacked(vals, w)[0] for w in W.CHARS_P1], -1)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_word_layer_keeps_imaginary_parts():
    """A complex step x + 1e-20 i d through the quaternion and word layer
    carries the derivative along d in its imaginary part, against a central
    difference, and the float path's value in its real part."""
    rng = np.random.default_rng(3)
    n, h, fd = 16, 1e-20, 1e-6
    # 72 letters with no cancelling pair
    word = "aBfHpQ" * 12

    def chart(x):  # (s, gamma, theta, nu, tau) with |nu| <= 0.4
        return 0.2, x[0], x[1], 0.4 * np.sin(x[2]), x[3]

    maps = {
        "mul": (8, lambda x: stacked(quat.mul(x[:4], x[4:]))),
        "qexp": (4, lambda x: stacked(quat.qexp(*x[1:]))),
        "normalize": (4, lambda x: stacked(quat.normalize(x))),
        "slice_parts": (4, lambda x: np.stack(np.broadcast_arrays(
            *(c for q in W.slice_parts(*chart(x)).values() for c in q)))),
        "eval_word": (4, lambda x: stacked(
            W.eval_word(W.slice_parts(*chart(x)), word))),
        "pi1_r3_of_chart": (4, lambda x: P.pi1_r3_of_chart(*chart(x))),
    }
    for name, (dim, f) in maps.items():
        x = rng.uniform(-np.pi, np.pi, (dim, n))
        d = rng.normal(size=(dim, n))
        step = f(x + 1j * h * d)
        central = (f(x + fd * d) - f(x - fd * d)) / (2 * fd)
        assert np.iscomplexobj(step), name
        assert np.max(np.abs(step.real - f(x))) <= 1e-15, name
        assert np.max(np.abs(step.imag / h - central)) <= 1e-7, name


def _bits(x):
    """The bytes of every number in a (nested) result."""
    if isinstance(x, (tuple, list)):
        return b"".join(map(_bits, x))
    return np.asarray(x).tobytes()


def _word_checks(variant):
    """Every word check of ``verify`` on seeded samples of ``variant``, and
    the complex steps through the word layer, as one nested result."""
    rows = variety_points(variant, 0.05, 40, seed=21)
    off = rows.copy()
    off[:, 3] = np.clip(rows[:, 3] + 0.3, -0.5, 0.5)
    rng = np.random.default_rng(21)
    step = 1j * V.COMPLEX_STEP
    sig = np.concatenate([[np.pi / 2, -np.pi / 2], rng.uniform(0, 7, 14)])
    return {
        "identities": VF.identities(variant, rows),
        "w2_condition": (VF.w2_condition(rows, off), W.w2_value(*rows.T),
                         W.w2_value(*off.T)),
        "explicit_points": VF.explicit_points((variant,), (0.01, 0.05, 0.1)),
        "k_circles": VF.k_circles((variant,), (0.05, 0.1),
                                  np.linspace(0, 2 * np.pi, 36)),
        "factorization": VF.factorization(variant, rows),
        "pi0_u_r3_of_k_circle": P.pi0_u_r3(V.k_circle(variant, 0.05,
                                                      sig + step)),
        "pi1_r3_of_chart": (P.pi1_r3_of_chart(*rows.T), P.pi1_r3_of_chart(
            *(rows.T + step * rng.normal(size=rows.T.shape)))),
    }


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_word_checks_equal_the_stacked_evaluator_bit_for_bit(variant,
                                                             monkeypatch):
    # the same checks with every word evaluated by the stacked (..., 4)
    # evaluator, products from one: each number keeps its bytes
    got = _word_checks(variant)
    for module in (W, P):
        monkeypatch.setattr(module, "eval_word", eval_word_stacked)
    want = _word_checks(variant)
    for name in got:
        assert _bits(got[name]) == _bits(want[name]), name
    assert got["identities"][1] and got["factorization"][1]
