import numpy as np
import pytest

from pillowcase import projection as P
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import words as W


def variety_points(variant, s, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = []
    attempts = 0
    while len(pts) < n:
        assert attempts < 100 * n, (
            f"found {len(pts)} of {n} two-sheeted fibers for {variant} at "
            f"s={s} in {attempts} attempts")
        attempts += 1
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        fs = V.solve_fiber(variant, s, g, t)
        if fs.status == "two_sheets":
            pts.append(fs.chart_points()[int(rng.integers(0, 2))])
    return pts


def test_canonical_orbit():
    g, t = P.canonical_orbit(-0.7, -1.1)
    assert g == pytest.approx(0.7)
    assert t == pytest.approx(1.1)
    # edge circles: theta folded into [0, pi]
    g, t = P.canonical_orbit(0.0, 5.0)
    assert g == 0.0
    assert t == pytest.approx(2 * np.pi - 5.0)
    g, t = P.canonical_orbit(np.pi, 4.0)
    assert g == pytest.approx(np.pi)
    assert t == pytest.approx(2 * np.pi - 4.0)


def test_pillow_point_surface_and_corners():
    p = P.PillowPoint.from_orbit("P0", 0.0, 0.0)
    assert p.is_corner
    assert np.allclose(p.r3, (1, 1, 1))
    p = P.PillowPoint.from_orbit("P0", np.pi / 2, 0.0)
    assert np.allclose(p.r3, (0, 1, 0), atol=1e-15)
    assert not p.is_corner
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = P.PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        assert P.surface_residual(p.r3) < 1e-10
    with pytest.raises(P.OffVarietyError):
        P.PillowPoint.from_r3("P0", 0.5, 0.5, 0.9)


def test_pi0_routes_agree():
    pts = variety_points("earring", 0.05, 10) + \
        variety_points("bypass", 0.05, 10, seed=3)
    for pt in pts:
        a = P.pi0(pt)
        b = P.pi0_of_rep(W.embed_L(pt))
        assert a.distance(b) < 1e-10
        assert np.max(np.abs(np.asarray(a.r3) - np.asarray(b.r3))) < 1e-10
    # corners and an explicit value
    assert np.allclose(P.pi0(W.ChartPoint(0.1, 0.0, 0.0, 0.2, 1.0)).r3,
                       (1, 1, 1))
    assert np.allclose(P.pi0(W.ChartPoint(0.1, np.pi / 2, 0.0, 0.0, 0.0)).r3,
                       (0, 1, 0), atol=1e-15)


def test_pi1_explicit_point_and_surface():
    rep = W.rho_eps(1, 1, 0.07)
    # the outgoing loops evaluate to j and i here
    assert np.allclose(W.eval_word(rep, W.C_WORD), quat.J, atol=1e-12)
    assert np.allclose(W.eval_word(rep, W.D_WORD), quat.I, atol=1e-12)
    p = P.pi1(rep)
    assert np.allclose(p.r3, (0, 1, 0), atol=1e-10)

    for pt in variety_points("bypass", 0.05, 8, seed=1):
        v = P.pi1_r3(W.embed_L(pt))
        assert P.surface_residual(v) < 1e-8


def test_pi1_rejects_off_variety():
    pt = W.ChartPoint(0.05, 1.0, 2.0, 0.3, 0.7)
    rep = W.embed_L(pt)
    assert abs(W.G(pt)[1]) > 0.1
    with pytest.raises(P.OffVarietyError):
        P.pi1(rep)


def test_theta_map():
    p = P.PillowPoint.from_orbit("P0", 0.7, 1.1)
    q = P.theta_map(p)
    assert q.distance(P.PillowPoint.from_orbit("P0", 0.7, -1.1)) < 1e-14
    assert np.max(np.abs(np.asarray(q.r3) - P.theta_r3(p.r3))) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = P.PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        assert P.theta_map(P.theta_map(p)).distance(p) < 1e-12
        assert np.max(np.abs(np.asarray(P.theta_map(p).r3)
                             - P.theta_r3(p.r3))) < 1e-12


def test_theta_orientation_reversing():
    # Jacobian determinant in the orbit coordinates at an interior point
    p0 = np.array([0.7, 1.1])
    fd = 1e-6
    cols = []
    for k in range(2):
        dp = np.zeros(2)
        dp[k] = fd
        a = P.theta_map(P.PillowPoint.from_orbit("P0", *(p0 + dp)))
        b = P.theta_map(P.PillowPoint.from_orbit("P0", *(p0 - dp)))
        cols.append((np.array([a.gamma, a.theta]) -
                     np.array([b.gamma, b.theta])) / (2 * fd))
    det = np.linalg.det(np.column_stack(cols))
    assert det == pytest.approx(-1.0, abs=1e-6)


def test_w_hats():
    p = P.PillowPoint.from_orbit("P0", np.pi / 2, 0.0)
    assert P.w2_hat(p).distance(p) < 1e-12
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = P.PillowPoint.from_orbit("P0", rng.uniform(0, 7), rng.uniform(0, 7))
        for m in (P.w1_hat, P.w2_hat):
            assert m(m(p)).distance(p) < 1e-12
            # commutes with the reflection
            a = m(P.theta_map(p))
            b = P.theta_map(m(p))
            assert a.distance(b) < 1e-12


def test_psi_relabels():
    p = P.PillowPoint.from_orbit("P0", 1.0, 2.0)
    q = P.psi_map(p)
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
        pt = W.ChartPoint(0.0, g, t, 0.0, tau)
        moved = P.u_involution(W.embed_L(pt))
        src = moved.source
        expect = (-g, t, -tau + np.pi)
        direct = (np.mod(expect[0], 2 * np.pi), np.mod(expect[1], 2 * np.pi),
                  np.mod(expect[2], 2 * np.pi))
        flipped = (np.mod(-expect[0], 2 * np.pi), np.mod(-expect[1], 2 * np.pi),
                   np.mod(expect[2] + np.pi, 2 * np.pi))
        got = (src.gamma, src.theta, src.tau)
        d1 = max(abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)
                 for a, b in zip(got, direct))
        d2 = max(abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)
                 for a, b in zip(got, flipped))
        assert min(d1, d2) < 1e-9
        assert abs(src.nu) < 1e-9


def test_u_involution_squares_to_identity_on_characters():
    for variant in ("earring", "bypass"):
        for pt in variety_points(variant, 0.05, 6, seed=4):
            pt.variant = variant
            rep = W.embed_L(pt)
            twice = P.u_involution(P.u_involution(rep))
            drift = np.max(np.abs(P.characters_in_out(twice)
                                  - P.characters_in_out(rep)))
            assert drift < 1e-8


def test_factorization():
    for e1 in (1, -1):
        for e2 in (1, -1):
            assert P.verify_factorization(W.rho_eps(e1, e2, 0.05)) < 1e-10
    for variant in ("earring", "bypass"):
        for pt in variety_points(variant, 0.05, 15, seed=5):
            pt.variant = variant
            assert P.verify_factorization(W.embed_L(pt)) < 1e-7
