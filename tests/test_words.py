import math

import numpy as np
import pytest

from pillowcase import quat
from pillowcase import verify as VF
from pillowcase import words as W

from pillow_reference import GENERATORS, G, Gp, chart_angle_ref, stacked


def qexp_series(v, terms=24):
    out = power = quat.ONE
    fact = 1.0
    for k in range(1, terms + 1):
        power = quat.mul(power, v)
        fact *= k
        out = tuple(o + p / fact for o, p in zip(out, power))
    return stacked(out)


def ima(q):
    return (0.0, *q[1:])


def random_points(n, seed=0, s_range=(-0.2, 0.2)):
    """Rows (s, gamma, theta, nu, tau) of ``n`` uniform chart points."""
    rng = np.random.default_rng(seed)
    return rng.uniform((s_range[0], 0, 0, -0.5, 0),
                       (s_range[1], 2 * np.pi, 2 * np.pi, 0.5, 2 * np.pi),
                       (n, 5))


def fiber_points(s, fibers):
    """Chart rows (s, gamma, theta, nu, tau) of the + sheet of fibers
    solved at s."""
    return np.array([(s, fs.gamma, fs.theta, *fs.solutions[0])
                     for fs in fibers])


def test_word_reduction_and_inverse():
    assert W.free_reduce("abBA") == ""
    d = W.D_WORD
    assert W.free_reduce(d + W.inverse_word(d)) == ""


def test_named_word_identities():
    # every named word is a freely reduced word in the generators
    named = (W.LAMBDA_P, W.LAMBDA_Q, W.C_WORD, W.D_WORD, W.W_WORD, W.U_A,
             W.U_B, W.U_F, W.U_H, *W.CHARS_P0, *W.CHARS_P1, *W.RELATORS)
    assert all(W.free_reduce(w) == w and set(w.lower()) <= set(GENERATORS)
               for w in named)
    # d = c^-1 g f with g = q^-1 b a f^-1 q, and w as stated; the involution
    # words reduce consistently
    lhs = W.free_reduce(W.inverse_word(W.C_WORD) + "QbaFq" + "f")
    assert lhs == W.D_WORD
    assert W.W_WORD == "AhQPhpqHaH"
    assert W.U_A == "FQfABPbpq"
    assert W.U_B == "FQfABPBpbaFqf"
    # the earring form of the involution's h-image reduces to the shared word
    assert W.free_reduce("H" + W.inverse_word(W.W_WORD)) == W.U_H


def test_presentation_relators_hold_on_slice():
    for pt in random_points(30, seed=1):
        rep = W.embed_L("earring", *pt)
        for rel in W.RELATORS:
            val = stacked(W.eval_word(rep, rel))
            assert np.max(np.abs(val - quat.ONE)) < 1e-12


def test_chart_angle_faces_match_the_rule_bit_for_bit():
    rng = np.random.default_rng(24)
    xs = np.concatenate([rng.uniform(-20.0, 20.0, 400),
                         rng.normal(0.0, 1e-15, 40),
                         [-1e-17, -0.0, 2 * np.pi, -2 * np.pi,
                          4 * np.pi - 1e-15]])
    want = np.array([chart_angle_ref(x) for x in xs])
    assert np.array_equal(W.chart_angle(xs).view(np.int64),
                          want.view(np.int64))
    assert np.all((want >= 0) & (want < 2 * np.pi))


def test_wrapped_angle_faces_match_the_rule_bit_for_bit():
    rng = np.random.default_rng(25)
    xs = np.concatenate([rng.uniform(-20.0, 20.0, 400),
                         rng.normal(0.0, 1e-15, 40),
                         [-0.0, np.pi, -np.pi, 3 * np.pi, np.nan]])
    want = np.array([float(np.mod(x + np.pi, 2 * np.pi) - np.pi) for x in xs])
    for got in (np.array([W.wrapped_angle(x, math) for x in xs.tolist()]),
                W.wrapped_angle(xs)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all((want[:-1] >= -np.pi) & (want[:-1] < np.pi))


def test_wrapped_angle_range_is_closed_at_pi():
    # for x just below -pi, x + pi is a tiny negative number whose mod 2 pi
    # rounds up to 2 pi, so the result is pi, not about -pi
    x = np.nextafter(-np.pi, -4)
    assert W.wrapped_angle(x) == np.pi
    assert W.wrapped_angle(float(x), math) == math.pi
    assert W.wrapped_angle(-np.pi) == -np.pi


def test_embed_L_examples():
    rep = W.embed_L("earring", 0.3, 0.0, 0.0, 0.0, 0.0)
    assert np.allclose(rep.a, quat.I)
    assert np.allclose(rep.b, quat.I)
    assert np.allclose(rep.f, quat.I)
    assert np.allclose(rep.h, quat.J)

    rep = W.embed_L("earring", 0.1, np.pi / 2, 0.0, 0.0, 0.0)
    assert np.allclose(rep.b, quat.mul(quat.qexp(0.0, 0.0, np.pi / 2), quat.I),
                       atol=1e-15)
    assert abs(quat.mul(rep.b, quat.conj(rep.a))[0]) < 1e-15

    with pytest.raises(ValueError):
        W.embed_L("earring", 0.1, 0.0, 0.0, 0.7, 0.0)


def test_embed_L_series_oracle():
    rep = W.embed_L("earring", 0.1, 0.7, 1.3, 0.2, 2.0)
    bh = ima(quat.mul(rep.b, rep.h))
    assert np.max(np.abs(stacked(rep.p)
                         - qexp_series(np.multiply(0.1, bh)))) < 1e-12
    lam_q = ima(W.eval_word(rep, W.LAMBDA_Q))
    assert np.max(np.abs(stacked(rep.q)
                         - qexp_series(np.multiply(0.1, lam_q)))) < 1e-12
    # all four boundary values traceless
    for gen in "abfh":
        assert abs(getattr(rep, gen)[0]) < 1e-14


def test_eval_word_basics():
    rep = W.embed_L("earring", 0.05, np.pi / 2, 0.0, 0.0, 0.0)
    assert np.allclose(W.eval_word(rep, ""), quat.ONE)
    assert abs(W.eval_word(rep, "bA")[0]) < 1e-14
    for pt in random_points(20, seed=2):
        rep = W.embed_L("earring", *pt)
        comm = stacked(W.eval_word(rep, W.commutator("p", W.LAMBDA_P)))
        assert np.max(np.abs(comm - quat.ONE)) < 1e-10


def test_G_examples():
    # s = 0: first components vanish and the maps agree
    for pt in random_points(30, seed=3, s_range=(0.0, 0.0)):
        g1, g2 = G(pt)
        g1p, g2p = Gp(pt)
        assert abs(g1) < 1e-12 and abs(g1p) < 1e-12
        assert abs(g1 - g1p) < 1e-12 and abs(g2 - g2p) < 1e-12
        assert g2p == pt[3]

    # the four explicit points lie on both zero sets for any s
    for e1 in (1, -1):
        for e2 in (1, -1):
            for s in (0.01, 0.2, -0.13):
                # rho_eps on the gauge slice: b = j is e^{(pi/2) k} i
                pt = (s, np.pi / 2, 0.0 if e1 == 1 else np.pi,
                      0.0, 0.0 if e2 == 1 else np.pi)
                assert max(abs(v) for v in G(pt)) < 1e-10
                assert max(abs(v) for v in Gp(pt)) < 1e-10


def test_Gp_second_component_exact():
    for pt in random_points(50, seed=4):
        assert Gp(pt)[1] == pt[3]


def test_check_identities_sweep():
    assert VF.identities("earring", random_points(300, seed=5))[1]


def test_check_identities_batch_equals_one_point_batches():
    pts = random_points(1000, seed=9)
    worst = W.check_identities(W.embed_L("earring", *pts.T))
    assert worst == max(W.check_identities(W.embed_L("earring", *p[:, None]))
                        for p in pts)
    assert worst == max(W.check_identities(W.embed_L("earring", *p))
                        for p in pts)


def test_w2_condition_batch_matches_per_point():
    from pillowcase.variety import solve_fibers

    rng = np.random.default_rng(10)
    fibers = solve_fibers("earring", 0.08, rng.uniform(0.3, np.pi - 0.3, 20),
                          rng.uniform(0.3, np.pi - 0.3, 20))
    on = fiber_points(0.08, fibers)
    # every other point far enough off the variety to count
    off = on.copy()
    off[:, 3] = np.clip(on[:, 3] + np.where(np.arange(len(on)) % 2, 0.35,
                                            0.01), -0.5, 0.5)
    both = np.vstack([on, off])
    batch = stacked(W.w2_value(*both.T))
    rows = [stacked(W.w2_value(*p)) for p in both]
    assert batch.tobytes() == np.array(rows).tobytes()

    def miss(p):
        return float(np.max(np.abs(stacked(W.w2_value(*p)) + quat.ONE)))

    on_worst, off_best, n_off, _ = VF.w2_condition(on, off)
    kept = [miss(p) for p in off if abs(G(p)[1]) > VF.W2_OFF_G]
    assert 0 < n_off == len(kept) < len(off)
    assert on_worst == max(miss(p) for p in on)
    assert off_best == min(kept)


def test_identity_specific_point():
    rep = W.embed_L("earring", 0.1, np.pi / 2, 0.0, 0.0, 0.0)
    lhs = stacked(W.eval_word(rep, "PaFqf"))
    rhs = stacked(W.eval_word(rep, "hpqHa"))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # s = 0 gives trivial perturbations
    rep0 = W.embed_L("earring", 0.0, 1.0, 2.0, 0.3, 0.5)
    assert np.allclose(rep0.p, quat.ONE)
    assert np.allclose(rep0.q, quat.ONE)


def test_iota_hat_equivariance():
    for pt in random_points(40, seed=6):
        # the free involution (s, -gamma, -theta, nu, tau + pi)
        s, g, t, nu, tau = pt
        other = (s, -g, -t, nu, tau + np.pi)
        g1, g2 = G(pt)
        h1, h2 = G(other)
        assert abs(g1 - h1) < 1e-10 and abs(g2 - h2) < 1e-10
        b1, b2 = Gp(pt)
        c1, c2 = Gp(other)
        assert abs(b1 - c1) < 1e-10 and abs(b2 - c2) < 1e-10


def test_w2_condition():
    from pillowcase.variety import solve_fiber

    rng = np.random.default_rng(7)
    for _ in range(10):
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        fs = solve_fiber("earring", 0.08, g, t)
        assert fs.status == "two_sheets"
        (pt,) = fiber_points(0.08, [fs])
        assert np.max(np.abs(stacked(W.w2_value(*pt)) + quat.ONE)) < 1e-8
        off = pt.copy()
        off[3] = np.clip(pt[3] + 0.35, -0.5, 0.5)
        assert abs(G(off)[1]) > 0.1
        assert np.max(np.abs(stacked(W.w2_value(*off)) + quat.ONE)) > 1e-3


def test_rho_eps_w2():
    for e1 in (1, -1):
        for e2 in (1, -1):
            rep = W.rho_eps(e1, e2, 0.1)
            w = stacked(W.eval_word(rep, W.W_WORD))
            assert np.max(np.abs(w + quat.ONE)) < 1e-10


def test_w2_iff_G_zero_scaling():
    # |w + 1| tracks |G| near the variety
    pt = (0.05, 1.0, 2.0, 0.03, 0.7)
    g = max(abs(v) for v in G(pt))
    w = np.max(np.abs(stacked(W.w2_value(*pt)) + quat.ONE))
    assert w > 0.1 * g


def test_asymptotic_expansion_residual_scaling():
    from pillowcase.variety import solve_fiber

    rng = np.random.default_rng(8)
    lead = {0.05: [], 0.025: []}
    for _ in range(25):
        g0 = float(rng.uniform(0.3, np.pi - 0.3))
        t0 = float(rng.uniform(0.3, np.pi - 0.3))
        for s in (0.05, 0.025):
            nu, tau = solve_fiber("earring", s, g0, t0).solutions[0]
            lead[s].append(-(np.sin(g0) * np.sin(tau) - np.sin(t0) * np.cos(tau))
                           + 2 * s * np.cos(g0) * np.cos(t0))
    ratio = np.sqrt(np.mean(np.square(lead[0.05]))) / \
        np.sqrt(np.mean(np.square(lead[0.025])))
    assert 3.5 <= ratio <= 4.5


def test_expansion_residual_on_second_component_sheet():
    # fix the base and angle, solve the second defining equation for nu at
    # each scale, and check the first-component residual decays quadratically
    from pillowcase import _kernels

    def sheet_residual(variant, s, g0, t0, tau):
        code = _kernels.variant_code(variant)
        nu = s * np.cos(g0)
        for _ in range(60):
            g1, g2 = _kernels.g_scalar(code, s, g0, t0, nu, tau)
            d = (_kernels.g_scalar(code, s, g0, t0, nu + 1e-7, tau)[1]
                 - _kernels.g_scalar(code, s, g0, t0, nu - 1e-7, tau)[1]) / 2e-7
            nu -= g2 / d
            if abs(g2) < 1e-14:
                break
        g1, _ = _kernels.g_scalar(code, s, g0, t0, nu, tau)
        lead = (-(np.sin(g0) * np.sin(tau) - np.sin(t0) * np.cos(tau))
                + 2 * s * np.cos(g0) * np.cos(t0))
        if variant == "bypass":
            # the second variety's first component carries the opposite
            # overall sign at this order (same zero set)
            lead *= -2.0
        return abs(g1 / s - lead)

    rng = np.random.default_rng(11)
    cases = [(1.0, 2.0, 0.7)] + [tuple(rng.uniform(0.3, np.pi - 0.3, 2))
                                 + (float(rng.uniform(0, 2 * np.pi)),)
                                 for _ in range(20)]
    for variant in ("earring", "bypass"):
        r1 = [sheet_residual(variant, 0.05, *c) for c in cases]
        r2 = [sheet_residual(variant, 0.025, *c) for c in cases]
        ratio = np.sqrt(np.mean(np.square(r1))) / np.sqrt(np.mean(np.square(r2)))
        assert 3.0 <= ratio <= 5.0, (variant, ratio)
