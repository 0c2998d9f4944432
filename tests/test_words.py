import numpy as np
import pytest

from pillowcase import quat
from pillowcase import verify as VF
from pillowcase import words as W


def qexp_series(v, terms=24):
    out = quat.ONE.copy()
    power = quat.ONE.copy()
    fact = 1.0
    for k in range(1, terms + 1):
        power = quat.mul(power, v)
        fact *= k
        out = out + power / fact
    return out


def random_points(n, seed=0, s_range=(-0.2, 0.2)):
    rng = np.random.default_rng(seed)
    return [W.ChartPoint(float(rng.uniform(*s_range)),
                         float(rng.uniform(0, 2 * np.pi)),
                         float(rng.uniform(0, 2 * np.pi)),
                         float(rng.uniform(-0.5, 0.5)),
                         float(rng.uniform(0, 2 * np.pi)))
            for _ in range(n)]


def test_word_reduction_and_inverse():
    w = W.Word("abBA")
    assert w.text == ""
    d = W.D_WORD
    assert W.free_reduce(d.text + d.inverse().text) == ""
    assert W.Word("QPbpq").letters[0] == ("q", -1)
    with pytest.raises(ValueError):
        W.Word("xyz")


def test_named_word_identities():
    # d = c^-1 g f and w as stated; the involution words reduce consistently
    lhs = W.free_reduce(W.C_WORD.inverse().text + W.G_WORD.text + "f")
    assert lhs == W.D_WORD.text
    assert W.W_WORD.text == "AhQPhpqHaH"
    assert W.U_A.text == "FQfABPbpq"
    assert W.U_B.text == "FQfABPBpbaFqf"
    # the earring form of the involution's h-image reduces to the shared word
    assert W.free_reduce("H" + W.inverse_word(W.W_WORD.text)) == W.U_H.text


def test_presentation_relators_hold_on_slice():
    for pt in random_points(30, seed=1):
        rep = W.embed_L(pt)
        for pres in ("Pi", "Pi'"):
            for rel in W.PRESENTATIONS[pres].relators:
                val = W.eval_word(rep, rel)
                assert np.max(np.abs(val - quat.ONE)) < 1e-12


def test_embed_L_examples():
    pt = W.ChartPoint(0.3, 0.0, 0.0, 0.0, 0.0)
    rep = W.embed_L(pt)
    assert np.allclose(rep.a, quat.I)
    assert np.allclose(rep.b, quat.I)
    assert np.allclose(rep.f, quat.I)
    assert np.allclose(rep.h, quat.J)

    rep = W.embed_L(W.ChartPoint(0.1, np.pi / 2, 0.0, 0.0, 0.0))
    assert np.allclose(rep.b, quat.mul(quat.qexp((np.pi / 2) * quat.K), quat.I),
                       atol=1e-15)
    assert abs(quat.real_part(quat.mul(rep.b, quat.conj(rep.a)))) < 1e-15

    with pytest.raises(ValueError):
        W.embed_L(W.ChartPoint(0.1, 0.0, 0.0, 0.7, 0.0))


def test_embed_L_series_oracle():
    pt = W.ChartPoint(0.1, 0.7, 1.3, 0.2, 2.0)
    rep = W.embed_L(pt)
    bh = quat.ima(quat.mul(rep.b, rep.h))
    assert np.max(np.abs(rep.p - qexp_series(0.1 * bh))) < 1e-12
    lam_q = quat.ima(W.eval_word(rep, W.LAMBDA_Q))
    assert np.max(np.abs(rep.q - qexp_series(0.1 * lam_q))) < 1e-12
    # all four boundary values traceless
    for gen in "abfh":
        assert abs(quat.real_part(rep.value(gen))) < 1e-14


def test_eval_word_basics():
    pt = W.ChartPoint(0.05, np.pi / 2, 0.0, 0.0, 0.0)
    rep = W.embed_L(pt)
    assert np.allclose(W.eval_word(rep, ""), quat.ONE)
    assert abs(quat.real_part(W.eval_word(rep, "bA"))) < 1e-14
    for pt in random_points(20, seed=2):
        rep = W.embed_L(pt)
        comm = W.eval_word(rep, W.commutator("p", W.LAMBDA_P.text))
        assert np.max(np.abs(comm - quat.ONE)) < 1e-10


def test_G_examples():
    # s = 0: first components vanish and the maps agree
    for pt in random_points(30, seed=3, s_range=(0.0, 0.0)):
        g1, g2 = W.G(pt)
        g1p, g2p = W.Gp(pt)
        assert abs(g1) < 1e-12 and abs(g1p) < 1e-12
        assert abs(g1 - g1p) < 1e-12 and abs(g2 - g2p) < 1e-12
        assert g2p == pt.nu

    # the four explicit points lie on both zero sets for any s
    for e1 in (1, -1):
        for e2 in (1, -1):
            for s in (0.01, 0.2, -0.13):
                pt = W.rho_eps_chart(e1, e2, s)
                assert max(abs(v) for v in W.G(pt)) < 1e-10
                assert max(abs(v) for v in W.Gp(pt)) < 1e-10


def test_Gp_second_component_exact():
    for pt in random_points(50, seed=4):
        assert W.Gp(pt)[1] == pt.nu


def test_check_identities_sweep():
    assert VF.identities(random_points(300, seed=5))[1]


def test_identity_specific_point():
    rep = W.embed_L(W.ChartPoint(0.1, np.pi / 2, 0.0, 0.0, 0.0))
    lhs = W.eval_word(rep, "PaFqf")
    rhs = W.eval_word(rep, "hpqHa")
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # s = 0 gives trivial perturbations
    rep0 = W.embed_L(W.ChartPoint(0.0, 1.0, 2.0, 0.3, 0.5))
    assert np.allclose(rep0.p, quat.ONE)
    assert np.allclose(rep0.q, quat.ONE)


def test_iota_hat_equivariance():
    for pt in random_points(40, seed=6):
        other = pt.iota_hat()
        g1, g2 = W.G(pt)
        h1, h2 = W.G(other)
        assert abs(g1 - h1) < 1e-10 and abs(g2 - h2) < 1e-10
        b1, b2 = W.Gp(pt)
        c1, c2 = W.Gp(other)
        assert abs(b1 - c1) < 1e-10 and abs(b2 - c2) < 1e-10


def test_w2_condition():
    from pillowcase.variety import solve_fiber

    rng = np.random.default_rng(7)
    for _ in range(10):
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        fs = solve_fiber("earring", 0.08, g, t)
        assert fs.status == "two_sheets"
        pt = fs.chart_points()[0]
        assert np.max(np.abs(W.w2_value(pt) + quat.ONE)) < 1e-8
        off = W.ChartPoint(pt.s, pt.gamma, pt.theta,
                           float(np.clip(pt.nu + 0.35, -0.5, 0.5)), pt.tau)
        assert abs(W.G(off)[1]) > 0.1
        assert np.max(np.abs(W.w2_value(off) + quat.ONE)) > 1e-3

    with pytest.raises(ValueError):
        W.w2_value(W.ChartPoint(0.1, 1.0, 1.0, 0.0, 0.0, W.BYPASS))


def test_rho_eps_w2():
    for e1 in (1, -1):
        for e2 in (1, -1):
            rep = W.rho_eps(e1, e2, 0.1)
            w = W.eval_word(rep, W.W_WORD)
            assert np.max(np.abs(w + quat.ONE)) < 1e-10


def test_w2_iff_G_zero_scaling():
    # |w + 1| tracks |G| near the variety
    pt = W.ChartPoint(0.05, 1.0, 2.0, 0.03, 0.7)
    g = max(abs(v) for v in W.G(pt))
    w =  np.max(np.abs(W.w2_value(pt) + quat.ONE))
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
