import math

import numpy as np
import pytest

from pillowcase import _kernels
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase import words as W


def test_solve_fiber_s0_closed_form():
    for variant in ("earring", "bypass"):
        fs = V.solve_fiber(variant, 0.0, np.pi / 2, 0.0)
        assert fs.status == "two_sheets"
        taus = sorted(t for _, t in fs.solutions)
        assert np.allclose(taus, [0.0, np.pi], atol=1e-12)
        assert all(abs(nu) < 1e-12 for nu, _ in fs.solutions)
        # a circle of solutions over the fixed point
        assert V.solve_fiber(variant, 0.0, 0.0, 0.0).status == "fold_region"


def test_solve_fiber_residuals_and_grid_oracle():
    variant, s, g, t = "bypass", 0.05, 1.0, 2.0
    fs = V.solve_fiber(variant, s, g, t)
    assert fs.status == "two_sheets"
    assert len(fs.solutions) == 2
    for pt in fs.chart_points():
        assert max(abs(v) for v in W.Gp(pt)) < 1e-10

    # independent dense grid search over (nu, tau), then local refinement
    nu_g = np.linspace(-0.4, 0.4, 800)
    tau_g = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    NN, TT = np.meshgrid(nu_g, tau_g, indexing="ij")
    g1, g2 = _kernels.g_pair(variant, s, g, t, NN, TT)
    mag = np.hypot(g1, g2)
    mask = mag < 6e-3
    roots = []
    code = _kernels.variant_code(variant)
    for i, j in zip(*np.nonzero(mask)):
        nu, tau, ok, _ = _kernels.newton_fiber(code, s, g, t, NN[i, j],
                                               TT[i, j], 1e-12, 50)
        if ok:
            dup = any(np.hypot(nu - a, np.mod(tau - b + np.pi, 2 * np.pi) - np.pi)
                      < 1e-6 for a, b in roots)
            if not dup:
                roots.append((nu, tau))
    assert len(roots) == 2
    for nu, tau in roots:
        d = min(np.hypot(nu - a, np.mod(tau - b + np.pi, 2 * np.pi) - np.pi)
                for a, b in fs.solutions)
        assert d < 1e-9


def test_solve_fiber_statuses_near_corner():
    for variant in ("earring", "bypass"):
        assert V.solve_fiber(variant, 0.05, 0.01, 0.01).status == "empty"
        assert V.solve_fiber(variant, 0.05, 0.5, 0.5).status == "two_sheets"


def test_sheets_deform_continuously():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = float(rng.uniform(0.4, np.pi - 0.4))
        t = float(rng.uniform(0.4, np.pi - 0.4))
        a = V.solve_fiber("earring", 0.05, g, t)
        b = V.solve_fiber("earring", 0.055, g, t)
        for nu, tau in a.solutions:
            d = min(np.hypot(nu - x, np.mod(tau - y + np.pi, 2 * np.pi) - np.pi)
                    for x, y in b.solutions)
            assert d < 10 * 0.005


def test_solution_set_iota_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = float(rng.uniform(0.3, np.pi - 0.3))
        t = float(rng.uniform(0.3, np.pi - 0.3))
        a = V.solve_fiber("bypass", 0.06, g, t)
        b = V.solve_fiber("bypass", 0.06, -g, -t)
        for nu, tau in a.solutions:
            d = min(np.hypot(nu - x,
                             np.mod(tau + np.pi - y + np.pi, 2 * np.pi) - np.pi)
                    for x, y in b.solutions)
            assert d < 1e-9


def test_eta():
    assert V.eta(0.1, np.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert V.eta(0.0, 1.234) == 0.0
    # 200-step iteration oracle with contraction factor |s|
    s, sig = 0.2, 0.3
    e = 0.0
    for _ in range(200):
        e = -(s / 2) * np.cos(sig + 2 * e)
    assert V.eta(s, sig) == pytest.approx(e, abs=1e-14)
    assert abs(2 * V.eta(s, sig) + s * np.cos(sig + 2 * V.eta(s, sig))) < 1e-13
    with pytest.raises(ValueError):
        V.eta(0.6, 0.0)


def _eta_scalar(s, sigma):
    """The one-sigma fixed-point iteration that eta runs per element."""
    e = -0.5 * s * np.cos(sigma)
    for _ in range(200):
        new = -0.5 * s * np.cos(sigma + 2 * e)
        d, e = new - e, new
        if abs(d.real) < 1e-15 and abs(d.imag) <= 1e-15 * abs(e.imag):
            break
    return e


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("sigmas", [
    np.linspace(0, 2 * np.pi, 72, endpoint=False),
    np.linspace(0, 2 * np.pi, 360, endpoint=False),
    # the complex steps of edge_tangent_anchors
    np.array([1, -1]) * (np.pi / 2 + 1j * 1e-20),
], ids=["72", "360", "complex"])
@pytest.mark.parametrize("s", [0.05, 0.1, -0.2])
def test_eta_and_k_circle_broadcast_bit_for_bit(s, sigmas):
    # every element runs the iterations of its own sigma, so an array call
    # equals one call per sigma bit for bit
    etas = V.eta(s, sigmas)
    assert _same(etas, np.array([_eta_scalar(s, x) for x in sigmas]))
    assert all(_same(e, V.eta(s, x)) for e, x in zip(etas, sigmas))
    for variant in ("earring", "bypass"):
        rep = V.k_circle(variant, s, sigmas)
        for k, x in enumerate(sigmas):
            one = V.k_circle(variant, s, x)
            assert all(_same(rep.value(g)[k], one.value(g))
                       for g in W.GENERATORS)
            assert one.a.shape == (4,)
            assert (rep.variant, rep.s) == (one.variant, one.s)


def test_k_circle_on_variety():
    sigmas = np.linspace(0, 2 * np.pi, 36, endpoint=False)
    assert VF.k_circles(("earring", "bypass"), (0.05, 0.1), sigmas)[1]
    for s in (0.05, 0.1):
        for sig in sigmas:
            for variant in ("earring", "bypass"):
                rep = V.k_circle(variant, s, float(sig))
                assert np.allclose(rep.a, quat.I)
                assert np.allclose(rep.f, quat.I)


def test_k_circle_characters():
    s = 0.1
    # proof identities: Re(b a^-) = cos(2s) cos(sigma), Re(b h^-) = -sin(sigma)
    rep = V.k_circle("bypass", s, np.pi / 2)
    assert abs(quat.real_part(quat.mul(rep.b, quat.conj(rep.a)))) < 1e-13
    for sig in (0.3, 1.7, 4.0):
        rep = V.k_circle("bypass", s, sig)
        assert quat.real_part(quat.mul(rep.b, quat.conj(rep.a))) == \
            pytest.approx(np.cos(2 * s) * np.cos(sig), abs=1e-12)
        assert quat.real_part(quat.mul(rep.b, quat.conj(rep.h))) == \
            pytest.approx(-np.sin(sig), abs=1e-12)
    # earring at sigma = pi/2 has eta = 0
    rep = V.k_circle("earring", s, np.pi / 2)
    assert quat.real_part(quat.mul(rep.b, quat.conj(rep.h))) == \
        pytest.approx(-1.0, abs=1e-12)


def test_k_circle_character_embedding_injective():
    s = 0.1
    sigs = np.linspace(0, 2 * np.pi, 180, endpoint=False)
    pts = []
    for sig in sigs:
        rep = V.k_circle("bypass", s, float(sig))
        pts.append([quat.real_part(quat.mul(rep.b, quat.conj(rep.a))),
                    quat.real_part(quat.mul(rep.b, quat.conj(rep.h)))])
    pts = np.asarray(pts)
    from scipy.spatial import cKDTree

    d, idx = cKDTree(pts).query(pts, k=2)
    # the nearest other sample is a parameter neighbor, never a far point
    for i in range(len(sigs)):
        j = idx[i, 1]
        gap = min(abs(i - j), len(sigs) - abs(i - j))
        assert gap <= 2


def _check_fold_locus_structure(variant, s):
    circles = V.fold_locus(variant, s, n_samples=96)
    assert len(circles) == 4
    corners = {c.corner for c in circles}
    assert corners == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
    for c in circles:
        assert abs(c.winding()) == 1
        # the radius is 2|s| - O(|s|^3)
        r = 2 * abs(s)
        assert np.all(c.radii < r) and np.all(c.radii > r * (1 - 3 * s * s))
        # every fold sample solves the defining pair, and there the
        # pair's differential in (nu, tau) is singular
        for pt, im in zip(c.points, c.image):
            pair = W.G(pt) if variant == "earring" else W.Gp(pt)
            assert max(abs(v) for v in pair) < 1e-10
            _, _, ((_, _, a2, a3), (_, _, b2, b3)) = _kernels.jet(
                variant, pt.s, pt.gamma, pt.theta, pt.nu, pt.tau,
                _kernels.DIRECTIONS, math)
            assert abs(a2 * b3 - a3 * b2) < 1e-10
            assert np.allclose(im, np.sin([pt.gamma, pt.theta]),
                               rtol=0, atol=1e-15)


def test_chart_angles_stay_below_two_pi():
    # np.mod(-1e-17, 2 pi) rounds to 2 pi; ChartPoint maps it to 0
    pt = W.ChartPoint(0.05, -1e-17, -1e-17, 0.0, -1e-17)
    assert (pt.gamma, pt.theta, pt.tau) == (0.0, 0.0, 0.0)
    for variant in ("earring", "bypass"):
        for s in (-0.05, 0.05, 0.2):
            for circle in V.fold_locus(variant, s):
                for p in circle.points:
                    assert max(p.gamma, p.theta, p.tau) < 2 * np.pi


def test_fold_locus_structure():
    for variant in ("earring", "bypass"):
        _check_fold_locus_structure(variant, 0.05)


@pytest.mark.parametrize("s", [-0.2, 0.45, 0.49])
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_locus_structure_across_s(variant, s):
    _check_fold_locus_structure(variant, s)


def test_fold_circles_wind_once_across_s():
    for variant in ("earring", "bypass"):
        for s in (0.01, -0.01, 0.05, -0.05, 0.2, -0.2, 0.45, -0.45, 0.49):
            circles = V.fold_locus(variant, s)
            assert [abs(c.winding()) for c in circles] == [1, 1, 1, 1]


def test_fold_radius_shrinks_quadratically():
    dev = {}
    for s in (0.05, 0.025):
        circles = V.fold_locus("earring", s, n_samples=48)
        dev[s] = max(float(np.max(np.abs(c.radii - 2 * s))) for c in circles)
    assert dev[0.05] / dev[0.025] >= 3.5


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_circle_iota_invariance(variant):
    circles = V.fold_locus(variant, 0.05, n_samples=96)
    for c in circles:
        pts = np.array([[p.gamma, p.theta, p.nu, p.tau] for p in c.points])
        spacing = np.median(np.linalg.norm(np.diff(pts[:, :2], axis=0), axis=1)) \
            + 2 * np.pi / len(pts)
        for p in c.points[::12]:
            q = p.iota_hat()
            diffs = np.stack([
                np.mod(pts[:, 0] - q.gamma + np.pi, 2 * np.pi) - np.pi,
                np.mod(pts[:, 1] - q.theta + np.pi, 2 * np.pi) - np.pi,
                pts[:, 2] - q.nu,
                np.mod(pts[:, 3] - q.tau + np.pi, 2 * np.pi) - np.pi,
            ])
            d = np.min(np.max(np.abs(diffs), axis=0))
            assert d < 5 * spacing


def test_fold_jacobians_rank_one_transverse():
    circles = V.fold_locus("earring", 0.05, n_samples=32)
    rank_points = [c.points[i] for c in circles[:2] for i in (3, 17)]
    assert VF.fold_structure(circles, 0.05, rank_points)[3]


def test_topology_reports():
    rep = V.verify_topology("earring", 0.05, grid=32)
    assert VF.topology(rep)
    # the grid and the circles come back with the report, not in its dict
    gs, ts, status = rep.fibers
    assert status.shape == (32, 32) and len(rep.circles) == 4
    assert (status == V.classify_grid("earring", 0.05, 32)[2]).all()
    assert sum(rep.counts.values()) == 32 * 32
    assert "fibers" not in rep.to_dict() and "circles" not in rep.to_dict()
    rep = V.verify_topology("bypass", 0.05, grid=32)
    assert rep.consistent and rep.genus_cover == 5

    rep0 = V.verify_topology("earring", 0.0, grid=8)
    assert rep0.degenerate
    assert rep0.consistent


def test_topology_grid_checks_match_loop_reference(monkeypatch):
    s = 0.05
    circles = V.fold_locus("earring", s, n_samples=48)
    band_out = 1.3 * max(float(np.max(c.radii)) for c in circles)
    band_in = 0.7 * min(float(np.min(c.radii)) for c in circles)
    gs = ts = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    rng = np.random.default_rng(5)
    status = rng.choice(np.array(["two_sheets", "fold_region", "empty"],
                                 dtype=object), size=(48, 48), p=[0.9, 0.05, 0.05])
    status[::24, ::24] = "two_sheets"  # the four corners, inside the disks
    monkeypatch.setattr(V, "classify_grid", lambda *a: (gs, ts, status))
    # a refined sweep that agrees with the model adds no notes
    monkeypatch.setattr(V, "solve_fibers", lambda variant, s, g, t: [
        V.FiberSolutions(variant, s, a, b, [], "empty" if np.hypot(
            a - np.round(a / np.pi) * np.pi, b - np.round(b / np.pi) * np.pi)
            < band_in else "two_sheets") for a, b in zip(g, t)])
    rep = V.verify_topology("earring", s, 48, circles=circles)

    # the per-fiber loop the array expressions replaced
    counts = {"two_sheets": 0, "fold_region": 0, "empty": 0}
    notes = []
    for i, g in enumerate(gs):
        for j, t in enumerate(ts):
            st = status[i, j]
            counts[st] += 1
            d = V._corner_distance(float(g), float(t))
            if d > band_out and st != "two_sheets":
                notes.append(f"fiber ({g:.3f},{t:.3f}) outside fold disks is {st}")
            if d < band_in and st != "empty":
                notes.append(f"fiber ({g:.3f},{t:.3f}) inside fold disks is {st}")
    assert len(notes) > 20
    assert {n.split()[2] for n in notes[:20]} == {"inside", "outside"}
    assert rep.counts == counts and not rep.consistent
    assert rep.notes == notes[:20]


def test_refined_sweep_solves_only_the_fibers_it_checks(monkeypatch):
    s = 0.05
    circles = V.fold_locus("earring", s, n_samples=48)
    r_max = max(float(np.max(c.radii)) for c in circles)
    band_out = 1.3 * r_max
    band_in = 0.7 * min(float(np.min(c.radii)) for c in circles)
    local = np.linspace(-2 * r_max, 2 * r_max, 32)
    dgs, dts = (a.ravel() for a in np.meshgrid(local, local, indexing="ij"))
    d = np.hypot(dgs, dts)
    # a wrong status outside the disks, one in the band between them (which
    # no check reads) and one inside, all at the corner (pi, 0)
    wrong = {}
    for where, st in ((d > band_out, "fold_region"),
                      ((d >= band_in) & (d <= band_out), "empty"),
                      (d < band_in, "two_sheets")):
        i = np.nonzero(where)[0][0]
        wrong[(np.pi + dgs[i], 0.0 + dts[i])] = st

    def model(variant, s, g, t):
        return [V.FiberSolutions(variant, s, a, b, [], wrong.get(
            (a, b), "empty" if V._corner_distance(a, b) < (band_in + band_out)
            / 2 else "two_sheets")) for a, b in zip(g, t)]

    requested = []

    def recording(variant, s, g, t):
        requested.append(set(zip(np.asarray(g).tolist(),
                                 np.asarray(t).tolist())))
        return model(variant, s, g, t)

    gs = ts = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    status = np.full((32, 32), "two_sheets", dtype=object)
    status[::16, ::16] = "empty"  # the four corners, inside the disks
    monkeypatch.setattr(V, "classify_grid", lambda *a: (gs, ts, status))
    monkeypatch.setattr(V, "solve_fibers", recording)
    rep = V.verify_topology("earring", s, 32, circles=circles)

    # the full 32 x 32 sweep per corner that the restricted one replaced
    assert len(requested) == 4
    notes, consistent = [], True
    for (g0, t0), asked in zip(V.CORNER_BASE.values(), requested):
        checked = {(g0 + a, t0 + b) for a, b, r in zip(dgs, dts, d)
                   if r > band_out or r < band_in}
        assert asked == checked
        for dg, dt, fs in zip(dgs, dts, model("earring", s, g0 + dgs,
                                              t0 + dts)):
            st = fs.status
            r = float(np.hypot(dg, dt))
            if r > band_out and st != "two_sheets":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={r:.4f} is {st}")
            if r < band_in and st != "empty":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={r:.4f} is {st}")
    assert len(notes) == 2 and not consistent
    assert rep.notes == notes and rep.consistent == consistent


def test_pi0_misses_corners():
    from pillowcase.variety import _corner_distance

    s = 0.05
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = float(rng.uniform(0, 2 * np.pi))
        t = float(rng.uniform(0, 2 * np.pi))
        fs = V.solve_fiber("earring", s, g, t)
        if fs.solutions:
            assert _corner_distance(g, t) > s / 2


# (two_sheets, fold_region, empty) of the 32 x 32 grid
@pytest.mark.parametrize("variant, s, counts", [
    ("earring", 0.2, (988, 0, 36)),
    ("earring", -0.45, (804, 8, 212)),
    ("earring", 0.49, (772, 16, 236)),
    ("bypass", 0.2, (972, 16, 36)),
    ("bypass", -0.45, (780, 0, 244)),
    ("bypass", 0.49, (748, 0, 276)),
])
def test_topology_counts_pinned_across_s(variant, s, counts):
    rep = V.verify_topology(variant, s, grid=32)
    assert rep.counts == dict(zip(("two_sheets", "fold_region", "empty"),
                                  counts))
    assert VF.topology(rep) and (rep.genus_cover, rep.genus_quotient) == (5, 3)


def _unconverged(variant, s, gamma, theta, nu0, tau0, *args):
    """A ``newton_fiber_batch`` whose seeds never converge."""
    nu, tau = np.broadcast_arrays(nu0, tau0, gamma)[:2]
    return nu, tau, np.zeros(nu.shape, dtype=bool)


@pytest.mark.parametrize("variant, s, grid", [
    ("earring", 0.2, 32), ("earring", -0.45, 32), ("earring", 0.49, 32),
    ("bypass", 0.2, 32), ("bypass", -0.45, 32), ("bypass", 0.49, 32),
    ("earring", 0.05, 64), ("bypass", 0.05, 64),
])
def test_seeds_decide_no_fiber_the_scan_alone_does_not(variant, s, grid,
                                                       monkeypatch):
    """The seeded start only picks which fibers skip the tau scan.  With no
    seed converging every fiber is scanned, and the topology report and
    the fiber statuses are the same; two-sheeted roots agree to 1e-9."""
    circles = V.fold_locus(variant, s)
    gs = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    gg, tt = (a.ravel() for a in np.meshgrid(gs, gs, indexing="ij"))

    def solve():
        return (V.verify_topology(variant, s, grid, circles=circles),
                V.solve_fibers(variant, s, gg, tt))

    rep, fibers = solve()
    monkeypatch.setattr(_kernels, "newton_fiber_batch", _unconverged)
    scan_rep, scan_fibers = solve()
    assert rep.to_dict() == scan_rep.to_dict()
    assert (rep.fibers[2] == scan_rep.fibers[2]).all()
    two = 0
    for fs, ref in zip(fibers, scan_fibers):
        assert fs.status == ref.status
        if fs.status == "two_sheets":
            two += 1
            assert len(fs.solutions) == len(ref.solutions)
            for (nu, tau), (rnu, rtau) in zip(fs.solutions, ref.solutions):
                dtau = np.mod(tau - rtau + np.pi, 2 * np.pi) - np.pi
                assert abs(nu - rnu) <= 1e-9 and abs(dtau) <= 1e-9
    assert two > grid * grid // 2


def test_topology_scans_only_unseeded_fibers(monkeypatch):
    scanned = []
    scan = V._scan_roots

    def counted(variant, s, gamma, theta):
        scanned.append(gamma.size)
        return scan(variant, s, gamma, theta)

    monkeypatch.setattr(V, "_scan_roots", counted)
    assert VF.topology(V.verify_topology("earring", 0.05, 64))
    # the fibers whose seeded roots do not converge apart (3,268 fibers,
    # the corner band of the grid and the whole refined sweep, before the
    # seeds)
    assert sum(scanned) <= 372


@pytest.mark.parametrize("s", [0.45, -0.45])
def test_seeds_recover_a_close_root_pair(s, monkeypatch):
    """Two roots closer in tau than the scan's step, which the scan alone
    misses: it reports the fiber as fold band with no roots."""
    g, t = 5.4271, 6.0543
    fs = V.solve_fiber("bypass", s, g, t)
    assert fs.status == "two_sheets" and len(fs.solutions) == 2
    (nu0, tau0), (nu1, tau1) = fs.solutions
    gap = abs(np.mod(tau0 - tau1 + np.pi, 2 * np.pi) - np.pi)
    assert 0.005 < gap < 2 * np.pi / V.N_TAU
    for nu, tau in fs.solutions:
        assert max(map(abs, _kernels.jet("bypass", s, g, t, nu, tau, (),
                                         math)[:2])) < 1e-13
    monkeypatch.setattr(_kernels, "newton_fiber_batch", _unconverged)
    scan = V.solve_fiber("bypass", s, g, t)
    assert scan.status == "fold_region" and scan.solutions == []
