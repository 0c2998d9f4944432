import math
import tracemalloc

import numpy as np
import pytest

from pillowcase import _kernels
from pillowcase import quat
from pillowcase import variety as V
from pillowcase import verify as VF
from pillowcase import words as W

from pillow_reference import GENERATORS, G, Gp, fold_samples


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
    for nu, tau in fs.solutions:
        assert max(abs(v) for v in Gp((s, g, t, nu, tau))) < 1e-10

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
        nu, tau, ok = _kernels.newton_fiber(code, s, g, t, NN[i, j],
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
            assert all(_same([x[k] if np.ndim(x) else x
                              for x in getattr(rep, g)], getattr(one, g))
                       for g in GENERATORS)
            assert all(np.ndim(x) == 0 for g in GENERATORS
                       for x in getattr(one, g))
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
    assert abs(quat.mul(rep.b, quat.conj(rep.a))[0]) < 1e-13
    for sig in (0.3, 1.7, 4.0):
        rep = V.k_circle("bypass", s, sig)
        assert quat.mul(rep.b, quat.conj(rep.a))[0] == \
            pytest.approx(np.cos(2 * s) * np.cos(sig), abs=1e-12)
        assert quat.mul(rep.b, quat.conj(rep.h))[0] == \
            pytest.approx(-np.sin(sig), abs=1e-12)
    # earring at sigma = pi/2 has eta = 0
    rep = V.k_circle("earring", s, np.pi / 2)
    assert quat.mul(rep.b, quat.conj(rep.h))[0] == \
        pytest.approx(-1.0, abs=1e-12)


def test_k_circle_character_embedding_injective():
    s = 0.1
    sigs = np.linspace(0, 2 * np.pi, 180, endpoint=False)
    pts = []
    for sig in sigs:
        rep = V.k_circle("bypass", s, float(sig))
        pts.append([quat.mul(rep.b, quat.conj(rep.a))[0],
                    quat.mul(rep.b, quat.conj(rep.h))[0]])
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
        for row, im in zip(c.samples.tolist(), c.image):
            pt = (s, *row)
            pair = G(pt) if variant == "earring" else Gp(pt)
            assert max(abs(v) for v in pair) < 1e-10
            _, _, ((_, _, a2, a3), (_, _, b2, b3)) = _kernels.jet(
                variant, *pt, _kernels.DIRECTIONS, math)
            assert abs(a2 * b3 - a3 * b2) < 1e-10
            assert np.allclose(im, np.sin(row[:2]), rtol=0, atol=1e-15)


def test_chart_angles_stay_below_two_pi():
    # np.mod(-1e-17, 2 pi) rounds to 2 pi; chart_angle maps it to 0
    assert np.mod(-1e-17, 2 * np.pi) == 2 * np.pi
    assert W.chart_angle(np.full(3, -1e-17)).tolist() == [0.0, 0.0, 0.0]
    for variant in ("earring", "bypass"):
        for s in (-0.05, 0.05, 0.2):
            for circle in V.fold_locus(variant, s):
                angles = circle.samples[:, [0, 1, 3]]
                assert np.all((angles >= 0) & (angles < 2 * np.pi))
        # over (pi/2, 2 pi) the + sheet's tau is a tiny negative angle,
        # which np.mod rounds up to 2 pi
        for s in (0.0, 0.05, -0.05):
            fs = V.solve_fiber(variant, s, np.pi / 2, 2 * np.pi)
            assert fs.solutions
            assert all(0 <= tau < 2 * np.pi for _, tau in fs.solutions)


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
        pts = c.samples
        spacing = np.median(np.linalg.norm(np.diff(pts[:, :2], axis=0), axis=1)) \
            + 2 * np.pi / len(pts)
        for g, t, nu, tau in pts[::12].tolist():
            # the free involution (s, -gamma, -theta, nu, tau + pi)
            q = (-g, -t, nu, tau + np.pi)
            diffs = np.stack([
                np.mod(pts[:, 0] - q[0] + np.pi, 2 * np.pi) - np.pi,
                np.mod(pts[:, 1] - q[1] + np.pi, 2 * np.pi) - np.pi,
                pts[:, 2] - q[2],
                np.mod(pts[:, 3] - q[3] + np.pi, 2 * np.pi) - np.pi,
            ])
            d = np.min(np.max(np.abs(diffs), axis=0))
            assert d < 5 * spacing


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_locus_traced_peak(variant):
    # the determinant's complex step runs one direction at a time, on
    # (4, 192) arrays; the stacked (3, 4, 192) step peaked at 2.4 MiB
    V.fold_locus(variant, 0.05)
    tracemalloc.start()
    try:
        V.fold_locus(variant, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 2 ** 20


@pytest.mark.parametrize("n_samples", [48, 192])
@pytest.mark.parametrize("s", [0.05, -0.05, 0.2, -0.45, 0.49, 1e-5])
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_locus_is_the_loop_as_first_written(variant, s, n_samples):
    # the one array Newton drops converged samples and takes the Jacobian
    # only where a sample steps; the corner (1, 1) it solves keeps its bits,
    # and sigma_1, sigma_2 and their product map it onto the other three to
    # rounding, each a fold circle to FOLD_TOL
    circles = V.fold_locus(variant, s, n_samples)
    got = np.stack([c.samples for c in circles])
    want = fold_samples(variant, s, n_samples)
    assert got.shape == want.shape and got[0].tobytes() == want[0].tobytes()
    diff = got - want
    diff[..., [0, 1, 3]] = W.wrapped_angle(diff[..., [0, 1, 3]])
    assert np.max(np.abs(diff)) < 2e-15
    code = _kernels.variant_code(variant)
    for c in circles:
        g1, g2, ((a2, a3), (b2, b3)) = _kernels.jet(code, s, *c.samples.T,
                                                    ("nu", "tau"))
        assert max(np.max(np.abs(f)) for f in (g1, g2, a2 * b3 - a3 * b2)) \
            < V.FOLD_TOL


@pytest.mark.parametrize("n_samples", [1, 47, 193])
def test_fold_locus_needs_an_even_tau_grid(n_samples):
    # sigma_1 maps the tau grid to itself by tau -> pi - tau only when
    # pi is on it
    with pytest.raises(ValueError, match="even n_samples"):
        V.fold_locus("earring", 0.05, n_samples)


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fold_locus_failure_names_a_tau(variant, monkeypatch):
    # no Newton step: the closed-form seeds are not fold points to FOLD_TOL
    monkeypatch.setattr(V, "FOLD_MAXIT", 0)
    with pytest.raises(V.ContinuationError,
                       match=r"^fold Newton failed at tau = \d\.\d{4} at "
                             r"corner \(-?1, -?1\)$"):
        V.fold_locus(variant, 0.05)


def test_fold_jacobians_rank_one_transverse():
    circles = V.fold_locus("earring", 0.05, n_samples=32)
    rank_rows = [c.samples[i] for c in circles[:2] for i in (3, 17)]
    assert VF.fold_structure(circles, "earring", 0.05, rank_rows)[3]


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
    gs, ts, orbits, _, fill = V._grid_orbits(48)
    rng = np.random.default_rng(5)
    planted = rng.choice(np.array(["two_sheets", "fold_region", "empty"],
                                  dtype=object), size=orbits.size,
                         p=[0.9, 0.05, 0.05])
    planted[0] = "two_sheets"  # the four corners, inside the disks
    status = fill(planted)

    # random statuses on the grid's orbit representatives, which the one
    # status pass lists first, and a refined sweep that agrees with the
    # model, which adds no notes
    def statuses(variant, s, g, t):
        rest = g[orbits.size:], t[orbits.size:]
        return np.concatenate([planted, np.where(
            np.hypot(*(a - np.round(a / np.pi) * np.pi for a in rest))
            < band_in, "empty", "two_sheets").astype(object)])

    monkeypatch.setattr(V, "fiber_statuses", statuses)
    rep = V.verify_topology("earring", s, 48, circles=circles)
    assert rep.fibers[2].tolist() == status.tolist()

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
    # the half of the corner (0, 0) with dgamma < 0, which the sweep solves
    dgs, dts = (a.ravel()[:512] for a in np.meshgrid(local, local,
                                                      indexing="ij"))
    d = np.hypot(dgs, dts)
    # a wrong status outside the disks, one in the band between them (which
    # no check reads) and one inside, all in the solved half
    wrong = {}
    for where, st in ((d > band_out, "fold_region"),
                      ((d >= band_in) & (d <= band_out), "empty"),
                      (d < band_in, "two_sheets")):
        i = np.nonzero(where)[0][0]
        wrong[(dgs[i], dts[i])] = st

    def model(variant, s, g, t):
        return [V.FiberSolutions(a, b, [], wrong.get(
            (a, b), "empty" if V._corner_distance(a, b) < (band_in + band_out)
            / 2 else "two_sheets")) for a, b in zip(g, t)]

    requested = []

    def recording(variant, s, g, t):
        g, t = (np.ravel(a).tolist() for a in (g, t))
        requested.append(list(zip(g, t)))
        return np.array([fs.status for fs in model(variant, s, g, t)],
                        dtype=object)

    # the model reads the grid's corners, inside the disks, as empty and
    # every other fiber of the grid as two sheets: no grid notes
    monkeypatch.setattr(V, "fiber_statuses", recording)
    rep = V.verify_topology("earring", s, 32, circles=circles)
    _, _, orbit_g, orbit_t, fill = V._grid_orbits(32)
    orbits = list(zip(orbit_g.tolist(), orbit_t.tolist()))
    status = rep.fibers[2]
    assert status.tolist() == fill([fs.status for fs in model(
        "earring", s, orbit_g, orbit_t)]).tolist()
    assert set(zip(*np.nonzero(status == "empty"))) == {
        (0, 0), (0, 16), (16, 0), (16, 16)}

    # the full 32 x 32 sweep that the restricted one replaced; one request,
    # the grid's orbit representatives and then the checked fibers of the
    # sweep's solved half only
    assert len(requested) == 1
    asked = requested[0]
    assert asked[:len(orbits)] == orbits
    asked = asked[len(orbits):]
    checked = [(a, b, r) for a, b, r in zip(dgs, dts, d)
               if r > band_out or r < band_in]
    assert asked == [(a, b) for a, b, _ in checked]
    # iota mirrors the half, the flat offset index f onto 1023 - f, radii
    # included; sigma_1 and sigma_2 repeat the corner at all four corners,
    # so each wrong status is read eight times
    solved = [(r, fs.status) for (_, _, r), fs in zip(
        checked, model("earring", s, *zip(*asked)))]
    notes, consistent = [], True
    for g0, t0 in V.CORNER_BASE.values():
        for r, st in solved + solved[::-1]:
            r = float(r)
            if r > band_out and st != "two_sheets":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={r:.4f} is {st}")
            if r < band_in and st != "empty":
                consistent = False
                notes.append(f"refined fiber near {g0, t0} at d={r:.4f} is {st}")
    assert len(notes) == 16 and not consistent
    assert rep.notes == notes and rep.consistent == consistent


# blocks of 5 fibers make a sweep about 25 times slower, so two cases run at
# the default block
@pytest.mark.parametrize("variant, s, block", [
    ("earring", 0.05, 5), ("bypass", -0.45, 5),
    ("earring", -0.45, V.FIBER_BLOCK), ("bypass", 0.05, V.FIBER_BLOCK),
])
def test_sweep_statuses_match_solve_fibers(variant, s, block, monkeypatch):
    """``verify_topology``'s one status pass, over the grid's orbit
    representatives and half of the corner (0, 0), gives the statuses of
    ``solve_fibers``, also where blocks split the pass."""
    passes = []
    reader = V.fiber_statuses

    def recording(variant, s, g, t):
        passes.append((g, t, reader(variant, s, g, t)))
        return passes[-1][-1]

    monkeypatch.setattr(V, "fiber_statuses", recording)
    monkeypatch.setattr(V, "FIBER_BLOCK", block)
    assert VF.topology(V.verify_topology(variant, s, 4))
    [(g, t, status)] = passes
    n = g.size
    # the one pass, which blocks of 5 split and the default block does not
    assert g.shape == (n,) and (block < n) == (block == 5)
    monkeypatch.undo()
    assert status.tolist() == [fs.status for fs in V.solve_fibers(variant, s,
                                                                  g, t)]


@pytest.mark.parametrize("variant", ["earring", "bypass"])
@pytest.mark.parametrize("s", [0.05, 0.2, -0.45, 1e-3, 0.49, 1e-6])
def test_mapped_statuses_are_the_solved_ones(variant, s, monkeypatch):
    """sigma_1, sigma_2 and iota of ``classify_grid`` carry the zero set of
    G to itself; the statuses filled in by them are those that solving
    every fiber gives.  A difference would be a finding about the solver."""
    for grid in (1, 2, 3, 16, 32, 33, 64):
        gs, ts, status = V.classify_grid(variant, s, grid)
        gg, tt = np.meshgrid(gs, ts, indexing="ij")
        full = V.fiber_statuses(variant, s, gg, tt).reshape(grid, grid)
        assert status.tolist() == full.tolist()

    passes = []
    reader = V.fiber_statuses

    def recording(variant, s, g, t):
        passes.append((np.ravel(g), np.ravel(t), reader(variant, s, g, t)))
        return passes[-1][-1]

    monkeypatch.setattr(V, "fiber_statuses", recording)
    rep = V.verify_topology(variant, s, 33)
    monkeypatch.undo()
    # one pass: the grid's orbit representatives, then the sweep's half
    [(g, t, solved)] = passes
    n = (33 * 33 + 1) // 2
    gg, tt, dgs, dts, half = g[:n], t[:n], g[n:], t[n:], solved[n:]
    # an odd grid is one tile, of which iota leaves one fiber per pair and
    # the fiber (0, 0) that it fixes
    gs = np.linspace(0.0, 2 * np.pi, 33, endpoint=False)
    i, j = np.divmod(np.arange(33 * 33), 33)
    first = i * 33 + j <= (-i % 33) * 33 + (-j % 33)
    assert np.array_equal(gg, gs[i[first]]) and np.count_nonzero(first) == n
    assert np.array_equal(tt, gs[j[first]])
    # the report's grid is the pass's grid part, filled in by the maps
    status = np.empty(33 * 33, dtype=object)
    status[first] = solved[:n]
    status[~first] = status[(-i[~first] % 33) * 33 + (-j[~first] % 33)]
    assert rep.fibers[2].ravel().tolist() == status.tolist()
    # the sweep at its actual points: the solved half at dgamma < 0, and
    # the other half, whose flat offset index 1023 - f mirrors f; solved at
    # all four corners, it is the half mirrored and repeated
    r_max = max(float(np.max(c.radii)) for c in rep.circles)
    local = np.linspace(-2 * r_max, 2 * r_max, 32)
    offsets = [a.ravel() for a in np.meshgrid(local, local, indexing="ij")]
    f = np.nonzero((offsets[0] == dgs[:, None])
                   & (offsets[1] == dts[:, None]))[1]
    assert f.size == dgs.size and np.all(f < 512)
    f = np.concatenate([f, 1023 - f[::-1]])
    g0, t0 = np.array(list(V.CORNER_BASE.values())).T[:, :, None]
    four = V.fiber_statuses(variant, s, g0 + offsets[0][f],
                            t0 + offsets[1][f]).reshape(4, -1)
    assert four.tolist() == [half.tolist() + half[::-1].tolist()] * 4


@pytest.mark.parametrize("grid", [1, 2, 3, 4, 5, 16, 33])
def test_classify_grid_reads_each_fiber_from_its_orbit(grid, monkeypatch):
    # statuses that the three maps keep and (gamma, theta) -> (-gamma,
    # theta) does not: the product i j of the quarter's indices, mod m;
    # each fiber of the grid must read its own
    tile = 2 - grid % 2
    m = grid // tile

    def planted(variant, s, g, t):
        i, j = (np.rint(np.ravel(a) * grid / (2 * np.pi)).astype(int)
                for a in (g, t))
        return np.array((i * j) % m, dtype=object)

    monkeypatch.setattr(V, "fiber_statuses", planted)
    gs, ts, status = V.classify_grid("earring", 0.05, grid)
    gg, tt = np.meshgrid(gs, ts, indexing="ij")
    assert status.tolist() == planted(None, None, gg, tt).reshape(
        grid, grid).tolist()


def test_topology_solves_one_fiber_per_orbit(monkeypatch):
    # at grid 64, one status pass of 912 fibers: 514 of the quarter's 1,024
    # (iota sigma_1 sigma_2 fixes four), then 398 of the refined sweep's
    # 796; and the fold Newton on the 192 samples of one corner
    sizes, newtons = [], []
    reader, newton = V.fiber_statuses, _kernels.newton

    def statuses(variant, s, g, t):
        sizes.append(np.size(g))
        return reader(variant, s, g, t)

    def counting(system, x, *args, **kwargs):
        if len(x) == 3:  # the fold Newton; the fiber roots have two unknowns
            newtons.append(x[0].size)
        return newton(system, x, *args, **kwargs)

    monkeypatch.setattr(V, "fiber_statuses", statuses)
    monkeypatch.setattr(_kernels, "newton", counting)
    assert VF.topology(V.verify_topology("earring", 0.05, 64))
    assert sizes == [514 + 398] and newtons == [192]


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
    # the Jacobian at the roots is ill-conditioned at such small |s|, but
    # the two roots of a fiber stay far apart: two sheets, not fold band
    ("earring", 1e-5, (1020, 0, 4)),
    ("bypass", -1e-6, (1020, 0, 4)),
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
    # the fibers whose seeded roots do not converge apart, among the 1,024
    # of the grid's quarter and the 796 of the sweep at one corner
    assert sum(scanned) <= 93


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
