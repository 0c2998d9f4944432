"""The batched fiber solver and the batched Newton against their one-point
faces."""

import numpy as np
import pytest

from pillowcase import _kernels as K
from pillowcase import variety as V

S = 0.05


def _base_points(s):
    """Exact half-lattice points, fold-band rings of radius 2|s| around two
    corners, and random base points."""
    g = [0.0, np.pi, 0.0, np.pi]
    t = [0.0, np.pi, np.pi, 0.0]
    ang = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    for g0, t0 in ((0.0, 0.0), (np.pi, np.pi)):
        g += list(g0 + 2 * abs(s) * np.cos(ang))
        t += list(t0 + 2 * abs(s) * np.sin(ang))
    rng = np.random.default_rng(5)
    g += list(rng.uniform(0, 2 * np.pi, 6))
    t += list(rng.uniform(0, 2 * np.pi, 6))
    return np.array(g), np.array(t)


@pytest.mark.parametrize("variant", ["earring", "bypass"])
@pytest.mark.parametrize("blocks", [None, {"SCAN_BLOCK": 3},
                                    {"FIBER_BLOCK": 5}])
def test_solve_fibers_matches_one_at_a_time(variant, blocks, monkeypatch):
    # 28 fibers: not a multiple of the scan block
    for name, size in (blocks or {}).items():
        monkeypatch.setattr(V, name, size)
    g, t = _base_points(S)
    batch = V.solve_fibers(variant, S, g, t)
    assert len(batch) == g.size
    for fs, gi, ti in zip(batch, g, t):
        one = V.solve_fiber(variant, S, gi, ti)
        assert (fs.gamma, fs.theta) == (gi, ti)
        assert fs.status == one.status
        assert fs.solutions == one.solutions  # bit-equal roots
    statuses = [fs.status for fs in batch]
    # the half-lattice points lie inside the fold disks
    assert statuses[:4] == ["empty"] * 4
    assert {"two_sheets", "empty"} <= set(statuses)


def test_solve_fibers_at_s0_is_closed_form():
    g, t = _base_points(0.05)
    batch = V.solve_fibers("earring", 0.0, g, t)
    for fs, gi, ti in zip(batch, g, t):
        assert fs.solutions == V.solve_fiber("earring", 0.0, gi, ti).solutions
    assert [fs.status for fs in batch[:4]] == ["fold_region"] * 4
    assert V.solve_fibers("earring", S, [], []) == []


def test_dedup_keeps_distinct_roots_first_come():
    """Roots closer than the radius in (nu, tau), across the tau seam too,
    are one root, the first slot's; a root is tested against the kept
    roots only, and invalid slots are never kept."""
    two_pi = 2 * np.pi
    nu = np.array([[0.1, 0.1, 0.3, 0.0],
                   [0.2, 0.2 + 2e-6, 0.2, 0.2],
                   [0.0, 0.4, 0.4, 0.0],
                   [0.0, 0.0, 0.0, 0.0]])
    tau = np.array([[two_pi - 1e-9, 1e-9, two_pi + 1.0, 0.0],
                    [2.0, 2.0, 2.0 + 6e-7, 2.0 + 1.2e-6],
                    [1.0, 4.0, 4.0 + 1e-7, 5.0],
                    [1.0, 1.0, 2.0, 3.0]])
    valid = np.array([[True, True, True, False],
                      [True, True, True, True],
                      [False, True, True, False],
                      [False, False, False, False]])
    keep, rtau = V._dedup(nu, tau, valid, V.DEDUP_RADIUS)
    assert keep.tolist() == [[True, False, True, False],
                             [True, True, False, True],
                             [False, True, False, False],
                             [False, False, False, False]]
    assert not np.any(keep & ~valid)
    assert np.all((rtau >= 0.0) & (rtau < two_pi))
    assert rtau[0, 1] == 1e-9 and rtau[2, 1] == 4.0


def test_tau_seed_broadcasts():
    g, t = _base_points(S)
    seeds = V.tau_seed(g, t)
    assert seeds.shape == g.shape
    assert seeds.tolist() == [V.tau_seed(gi, ti) for gi, ti in zip(g, t)]
    grid = V.tau_seed(g[:, None], t[None, :])
    assert grid.shape == (g.size, t.size)
    assert grid[3, 5] == V.tau_seed(g[3], t[5])


def _exact_jacobian(code, s, gamma, theta, nu, tau):
    """G and its exact (nu, tau) Jacobian from the kernel's numpy face on
    scalars, which runs the batched Newton's arithmetic element by element."""
    f1, f2, ((j11, j12), (j21, j22)) = K.jet(code, s, gamma, theta, nu, tau,
                                             ("nu", "tau"), np)
    return f1, f2, j11, j12, j21, j22


def _stencil_jacobian(code, s, gamma, theta, nu, tau):
    """G and the central-difference (nu, tau) Jacobian that the batched Newton
    used before the exact one."""
    fd = 1e-6
    f1, f2 = K.g_scalar_py(code, s, gamma, theta, nu, tau)
    a11p, a21p = K.g_scalar_py(code, s, gamma, theta, nu + fd, tau)
    a11m, a21m = K.g_scalar_py(code, s, gamma, theta, nu - fd, tau)
    a12p, a22p = K.g_scalar_py(code, s, gamma, theta, nu, tau + fd)
    a12m, a22m = K.g_scalar_py(code, s, gamma, theta, nu, tau - fd)
    return (f1, f2, (a11p - a11m) / (2 * fd), (a12p - a12m) / (2 * fd),
            (a21p - a21m) / (2 * fd), (a22p - a22m) / (2 * fd))


def _newton_reference(jacobian, code, s, gamma, theta, nu, tau, tol, maxit):
    """The scalar loop the batched Newton replaced, with G and its Jacobian
    from ``jacobian``: (nu, tau, ok)."""
    for _ in range(maxit):
        f1, f2, j11, j12, j21, j22 = jacobian(code, s, gamma, theta, nu, tau)
        res = max(abs(f1), abs(f2))
        det = j11 * j22 - j12 * j21
        if res < tol:
            return nu, tau, True
        if abs(det) < 1e-300:
            return nu, tau, False
        dnu = -(f1 * j22 - f2 * j12) / det
        dtau = -(j11 * f2 - j21 * f1) / det
        scale = 1.0
        for _ in range(8):
            nu_t = nu + scale * dnu
            tau_t = tau + scale * dtau
            if abs(nu_t) < 0.999:
                h1, h2 = K.g_scalar_py(code, s, gamma, theta, nu_t, tau_t)
                if max(abs(h1), abs(h2)) < res:
                    break
            scale *= 0.5
        else:
            return nu, tau, False
        nu, tau = nu_t, tau_t
    f1, f2 = K.g_scalar_py(code, s, gamma, theta, nu, tau)
    return nu, tau, max(abs(f1), abs(f2)) < tol


def _newton_starts():
    """300 fibers and Newton starts: no-root fibers in a fold disk, starts
    near |nu| = 1, and the s = 0 seeds."""
    rng = np.random.default_rng(6)
    n = 300
    g = rng.uniform(0, 2 * np.pi, n)
    t = rng.uniform(0, 2 * np.pi, n)
    g[:15] = rng.uniform(-0.05, 0.05, 15)  # inside a fold disk: no root
    t[:15] = rng.uniform(-0.05, 0.05, 15)
    nu0 = rng.uniform(-0.99, 0.99, n)
    tau0 = rng.uniform(0, 2 * np.pi, n)
    # near |nu| = 1 some full steps leave the region |nu| < 0.999 and must be
    # rejected
    nu0[15:215] = rng.choice([-1.0, 1.0], 200) * rng.uniform(0.9, 0.998, 200)
    nu0[250:] = 0.0
    tau0[250:] = np.arctan2(np.sin(t[250:]), np.sin(g[250:]))
    return g, t, nu0, tau0


@pytest.mark.parametrize("variant", ["earring", "bypass"])
@pytest.mark.parametrize("tol, maxit", [(1e-12, 50), (1e-13, 50), (1e-12, 3)])
def test_newton_fibers_matches_scalar_loop(variant, tol, maxit):
    g, t, nu0, tau0 = _newton_starts()
    code = K.variant_code(variant)
    nu, tau, ok = K.newton_fibers(code, S, g, t, nu0, tau0, tol, maxit)
    assert np.any(ok) and not np.all(ok)
    for i in range(g.size):
        args = (code, S, g[i], t[i], nu0[i], tau0[i], tol, maxit)
        one = K.newton_fiber(*args)
        assert one == (nu[i], tau[i], ok[i])
        assert one == _newton_reference(_exact_jacobian, *args)
    batch = K.newton_fiber_batch(variant, S, g, t, nu0, tau0, tol, maxit)
    assert len(batch) == 3
    for a, b in zip(batch, (nu, tau, ok)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_newton_fibers_matches_the_stencil_loop(variant):
    """Where the exact-Jacobian Newton and the central-difference one both
    converge from the same start, they find the same root."""
    g, t, nu0, tau0 = _newton_starts()
    code = K.variant_code(variant)
    nu, tau, ok = K.newton_fibers(code, S, g, t, nu0, tau0, 1e-12, 50)
    both = 0
    for i in range(g.size):
        rnu, rtau, rok = _newton_reference(
            _stencil_jacobian, code, S, g[i], t[i], nu0[i], tau0[i], 1e-12, 50)
        if ok[i] and rok:
            both += 1
            assert abs(nu[i] - rnu) <= 1e-10
            assert abs(np.mod(tau[i] - rtau + np.pi, 2 * np.pi) - np.pi) <= 1e-10
    assert both > 0


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_newton_fibers_batches_give_each_element_its_own_bits(variant):
    """One batch over two start sets, the seeds of both sheets of
    ``_newton_starts``' fibers, gives each element the bits of the batch
    of its own start set."""
    g, t, nu0, tau0 = _newton_starts()
    starts = [(nu0, tau0), (-nu0, tau0 + np.pi)]
    alone = [K.newton_fibers(variant, S, g, t, *x) for x in starts]
    both = K.newton_fibers(variant, S, np.tile(g, 2), np.tile(t, 2),
                           *map(np.concatenate, zip(*starts)))
    for a, b, c in zip(both, *alone):
        assert a.tobytes() == np.concatenate([b, c]).tobytes()


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_backtracking_evaluates_g_at_most_twice_per_iteration(variant,
                                                               monkeypatch):
    """The full steps are one evaluation of G and the halvings of the
    refused ones one more, whatever the number of halvings."""
    evaluations, per_step = [], []
    g_impl, newton = K._g_impl, K.newton

    def counted_g(*args):
        evaluations.append(np.size(args[4]))
        return g_impl(*args)

    def counting(system, x, tol, maxit, inside=None, step=None):
        def counted_step(*args):
            evaluations.clear()
            out = step(*args)
            per_step.append(len(evaluations))
            return out
        return newton(system, x, tol, maxit, inside, counted_step)

    monkeypatch.setattr(K, "_g_impl", counted_g)
    monkeypatch.setattr(K, "newton", counting)
    g, t, nu0, tau0 = _newton_starts()
    K.newton_fibers(variant, S, g, t, nu0, tau0, 1e-13, 50)
    # the starts near |nu| = 1 take halvings, some all 7 of them
    assert max(per_step) == 2 and len(per_step) > 5


def test_trace_grid_64_makes_few_array_jet_calls(monkeypatch):
    """Work count of ``trace --grid 64``: one status pass, with both seeds'
    Newton in one batch and the halvings of an iteration in one
    evaluation, makes 44 array ``jet`` calls (219 with a batch per sheet
    and per pass, and an evaluation per halving)."""
    calls = []
    jet = K.jet

    def counted(code, s, gamma, *args, **kwargs):
        if not np.isscalar(gamma):
            calls.append(np.size(gamma))
        return jet(code, s, gamma, *args, **kwargs)

    monkeypatch.setattr(K, "jet", counted)
    rep = V.verify_topology("earring", 0.05, 64)
    assert rep.euler_characteristic == -8
    assert len(calls) <= 60


def test_classify_grid_counts_pinned():
    _, _, status = V.classify_grid("earring", 0.05, 64)
    kinds, counts = np.unique(status.astype(str), return_counts=True)
    assert dict(zip(kinds, counts.tolist())) == {
        "two_sheets": 4076, "fold_region": 16, "empty": 4}


@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_fibers_are_solved_at_the_target_s_only(variant, monkeypatch):
    """No continuation in s: every Newton runs at the s it was asked for."""
    newton = K.newton_fibers
    seen = []

    def recording(code, s, *args, **kwargs):
        seen.append(s)
        return newton(code, s, *args, **kwargs)

    monkeypatch.setattr(K, "newton_fibers", recording)
    g, t = _base_points(0.2)
    V.solve_fibers(variant, 0.2, g, t)
    assert seen and set(seen) == {0.2}
    seen.clear()
    V.classify_grid(variant, -0.2, 16)
    assert seen and set(seen) == {-0.2}


@pytest.mark.parametrize("s", [0.05, -0.05, 0.2, 0.45])
@pytest.mark.parametrize("variant", ["earring", "bypass"])
def test_two_sheeted_fibers_list_the_plus_sheet_first(variant, s):
    """``solutions[0]`` is the + sheet and ``solutions[1]`` the - sheet.
    Outside the fold band the + sheet is the one root within pi/2 in tau of
    its s = 0 seed; inside it, at large |s|, both roots can be on one side
    of pi/2, and the + sheet is the nearer one."""
    band_out = 1.3 * max(float(np.max(c.radii)) for c in V.fold_locus(variant, s))
    rng = np.random.default_rng(7)
    g, t = rng.uniform(0, 2 * np.pi, (2, 200))
    outside = 0
    for fs in V.solve_fibers(variant, s, g, t):
        if fs.status != "two_sheets":
            continue
        seed = V.tau_seed(fs.gamma, fs.theta)
        dist = [abs(np.mod(tau - seed + np.pi, 2 * np.pi) - np.pi)
                for _, tau in fs.solutions]
        assert dist[0] <= dist[1]
        if V._corner_distance(fs.gamma, fs.theta) > band_out:
            outside += 1
            assert dist[0] < np.pi / 2 <= dist[1]
    assert outside > 100
