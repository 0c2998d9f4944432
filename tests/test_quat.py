import numpy as np

from pillowcase import quat

from pillow_reference import stacked

K = (0.0, 0.0, 0.0, 1.0)


def qexp_series(v, terms=20):
    """Power-series oracle for the exponential of a pure quaternion."""
    out = power = quat.ONE
    fact = 1.0
    for k in range(1, terms + 1):
        power = quat.mul(power, v)
        fact *= k
        out = tuple(o + p / fact for o, p in zip(out, power))
    return out


def pure(x, y, z):
    return (0.0, x, y, z)


def test_basis_products():
    assert np.allclose(quat.mul(quat.I, quat.J), K)
    assert np.allclose(quat.mul(quat.I, quat.I), np.negative(quat.ONE))
    assert np.allclose(quat.mul(quat.J, K), quat.I)
    assert np.allclose(quat.mul(K, quat.I), quat.J)


def test_hamilton_product_hand_expansion():
    # e^{(pi/2) k} i = k i = j, and a generic product against the
    # component formula expanded by hand
    e = quat.qexp(0.0, 0.0, np.pi / 2)
    assert np.allclose(quat.mul(e, quat.I), quat.J, atol=1e-15)

    a = np.array([0.3, -0.1, 0.7, 0.2])
    b = np.array([-0.4, 0.5, 0.1, 0.9])
    w = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
    x = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
    y = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1]
    z = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]
    assert np.allclose(quat.mul(a, b), [w, x, y, z], atol=1e-15)


def test_real_imaginary_parts():
    assert quat.mul(quat.I, quat.J)[0] == 0.0
    t = 0.73
    q = quat.qexp(0.0, 0.0, t)
    assert q[0] == np.cos(t)
    assert np.allclose(q[1:], np.sin(t) * np.array(K[1:]))
    assert quat.conj(q) == (q[0], *np.negative(q[1:]))


def test_conj_inverts_unit_quaternions():
    q = quat.qexp(0.0, 0.3, 0.0)
    inv = quat.conj(q)
    assert np.allclose(inv, quat.qexp(0.0, -0.3, 0.0), atol=1e-15)
    assert np.max(np.abs(np.subtract(quat.mul(q, inv), quat.ONE))) < 1e-14


def test_qexp_limits_and_series_oracle():
    assert np.allclose(quat.qexp(0.0, 0.0, 0.0), quat.ONE)
    assert np.allclose(quat.qexp(np.pi / 2, 0.0, 0.0), quat.I, atol=1e-15)
    v = pure(0.0, 0.1, 0.2)
    assert np.max(np.abs(np.subtract(quat.qexp(*v[1:]),
                                     qexp_series(v)))) < 1e-12
    # norm and axis
    q = quat.qexp(*v[1:])
    n = np.hypot(0.1, 0.2)
    assert abs(q[0] - np.cos(n)) < 1e-14
    axis = np.array(q[1:]) / np.linalg.norm(q[1:])
    assert np.allclose(axis * n, [0.0, 0.1, 0.2], atol=1e-13)


def test_unit_and_inverse_properties_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = quat.normalize(rng.normal(size=4))
        q = quat.normalize(rng.normal(size=4))
        pq = quat.mul(p, q)
        assert abs(np.linalg.norm(pq) - 1.0) <= 1e-12
        lhs = quat.conj(pq)
        rhs = quat.mul(quat.conj(q), quat.conj(p))
        assert np.max(np.abs(np.subtract(lhs, rhs))) <= 1e-12


def test_qexp_real_part_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        assert abs(quat.qexp(*v)[0] - np.cos(n)) <= 1e-12


def test_perpendicular_traceless_commutator_is_minus_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = quat.normalize(pure(*rng.normal(size=3)))
        # random perpendicular traceless unit
        w = rng.normal(size=3)
        w -= np.dot(w, u[1:]) * np.array(u[1:])
        v = pure(*(w / np.linalg.norm(w)))
        comm = quat.mul(quat.mul(quat.mul(u, v), quat.conj(u)),
                        quat.conj(v))
        assert np.max(np.abs(np.add(comm, quat.ONE))) <= 1e-12


def test_rotation_taking():
    rng = np.random.default_rng(3)
    for _ in range(50):
        src = quat.normalize(pure(*rng.normal(size=3)))
        dst = quat.normalize(pure(*rng.normal(size=3)))
        u = quat.rotation_taking(src, dst)
        assert np.max(np.abs(np.subtract(quat.rotate(u, src), dst))) < 1e-12
    # antipodal case
    minus_i = quat.conj(quat.I)
    u = quat.rotation_taking(quat.I, minus_i)
    assert np.max(np.abs(np.subtract(quat.rotate(u, quat.I),
                                     minus_i))) < 1e-12


def test_broadcasting():
    rng = np.random.default_rng(4)
    a = quat.normalize(tuple(rng.normal(size=(4, 7))))
    b = quat.normalize(tuple(rng.normal(size=(4, 7))))
    ab = stacked(quat.mul(a, b))
    for k in range(7):
        assert np.allclose(ab[k], quat.mul([x[k] for x in a],
                                           [x[k] for x in b]))
