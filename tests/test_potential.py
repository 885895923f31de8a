"""Tests for the dipole-plus-gravity potential and its Hessian blocks."""

import math

import numpy as np
import pytest

from orbitron.core import BodyParams
from orbitron.errors import AxisDegeneracy
from orbitron.fields import (
    Composite,
    DipolePair,
    Linear,
    eval_jet,
)
from orbitron.potential import (
    BASIS_EPS,
    DipolePotential,
    _planar_direction,
    _radius,
    _support_blocks,
    hessian_blocks,
)
from test_fields import cartesian_field, cartesian_hessian, cartesian_jacobian

E1, E2, E3 = np.eye(3)


def _body(g=0.0):
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=g)


def _alpha(nu):
    """The rotated basis as columns: alpha = [[c, -s], [s, c]] maps (E1, E2) components to (x, y)."""
    c, s = _planar_direction(nu[0], nu[1])
    return np.array([[c, -s], [s, c]])


def test_rotated_basis_examples():
    # E1 = (c, s) along the planar part, E2 = e3 x E1 = (-s, c)
    assert _alpha([1.0, 0.0]).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert _alpha([0.0, 2.0]).tolist() == [[0.0, -1.0], [1.0, 0.0]]
    # the identity basis at and under BASIS_EPS
    for nu in ([0.0, 0.0], [3e-13, -4e-13], [BASIS_EPS, 0.0]):
        assert _alpha(nu).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert _alpha([0.0, 2 * BASIS_EPS]).tolist() == [[0.0, -1.0], [1.0, 0.0]]


def test_rotated_basis_properties():
    rng = np.random.default_rng(30)
    for _ in range(20):
        v = rng.normal(0.0, 1.0, 2)
        alpha = _alpha(v)
        E1, E2 = alpha[:, 0], alpha[:, 1]
        np.testing.assert_allclose(alpha.T @ alpha, np.eye(2), atol=1e-14)
        # E1 points along v, and the planar cross product E1 x E2 along +e3
        np.testing.assert_allclose(E1 * np.linalg.norm(v), v, rtol=0, atol=1e-14)
        assert math.isclose(E1[0] * E2[1] - E1[1] * E2[0], 1.0, abs_tol=1e-14)


def test_potential_value_cases():
    b = _body(g=0.0)
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    # nu perpendicular to B on the axis plane: B at (r,0,0) has no y component
    x = np.array([0.8, 0.0, 0.0])
    assert V.value(x, np.array([0.0, 1.0, 0.0])) == 0.0
    # nu along e3 against a purely axial field
    j = eval_jet(DipolePair(1.0, 1.0), 0.0, 0.0)
    assert math.isclose(
        V.value(np.array([0.0, 0.0, 0.0]), E3), -b.mu * j.Bz, rel_tol=1e-15
    )


def test_zero_field_reduces_to_gravity():
    # with an identically zero field only the M g x3 term remains
    b = _body(g=9.81)
    V = DipolePotential(Linear(0.0, 0.0), b)
    x = np.array([0.4, -0.2, 2.0])
    nu = np.array([0.3, 0.5, 0.8])
    assert V.value(x, nu) == 2.0 * b.M * b.g
    np.testing.assert_array_equal(V.grad_x(x, nu), np.array([0.0, 0.0, b.M * b.g]))
    np.testing.assert_array_equal(V.grad_nu(x, nu), np.zeros(3))
    blocks = hessian_blocks(0.7, np.array([0.6, 0.0, 0.8]), Linear(0.0, 0.0), b)
    np.testing.assert_array_equal(blocks.Vxx, np.zeros((3, 3)))
    np.testing.assert_array_equal(blocks.VxN, np.zeros((3, 2)))
    np.testing.assert_array_equal(blocks.Vx3, np.zeros(3))


def test_linear_field_axial_gradient():
    b = _body(g=2.5)
    Bp = 3.0
    V = DipolePotential(Linear(1.0, Bp), b)
    x = np.array([0.5, 0.0, 0.2])
    g = V.grad_x(x, E3)
    # radial magnetic pull for nu = e3 vanishes; axial slope is -mu B' + M g
    assert abs(g[0]) <= 1e-14 and abs(g[1]) <= 1e-14
    assert math.isclose(g[2], -b.mu * Bp + b.M * b.g, rel_tol=1e-14)


def test_grad_nu_is_exactly_minus_mu_B():
    b = _body()
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    V = DipolePotential(model, b)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = np.array([rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)])
        r = float(np.hypot(x[0], x[1]))
        j = eval_jet(model, r, x[2])
        np.testing.assert_array_equal(V.grad_nu(x, E3), -b.mu * cartesian_field(j, x))


def test_grad_x_matches_finite_differences():
    b = _body(g=1.7)
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    V = DipolePotential(model, b)
    rng = np.random.default_rng(32)
    for _ in range(10):
        x = np.array([rng.uniform(0.4, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)])
        nu = rng.normal(0.0, 1.0, 3)
        nu /= np.linalg.norm(nu)
        g = V.grad_x(x, nu)
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            fd = (V.value(x + e, nu) - V.value(x - e, nu)) / (2.0 * h)
            assert abs(g[c] - fd) <= 1e-6 * max(1.0, abs(g[c]))


def _tilted_points(rng, k):
    """k points off the axis and k unit axes with nu_y != 0."""
    x = np.column_stack([rng.uniform(0.3, 1.8, k), rng.uniform(-1.0, 1.0, k), rng.uniform(-0.5, 0.5, k)])
    nu = np.column_stack([rng.uniform(-0.6, 0.6, k), rng.uniform(0.2, 0.6, k), np.ones(k)])
    return x, nu / np.linalg.norm(nu, axis=1)[:, None]


def test_potential_on_a_stack_matches_single_points():
    b = _body(g=1.9)
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), b)
    x, nu = _tilted_points(np.random.default_rng(38), 5)
    for method, shape in ((V.value, (5,)), (V.grad_x, (5, 3)), (V.grad_nu, (5, 3))):
        stacked = method(x, nu)
        assert stacked.shape == shape
        np.testing.assert_array_equal(stacked, [method(xk, nk) for xk, nk in zip(x, nu)])
    x[3, :2] = 0.0
    with pytest.raises(AxisDegeneracy):
        V.grad_x(x, nu)
    with pytest.raises(AxisDegeneracy):
        V.grad_x(x[3], nu[3])


def test_gradient_terms_are_both_gradients_from_one_jet():
    b = _body(g=1.9)
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), b)
    x, nu = _tilted_points(np.random.default_rng(40), 5)
    stacked = V.gradient_terms(*x.T, *nu.T)
    assert len(stacked) == 6 and all(c.shape == (5,) for c in stacked)
    for k, (xk, nk) in enumerate(zip(x, nu)):
        single = V.gradient_terms(*xk.tolist(), *nk.tolist())
        assert all(type(c) is float for c in single)
        assert single == tuple(float(c[k]) for c in stacked)
        np.testing.assert_array_equal(np.array(single[:3]), V.grad_x(xk, nk))
        np.testing.assert_array_equal(np.array(single[3:]), V.grad_nu(xk, nk))
    np.testing.assert_array_equal(np.stack(stacked[:3], axis=-1), V.grad_x(x, nu))
    np.testing.assert_array_equal(np.stack(stacked[3:], axis=-1), V.grad_nu(x, nu))
    with pytest.raises(AxisDegeneracy):
        V.gradient_terms(0.0, 0.0, 0.3, *nu[0].tolist())


def test_float_radius_is_np_hypot_bit_for_bit():
    # a float radius comes from libm's hypot, which np.hypot calls per
    # element; a platform where the two disagree fails here
    rng = np.random.default_rng(21)
    mags = 10.0 ** rng.uniform(-300.0, 300.0, (2, 200_000))
    a, b = rng.choice([-1.0, 1.0], (2, 200_000)) * mags
    special = [0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1e-310, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
    a = np.concatenate([a, np.repeat(special, len(special))])
    b = np.concatenate([b, np.tile(special, len(special))])
    # a band near the largest float, where most radii overflow to inf
    band = rng.choice([-1.0, 1.0], (2, 50_000)) * rng.uniform(0.5, 1.0, (2, 50_000)) * 1.797e308
    a, b = np.concatenate([a, band[0]]), np.concatenate([b, band[1]])
    got = np.array([_radius(x, y) for x, y in zip(a.tolist(), b.tolist())])
    with np.errstate(over="ignore"):
        assert got.tobytes() == np.hypot(a, b).tobytes()
        assert 0.5 < np.isinf(np.hypot(*band)).mean() < 0.9


def test_float_gradient_terms_calls_no_np_hypot(monkeypatch):
    calls = []
    hypot = np.hypot

    def counted(*args):
        calls.append(args)
        return hypot(*args)

    monkeypatch.setattr(np, "hypot", counted)
    V = DipolePotential(DipolePair(1.0, 1.0), _body())
    V.gradient_terms(0.8, 0.1, 0.05, 0.1, 0.2, 0.97)
    assert calls == []
    V.gradient_terms(np.array([0.8]), np.array([0.1]), 0.05, 0.1, 0.2, 0.97)
    assert len(calls) == 1


def test_potential_at_one_point_gives_a_float_and_vectors():
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), _body(g=1.9))
    x, nu = np.array([0.8, 0.3, 0.1]), np.array([0.6, 0.48, 0.64])
    assert type(V.value(x, nu)) is float
    for grad in (V.grad_x(x, nu), V.grad_nu(x, nu)):
        assert type(grad) is np.ndarray and grad.shape == (3,)


def test_grad_x_matches_jacobian_contraction():
    b = _body(g=1.9)
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    V = DipolePotential(model, b)
    x, nu = _tilted_points(np.random.default_rng(39), 20)
    for xk, nk in zip(x, nu):
        J = cartesian_jacobian(eval_jet(model, float(np.hypot(xk[0], xk[1])), float(xk[2])), xk)
        expected = -b.mu * J @ nk + b.M * b.g * E3
        # the largest a term of the gradient can be, as |nu| = 1
        scale = b.mu * np.abs(J).max() + b.M * b.g
        assert np.abs(V.grad_x(xk, nk) - expected).max() <= 1e-15 * scale


def test_hessian_blocks_nu_blocks_vanish():
    b = _body(g=1.0)
    model = DipolePair(1.0, 1.0)
    rng = np.random.default_rng(34)
    for _ in range(5):
        nu = rng.normal(0.0, 1.0, 3)
        nu /= np.linalg.norm(nu)
        blocks = hessian_blocks(0.8, nu, model, b)
        np.testing.assert_array_equal(blocks.VNN, np.zeros((2, 2)))
        np.testing.assert_array_equal(blocks.VN3, np.zeros(2))
        assert blocks.V33 == 0.0


def test_hessian_blocks_explicit_formulas():
    # in-plane second derivatives written out in terms of the field jet
    b = _body()
    model = DipolePair(1.0, 1.0)
    r = 0.8
    for nu in (np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8]), np.array([-0.28, 0.0, 0.96])):
        j = eval_jet(model, r, 0.0)
        blocks = hessian_blocks(r, nu, model, b)
        nr, nz = nu[0], nu[2]
        v11 = -b.mu * nz * j.Bz_rr + b.mu * nr * j.Bz_rz - b.mu * nr * (j.Bz_z + 2.0 * j.Br / r) / r
        v13 = -b.mu * nz * j.Bz_rz - b.mu * nr * j.Bz_rr
        v33 = -b.mu * nz * j.Bz_zz - b.mu * nr * j.Bz_rz
        assert math.isclose(blocks.Vxx[0, 0], v11, rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(blocks.Vxx[0, 2], v13, rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(blocks.Vxx[2, 2], v33, rel_tol=1e-12, abs_tol=1e-14)


def test_hessian_blocks_orbitron_case():
    b = _body()
    model = DipolePair(1.0, 1.0)
    r = 0.8
    j = eval_jet(model, r, 0.0)
    blocks = hessian_blocks(r, E3, model, b)
    assert math.isclose(blocks.Vxx[0, 0], -b.mu * j.Bz_rr, rel_tol=1e-13)
    assert math.isclose(blocks.Vxx[2, 2], -b.mu * j.Bz_zz, rel_tol=1e-13)
    assert abs(blocks.Vxx[0, 2]) <= 1e-14


def test_hessian_blocks_match_finite_differences():
    b = _body(g=1.3)
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    V = DipolePotential(model, b)
    rng = np.random.default_rng(35)
    r0 = 0.8
    x0 = np.array([r0, 0.0, 0.0])
    for _ in range(5):
        nu = rng.normal(0.0, 1.0, 3)
        nu /= np.linalg.norm(nu)
        blocks = hessian_blocks(r0, nu, model, b)
        h = 1e-6
        # x-x block
        fd_xx = np.zeros((3, 3))
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            fd_xx[:, c] = (V.grad_x(x0 + e, nu) - V.grad_x(x0 - e, nu)) / (2.0 * h)
        np.testing.assert_allclose(blocks.Vxx, 0.5 * (fd_xx + fd_xx.T), rtol=0,
                                   atol=1e-5 * max(1.0, float(np.max(np.abs(blocks.Vxx)))))
        # mixed x-nu block in the rotated basis
        fd_xnu = np.zeros((3, 3))
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            fd_xnu[:, c] = (V.grad_x(x0, nu + e) - V.grad_x(x0, nu - e)) / (2.0 * h)
        mixed_rot = fd_xnu[:, :2] @ _alpha(nu)
        np.testing.assert_allclose(blocks.VxN, mixed_rot, rtol=0,
                                   atol=1e-5 * max(1.0, float(np.max(np.abs(blocks.VxN)))))
        np.testing.assert_allclose(blocks.Vx3, fd_xnu[:, 2], rtol=0,
                                   atol=1e-5 * max(1.0, float(np.max(np.abs(blocks.Vx3)))))


def test_mixed_blocks_follow_jacobian():
    # VxN and Vx3 are columns of -mu J rotated into the in-plane basis
    b = _body()
    model = DipolePair(1.0, 1.0)
    r0 = 0.8
    x0 = np.array([r0, 0.0, 0.0])
    rng = np.random.default_rng(36)
    J = cartesian_jacobian(eval_jet(model, r0, 0.0), x0)
    for _ in range(10):
        nu = rng.normal(0.0, 1.0, 3)
        nu /= np.linalg.norm(nu)
        blocks = hessian_blocks(r0, nu, model, b)
        mixed = -b.mu * J
        np.testing.assert_allclose(blocks.VxN, mixed[:, :2] @ _alpha(nu), rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocks.Vx3, mixed[:, 2], rtol=0, atol=1e-12)


def test_hessian_blocks_requires_support_form():
    b = _body()
    model = DipolePair(1.0, 1.0)
    with pytest.raises(AxisDegeneracy):
        hessian_blocks(0.0, E3, model, b)
    with pytest.raises(AxisDegeneracy):
        hessian_blocks(-0.5, E3, model, b)


def test_vxx_from_cartesian_hessian_contraction():
    b = _body()
    model = DipolePair(1.0, 1.0)
    r0 = 0.8
    x0 = np.array([r0, 0.0, 0.0])
    H = cartesian_hessian(eval_jet(model, r0, 0.0), x0)
    rng = np.random.default_rng(37)
    for _ in range(5):
        nu = rng.normal(0.0, 1.0, 3)
        nu /= np.linalg.norm(nu)
        blocks = hessian_blocks(r0, nu, model, b)
        expected = -b.mu * np.einsum("k,kij->ij", nu, H)
        np.testing.assert_allclose(blocks.Vxx, expected, rtol=0, atol=1e-13)


def test_stacked_support_blocks_match_pointwise_blocks():
    # the closed form on stacked cells gives each cell's hessian_blocks bit for bit
    b = _body()
    model = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0), DipolePair(0.3, 1.6)))
    nu = np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [0.6, 0.0, 0.8],
            [-0.28, 0.0, 0.96],
            [0.36, 0.48, 0.8],
            [-0.48, -0.36, -0.8],
            [0.3, -0.9, 0.1],
            [3e-13, -4e-13, 1.0],
            [-5e-13, 0.0, -1.0],
        ]
    )
    nu /= np.linalg.norm(nu, axis=1)[:, None]
    r0 = np.linspace(0.4, 2.5, len(nu))
    stacked = _support_blocks(eval_jet(model, r0, 0.0), r0, tuple(nu.T), b.mu)
    for k in range(len(r0)):
        ref = hessian_blocks(r0[k], nu[k], model, b)
        for name in ("Vxx", "VxN", "Vx3", "VNN", "VN3", "V33"):
            got = getattr(stacked, name)
            assert got.shape[-1] == len(r0)
            assert np.array_equal(got[..., k], getattr(ref, name))
        if math.hypot(nu[k, 0], nu[k, 1]) <= BASIS_EPS:
            assert [float(v) for v in _planar_direction(nu[k, 0], nu[k, 1])] == [1.0, 0.0]
