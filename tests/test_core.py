"""Tests for the reduced state, body parameters, and conserved quantities."""

import math

import numpy as np
import pytest

from orbitron.core import (
    BodyParams,
    Multipliers,
    ReducedState,
    casimirs,
    hamiltonian,
    momentum_j3,
)
from orbitron.fields import DipolePair
from orbitron.potential import DipolePotential


def build_multipliers(omega, lambda1, lambda2, I_perp):
    """Multipliers from (omega, lambda1, lambda2), with lambda_ = 2 lambda1 - lambda2**2 I_perp."""
    return Multipliers(omega, lambda1, lambda2, 2.0 * lambda1 - lambda2**2 * I_perp)


def augmented_hamiltonian(s, b, V, m, include_casimir=False):
    """h - omega J3 + lambda1 C1 + lambda2 C2, whose critical points are relative equilibria."""
    c1, c2 = casimirs(s)
    return (
        hamiltonian(s, b, V, include_casimir)
        - m.omega * momentum_j3(s)
        + m.lambda1 * c1
        + m.lambda2 * c2
    )


def axial_symmetry_residual(V, s: ReducedState) -> float:
    """Generator of simultaneous rotation of x and nu applied to V.

    Vanishes identically for an axisymmetric potential:
    x1 dV/dx2 - x2 dV/dx1 + nu1 dV/dnu2 - nu2 dV/dnu1 = 0.
    """
    gx = V.grad_x(s.x, s.nu)
    gn = V.grad_nu(s.x, s.nu)
    return float(
        s.x[0] * gx[1] - s.x[1] * gx[0] + s.nu[0] * gn[1] - s.nu[1] * gn[0]
    )


class _Quadratic:
    """V = x.x + nu3, with exact gradients; not axisymmetric in nu."""

    def value(self, x, nu):
        return float(x @ x + nu[2])

    def grad_x(self, x, nu):
        return 2.0 * x

    def grad_nu(self, x, nu):
        return np.array([0.0, 0.0, 1.0])


class _Linear1:
    """V = x1, the textbook non-axisymmetric potential."""

    def value(self, x, nu):
        return float(x[0])

    def grad_x(self, x, nu):
        return np.array([1.0, 0.0, 0.0])

    def grad_nu(self, x, nu):
        return np.zeros(3)


class _Nu1:
    """V = nu1."""

    def value(self, x, nu):
        return float(nu[0])

    def grad_x(self, x, nu):
        return np.zeros(3)

    def grad_nu(self, x, nu):
        return np.array([1.0, 0.0, 0.0])


def _random_state(rng):
    return ReducedState(
        x=rng.normal(0.0, 1.0, 3),
        p=rng.normal(0.0, 1.0, 3),
        nu=rng.normal(0.0, 1.0, 3),
        pi=rng.normal(0.0, 1.0, 3),
    )


def test_state_vector_roundtrip():
    rng = np.random.default_rng(1)
    s = _random_state(rng)
    y = s.as_vector()
    assert y.shape == (12,)
    s2 = ReducedState.from_vector(y)
    for name in ("x", "p", "nu", "pi"):
        assert np.array_equal(getattr(s, name), getattr(s2, name))


def test_state_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        ReducedState(x=np.zeros(2), p=np.zeros(3), nu=np.zeros(3), pi=np.zeros(3))
    with pytest.raises(ValueError):
        ReducedState(x=np.zeros(3), p=np.zeros((3, 1)), nu=np.zeros(3), pi=np.zeros(3))
    with pytest.raises(ValueError):
        ReducedState.from_vector(np.zeros(11))


def test_body_params_validation():
    BodyParams(M=1.0, I_perp=1.0, I3=1.0, mu=1.0, g=0.0)
    BodyParams(g=9.81)
    for bad in (
        dict(M=0.0),
        dict(M=-1.0),
        dict(I_perp=0.0),
        dict(I3=-0.1),
        dict(mu=0.0),
        dict(g=-1.0),
    ):
        with pytest.raises(ValueError):
            BodyParams(**bad)


def test_multipliers_build_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        om, l1, l2, ip = rng.normal(0.0, 3.0, 4)
        ip = abs(ip) + 0.1
        m = build_multipliers(om, l1, l2, ip)
        assert m.lambda_ == 2.0 * m.lambda1 - m.lambda2**2 * ip
        m2 = Multipliers.from_lambda(om, m.lambda_, l2, ip)
        assert math.isclose(m2.lambda1, l1, rel_tol=1e-13, abs_tol=1e-13)


def test_casimirs_hand_values():
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.0, 0.0, 1.0]), pi=np.array([0.0, 0.0, 2.0]))
    assert casimirs(s) == (1.0, 2.0)
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.0, 0.0, 1.0]), pi=np.array([3.0, 0.0, 0.0]))
    assert casimirs(s) == (1.0, 0.0)
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.6, 0.0, 0.8]), pi=np.array([1.0, 2.0, 3.0]))
    c1, c2 = casimirs(s)
    assert math.isclose(c1, 1.0, abs_tol=1e-15)
    assert math.isclose(c2, 3.0, abs_tol=1e-15)


def test_momentum_j3_hand_values():
    r0, M, om, pi0 = 0.8, 1.3, 2.0, 10.0
    s = ReducedState(
        x=np.array([r0, 0.0, 0.0]),
        p=np.array([0.0, M * om * r0, 0.0]),
        nu=np.array([0.0, 0.0, 1.0]),
        pi=np.array([0.0, 0.0, pi0]),
    )
    assert math.isclose(momentum_j3(s), pi0 + M * om * r0**2, rel_tol=1e-15)
    zero = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.zeros(3), pi=np.zeros(3))
    assert momentum_j3(zero) == 0.0
    s = ReducedState(
        x=np.array([1.0, 1.0, 0.0]),
        p=np.array([1.0, 1.0, 0.0]),
        nu=np.zeros(3),
        pi=np.array([0.0, 0.0, 5.0]),
    )
    assert momentum_j3(s) == 5.0


def test_casimirs_match_independent_formulas():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = _random_state(rng)
        c1, c2 = casimirs(s)
        (n1, n2, n3), (q1, q2, q3) = s.nu.tolist(), s.pi.tolist()
        assert c1 == (n1 * n1 + n2 * n2) + n3 * n3
        assert c2 == (n1 * q1 + n2 * q2) + n3 * q3
        assert momentum_j3(s) == float(s.pi[2] + s.x[0] * s.p[1] - s.x[1] * s.p[0])


def test_hamiltonian_manual_sum():
    b = BodyParams(M=2.0, I_perp=0.5, I3=0.3, mu=1.0, g=0.0)
    rng = np.random.default_rng(4)
    V = _Quadratic()
    for _ in range(10):
        s = _random_state(rng)
        manual = (
            float(s.p @ s.p) / (2.0 * b.M)
            + float(s.pi @ s.pi) / (2.0 * b.I_perp)
            + V.value(s.x, s.nu)
        )
        assert math.isclose(hamiltonian(s, b, V), manual, rel_tol=1e-15, abs_tol=1e-15)


def test_hamiltonian_simple_cases():
    class _Zero:
        def value(self, x, nu):
            return 0.0

        def grad_x(self, x, nu):
            return np.zeros(3)

        def grad_nu(self, x, nu):
            return np.zeros(3)

    zero_state = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.zeros(3), pi=np.zeros(3))
    b = BodyParams()
    assert hamiltonian(zero_state, b, _Zero()) == 0.0
    s = ReducedState(x=np.zeros(3), p=np.array([2.0, 0.0, 0.0]), nu=np.zeros(3), pi=np.zeros(3))
    assert hamiltonian(s, BodyParams(M=2.0), _Zero()) == 1.0


def test_casimir_energy_flag_adds_constant():
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=0.0)
    V = _Quadratic()
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = _random_state(rng)
        _, c2 = casimirs(s)
        delta = (0.5 / b.I3 - 0.5 / b.I_perp) * c2**2
        got = hamiltonian(s, b, V, include_casimir=True) - hamiltonian(s, b, V)
        assert math.isclose(got, delta, rel_tol=1e-12, abs_tol=1e-13)


def test_augmented_hamiltonian_affine_structure():
    b = BodyParams(M=1.5, I_perp=0.4, I3=0.2, mu=1.0, g=0.0)
    V = _Quadratic()
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = _random_state(rng)
        om, l1, l2 = rng.normal(0.0, 2.0, 3)
        m = build_multipliers(om, l1, l2, b.I_perp)
        c1, c2 = casimirs(s)
        manual = hamiltonian(s, b, V) - om * momentum_j3(s) + l1 * c1 + l2 * c2
        assert math.isclose(augmented_hamiltonian(s, b, V, m), manual, rel_tol=1e-13, abs_tol=1e-13)
    # all multipliers zero reduces to the plain hamiltonian
    s = _random_state(rng)
    m0 = build_multipliers(0.0, 0.0, 0.0, b.I_perp)
    assert augmented_hamiltonian(s, b, V, m0) == hamiltonian(s, b, V)


def test_augmented_hamiltonian_casimir_only():
    b = BodyParams()

    class _Zero:
        def value(self, x, nu):
            return 0.0

        def grad_x(self, x, nu):
            return np.zeros(3)

        def grad_nu(self, x, nu):
            return np.zeros(3)

    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.0, 0.0, 1.0]), pi=np.zeros(3))
    m = build_multipliers(0.0, 2.0, 0.0, b.I_perp)
    assert augmented_hamiltonian(s, b, _Zero(), m) == 2.0


def test_axial_symmetry_residual_zero_for_dipole_potential():
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=3.0)
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = _random_state(rng)
        # keep clear of the axis and the two sources
        s = ReducedState(x=s.x + np.array([2.5, 0.0, 0.0]), p=s.p, nu=s.nu, pi=s.pi)
        scale = max(1.0, float(np.max(np.abs(V.grad_x(s.x, s.nu)))), float(np.max(np.abs(V.grad_nu(s.x, s.nu)))))
        assert abs(axial_symmetry_residual(V, s)) <= 1e-12 * scale


def test_axial_symmetry_residual_detects_asymmetry():
    s = ReducedState(x=np.array([0.0, 1.0, 0.0]), p=np.zeros(3), nu=np.zeros(3), pi=np.zeros(3))
    assert axial_symmetry_residual(_Linear1(), s) == -1.0
    s = ReducedState(x=np.zeros(3), p=np.zeros(3), nu=np.array([0.0, 1.0, 0.0]), pi=np.zeros(3))
    assert axial_symmetry_residual(_Nu1(), s) == -1.0


def test_hamiltonian_rotation_invariance():
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=2.0)
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = _random_state(rng)
        s = ReducedState(x=s.x + np.array([2.5, 0.0, 0.0]), p=s.p, nu=s.nu, pi=s.pi)
        a = rng.uniform(0.0, 2.0 * np.pi)
        c, sn = np.cos(a), np.sin(a)
        R = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        rs = ReducedState(x=R @ s.x, p=R @ s.p, nu=R @ s.nu, pi=R @ s.pi)
        h0, h1 = hamiltonian(s, b, V), hamiltonian(rs, b, V)
        assert abs(h1 - h0) <= 1e-12 * max(1.0, abs(h0))
