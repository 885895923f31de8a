"""Tests for relative-equilibrium solvers and the levitation closed form."""

import math
from dataclasses import replace

import numpy as np
import pytest

from orbitron.core import BodyParams, casimirs
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    build_support_state,
    first_order_residual,
    solve_dipole_equilibrium,
    solve_levitation,
    solve_orbitron_equatorial,
)
from orbitron.core import augmented_hamiltonian
from orbitron.errors import (
    BadSign,
    NoEquilibrium,
    NoRealSolution,
    NotMirrorSymmetric,
    WrongFieldSign,
)
from orbitron.fields import Composite, DipolePair, Linear, eval_jet
from orbitron.potential import DipolePotential
from orbitron.scan import split_levitation_model

FROZEN_OMEGA_SQ = 3.568922026299016


def _body(g=0.0):
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=g)


def _levitation_setup(r0=0.8, kappa=1.001):
    model = Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, r0, 0.0).Br_z / linear.Bp
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=kappa * linear.Bp)
    return model, b, beta, kappa


def test_equatorial_frozen_rotation_rate():
    b = _body()
    model = DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    om = eq.mult.omega
    assert math.isclose(om * om, FROZEN_OMEGA_SQ, rel_tol=1e-12)
    # independent route through the mid-plane radial slope
    j = eval_jet(model, 0.8, 0.0)
    assert math.isclose(om * om, -b.mu * j.Bz_r / (b.M * 0.8), rel_tol=1e-14)
    assert eq.residual <= 1e-12
    assert eq.sigma == 1
    np.testing.assert_array_equal(eq.nu0, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(eq.pi0, [0.0, 0.0, 10.0])
    assert eq.C2 == 10.0
    assert math.isclose(eq.p0, b.M * om * 0.8, rel_tol=1e-15)


def test_equatorial_multiplier_formulas():
    b = _body()
    model = DipolePair(1.0, 1.0)
    pi0 = 10.0
    eq = solve_orbitron_equatorial(model, b, 0.8, pi0)
    om = eq.mult.omega
    j = eval_jet(model, 0.8, 0.0)
    assert math.isclose(eq.mult.lambda_, b.mu * j.Bz + om * (pi0 - b.I_perp * om), rel_tol=1e-14)
    assert math.isclose(eq.mult.lambda2, om - pi0 / b.I_perp, rel_tol=1e-14)
    m = eq.mult
    big = m.lambda2**2 * b.I_perp
    assert abs(m.lambda_ - (2.0 * m.lambda1 - big)) <= 1e-12 * big


def test_equatorial_opposite_orientation():
    b = _body()
    model = DipolePair(1.0, 1.0)
    # inside r = 2h the mid-plane slope is negative: only sigma = +1 balances
    with pytest.raises(WrongFieldSign):
        solve_orbitron_equatorial(model, b, 0.8, 10.0, sigma=-1)
    # outside r = 2h the slope flips and only sigma = -1 balances
    with pytest.raises(WrongFieldSign):
        solve_orbitron_equatorial(model, b, 3.0, 10.0, sigma=1)
    eq = solve_orbitron_equatorial(model, b, 3.0, 10.0, sigma=-1)
    j = eval_jet(model, 3.0, 0.0)
    assert j.Bz_r > 0.0
    assert math.isclose(eq.mult.omega**2, b.mu * j.Bz_r / (b.M * 3.0), rel_tol=1e-13)
    np.testing.assert_array_equal(eq.nu0, [0.0, 0.0, -1.0])
    assert eq.residual <= 1e-12


def test_equatorial_argument_validation():
    b = _body()
    model = DipolePair(1.0, 1.0)
    with pytest.raises(ValueError):
        solve_orbitron_equatorial(model, b, 0.8, 10.0, sigma=2)
    with pytest.raises(ValueError):
        solve_orbitron_equatorial(model, b, -0.8, 10.0)
    with pytest.raises(ValueError):
        solve_orbitron_equatorial(model, _body(g=1.0), 0.8, 10.0)
    with pytest.raises(NotMirrorSymmetric):
        solve_orbitron_equatorial(Composite((Linear(1.0, 3.0), model)), b, 0.8, 10.0)


def _orbitron_both_sigmas(negative_omega):
    b, model = _body(), DipolePair(1.0, 1.0)
    return [
        solve_orbitron_equatorial(model, b, r0, 10.0, sigma, negative_omega=negative_omega)
        for r0, sigma in ((0.8, 1), (3.0, -1))
    ]


def _dipole_branches(negative_omega):
    # the tilted branch of the levitation composite and the equatorial branch of the pair
    model, b, _, _ = _levitation_setup()
    tilted = solve_dipole_equilibrium(model, b, 0.8, 1.0, negative_omega=negative_omega)
    equatorial = solve_dipole_equilibrium(DipolePair(1.0, 1.0), _body(), 0.8, 10.0, negative_omega=negative_omega)
    assert tilted[0].nu0[0] != 0.0 and equatorial[0].nu0[0] == 0.0
    return tilted + equatorial


def _levitation_branch(negative_omega):
    model, b, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    return [build_levitation_equilibrium(model, b, 0.8, nr, nz, xi2, negative_omega=negative_omega)]


@pytest.mark.parametrize(
    "solve", [_orbitron_both_sigmas, _dipole_branches, _levitation_branch], ids=["orbitron", "dipole", "levitation"]
)
def test_negative_omega_mirror(solve):
    # time reversal: the same equilibrium at -omega, with every momentum negated
    for eq, eqm in zip(solve(False), solve(True), strict=True):
        assert eqm.mult.omega == eqm.omega == -eq.omega
        assert eqm.mult.lambda2 == -eq.mult.lambda2
        np.testing.assert_array_equal(eqm.pi0, -eq.pi0)
        assert eqm.p0 == -eq.p0
        assert eqm.C2 == -eq.C2
        assert eqm.mult.lambda1 == eq.mult.lambda1
        assert eqm.mult.lambda_ == eq.mult.lambda_
        assert eqm.residual == eq.residual <= 1e-12
        np.testing.assert_array_equal(eqm.nu0, eq.nu0)
        assert eqm.sigma == eq.sigma


def test_residual_detects_detuned_rotation():
    b = _body()
    model = DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    om = eq.mult.omega
    res = []
    for eps in (1e-3, 5e-4):
        eq2 = replace(eq, mult=replace(eq.mult, omega=om * (1.0 + eps)))
        res.append(first_order_residual(eq2, b, model))
    assert res[0] > 1e-5 and res[1] > 1e-5
    assert 1.9 <= res[0] / res[1] <= 2.1


def test_support_state_and_first_variation():
    for eq, b, model in _solver_cases():
        s = build_support_state(eq)
        np.testing.assert_array_equal(s.x, [eq.r0, 0.0, 0.0])
        np.testing.assert_array_equal(s.p, [0.0, eq.p0, 0.0])
        np.testing.assert_array_equal(s.nu, eq.nu0)
        np.testing.assert_array_equal(s.pi, eq.pi0)
        _, c2 = casimirs(s)
        assert math.isclose(c2, eq.C2, rel_tol=1e-12, abs_tol=1e-12)
        # independent check: the augmented energy is stationary at the support state
        V = DipolePotential(model, b)
        y0 = s.as_vector()
        from orbitron.core import ReducedState

        def f(y):
            return augmented_hamiltonian(ReducedState.from_vector(y), b, V, eq.mult)

        step = 1e-6
        grad_scale = max(1.0, abs(f(y0)))
        for i in range(12):
            e = np.zeros(12)
            e[i] = step * max(1.0, abs(y0[i]))
            g = (f(y0 + e) - f(y0 - e)) / (2.0 * e[i])
            assert abs(g) <= 5e-7 * max(1.0, grad_scale)


def _solver_cases():
    b = _body()
    model = DipolePair(1.0, 1.0)
    cases = [
        (solve_orbitron_equatorial(model, b, 0.8, 10.0), b, model),
        (solve_orbitron_equatorial(model, b, 3.0, 10.0, sigma=-1), b, model)
    ]
    lmodel, lb, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    cases.append((build_levitation_equilibrium(lmodel, lb, 0.8, nr, nz, xi2), lb, lmodel))
    return cases


def test_all_solver_residuals_tiny():
    for eq, b, model in _solver_cases():
        assert eq.residual < 1e-10
        assert math.isclose(first_order_residual(eq, b, model), eq.residual, rel_tol=0.0, abs_tol=1e-12)


def test_dipole_solver_matches_equatorial_without_gravity():
    b = _body()
    model = DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    branches = solve_dipole_equilibrium(model, b, 0.8, eq.C2)
    assert len(branches) == 1
    got = branches[0]
    assert math.isclose(got.mult.omega, eq.mult.omega, rel_tol=1e-10)
    np.testing.assert_allclose(got.nu0, eq.nu0, atol=1e-10)
    assert got.residual < 1e-10


def test_dipole_solver_against_line_circle_oracle():
    # with gravity, the first-order system reduces to a line-circle
    # intersection for (nu_r, nu_z); solve it independently and compare
    model, b, beta, kappa = _levitation_setup()
    r0 = 0.8
    j = eval_jet(model, r0, 0.0)
    a1, a2, a3 = j.Bz_z, j.Br_z, j.Br_r
    target = b.M * b.g / b.mu
    qa = 1.0 + (a2 / a1) ** 2
    qb = -2.0 * target * a2 / a1**2
    qc = (target / a1) ** 2 - 1.0
    disc = qb * qb - 4.0 * qa * qc
    assert disc > 0.0
    oracle = []
    for sgn in (1.0, -1.0):
        nr = (-qb + sgn * math.sqrt(disc)) / (2.0 * qa)
        nz = (target - nr * a2) / a1
        w = -(b.mu / (b.M * r0)) * (nr * a3 + nz * a2)
        if w > 0.0:
            oracle.append((nr, nz, math.sqrt(w)))
    nr, nz, xi2 = solve_levitation(beta, kappa)
    eq0 = build_levitation_equilibrium(model, b, r0, nr, nz, xi2)
    branches = solve_dipole_equilibrium(model, b, r0, eq0.C2)
    assert len(branches) == len(oracle) == 1
    got = branches[0]
    assert math.isclose(got.nu0[0], oracle[0][0], rel_tol=0.0, abs_tol=1e-10)
    assert math.isclose(got.nu0[2], oracle[0][1], rel_tol=0.0, abs_tol=1e-10)
    assert math.isclose(got.mult.omega, oracle[0][2], rel_tol=1e-10)
    # and the Newton branch agrees with the closed-form levitation path
    assert math.isclose(got.mult.omega, eq0.mult.omega, rel_tol=1e-10)
    np.testing.assert_allclose(got.nu0, eq0.nu0, atol=1e-10)


def test_dipole_solver_no_equilibrium():
    b = _body(g=0.0)
    model = DipolePair(1.0, 1.0)
    # at the mid-plane slope zero crossing (r = 2h) no branch has omega^2 > 0
    with pytest.raises(NoEquilibrium):
        solve_dipole_equilibrium(model, b, 2.0, 10.0)


def test_dipole_solver_branches_are_line_circle_roots():
    # the first-order conditions put (nu_r, nu_z) on a line and on the unit
    # circle; count the real intersections with omega^2 > 0 independently,
    # from the quadratic in nu_r, and compare with the solver's branches
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(200):
        dipole = DipolePair(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        model = Composite((dipole, Linear(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))))
        r0 = rng.uniform(0.3, 4.0)
        j = eval_jet(model, r0, 0.0)
        M, mu = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        # g sets the line's distance d from the origin; half the draws lie
        # near the tangent line d = 1, where two roots merge and vanish
        d = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else rng.uniform(0.95, 1.05)
        g = d * mu * math.hypot(j.Br_z, j.Bz_z) / M
        b = BodyParams(M=M, I_perp=0.1, I3=0.05, mu=mu, g=g)
        target = M * g / mu
        expected = 0
        for nr in np.roots([j.Bz_z**2 + j.Br_z**2, -2.0 * target * j.Br_z, target**2 - j.Bz_z**2]):
            if nr.imag == 0.0:
                nz = (target - j.Br_z * nr.real) / j.Bz_z
                expected += -(j.Br_r * nr.real + j.Br_z * nz) > 0.0
        try:
            branches = solve_dipole_equilibrium(model, b, r0, rng.uniform(-2.0, 2.0))
        except NoEquilibrium:
            branches = []
        assert len(branches) == expected
        seen.add(expected)
        scale = max(1.0, mu * math.hypot(j.Br, j.Bz), M * g)
        for eq in branches:
            assert first_order_residual(eq, b, model) <= 1e-13 * scale
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("model", [DipolePair(1.0, 1.0), Linear(1.0, 0.0)])
def test_dipole_solver_degenerate_line(model):
    # Br_z = Bz_z = 0 (the pair at r0 = 2h, a uniform field) leaves the axis
    # direction free; with g = 0 there is no line to meet the circle
    j = eval_jet(model, 2.0, 0.0)
    assert j.Br_z == 0.0 and j.Bz_z == 0.0
    with pytest.raises(NoEquilibrium):
        solve_dipole_equilibrium(model, _body(g=0.0), 2.0, 10.0)


def test_solve_levitation_frozen_values():
    nr, nz, xi2 = solve_levitation(-0.5, -1.1)
    assert abs(nr - 0.28) <= 1e-14
    assert abs(nz - (-0.96)) <= 1e-14
    assert abs(xi2 - 17.0 / 55.0) <= 1e-14
    nr, nz, xi2 = solve_levitation(-1.0, 1.0)
    assert nr == 0.0 and nz == 1.0 and xi2 == 1.0


def test_solve_levitation_identities():
    rng = np.random.default_rng(50)
    for _ in range(40):
        beta = -rng.uniform(0.05, 3.0)
        kappa = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + 1e-6, math.sqrt(1.0 + beta * beta) - 1e-9)
        if kappa * kappa >= 1.0 + beta * beta:
            continue
        nr, nz, xi2 = solve_levitation(beta, kappa)
        assert abs(nr * nr + nz * nz - 1.0) <= 1e-12
        assert abs(beta * nr + nz - kappa) <= 1e-12
        # the radial component solves the line-circle quadratic
        assert abs((1.0 + beta**2) * nr**2 - 2.0 * kappa * beta * nr + kappa**2 - 1.0) <= 1e-12
        assert nr * kappa < 0.0
        assert xi2 > 0.0


def test_solve_levitation_epsilon_scaling():
    beta = -0.9517125403464043
    for sgn in (1.0, -1.0):
        vals = [abs(solve_levitation(beta, sgn * (1.0 + e))[0]) for e in (1e-2, 1e-3, 1e-4)]
        assert 8.0 <= vals[0] / vals[1] <= 13.0
        assert 8.0 <= vals[1] / vals[2] <= 13.0


def test_solve_levitation_errors():
    with pytest.raises(BadSign):
        solve_levitation(0.0, -1.1)
    with pytest.raises(BadSign):
        solve_levitation(0.5, -1.1)
    with pytest.raises(BadSign):
        solve_levitation(-0.5, 0.0)
    with pytest.raises(NoRealSolution):
        solve_levitation(-0.5, 1.2)


def test_build_levitation_equilibrium():
    model, b, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    eq = build_levitation_equilibrium(model, b, 0.8, nr, nz, xi2)
    assert math.isclose(eq.mult.omega, math.sqrt(xi2 * b.g / 0.8), rel_tol=1e-14)
    assert eq.residual < 1e-10
    assert eq.nu0[1] == 0.0
    assert math.isclose(eq.nu0[0], nr, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(eq.nu0[2], nz, rel_tol=0.0, abs_tol=1e-12)
    # mirrored twin
    eqm = build_levitation_equilibrium(model, b, 0.8, nr, nz, xi2, negative_omega=True)
    assert eqm.mult.omega == -eq.mult.omega
    assert eqm.residual < 1e-10


def test_build_levitation_equilibrium_errors():
    model, b, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    with pytest.raises(ValueError):
        build_levitation_equilibrium(model, b, -0.8, nr, nz, xi2)
    with pytest.raises(ValueError):
        build_levitation_equilibrium(model, _body(g=0.0), 0.8, nr, nz, xi2)
    with pytest.raises(NoEquilibrium):
        build_levitation_equilibrium(model, b, 0.8, 0.0, 1.0, xi2)


def test_equilibrium_record_keys():
    b = _body()
    eq = solve_orbitron_equatorial(DipolePair(1.0, 1.0), b, 0.8, 10.0)
    rec = eq.to_record()
    assert sorted(rec.keys()) == [
        "C2",
        "lambda",
        "lambda1",
        "lambda2",
        "nu0",
        "omega",
        "p0",
        "pi0",
        "r0",
        "residual",
        "sigma",
    ]
    assert rec["r0"] == 0.8
    assert rec["sigma"] == 1
