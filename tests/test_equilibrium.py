"""Tests for relative-equilibrium solvers and the levitation closed form."""

import json
import math
import random
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from orbitron import equilibrium
from orbitron.core import BodyParams, casimirs
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    build_support_state,
    first_order_residual,
    solve_dipole_equilibrium,
    solve_levitation,
    solve_levitation_equilibrium,
    solve_orbitron_equatorial,
    split_levitation_model,
    tilted_multipliers,
)
from orbitron.errors import (
    BadSign,
    NoEquilibrium,
    NonFinite,
    NoRealSolution,
    NotMirrorSymmetric,
    OrbitronError,
    WrongFieldSign,
)
from orbitron.fields import Composite, DipolePair, FieldJet, Linear, _jet_terms, eval_jet, model_from_config
from orbitron.potential import DipolePotential
from orbitron.scan import radius_for_beta

from test_core import augmented_hamiltonian
from test_scan import _extreme_sweeps

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


def _twins(eqs, negative_omega):
    """The equilibria, each time-reversed when negative_omega is true, as the CLI's negative_omega gives them."""
    return [eq.time_reversed() for eq in eqs] if negative_omega else eqs


def _orbitron_both_sigmas(negative_omega):
    b, model = _body(), DipolePair(1.0, 1.0)
    eqs = [solve_orbitron_equatorial(model, b, r0, 10.0, sigma) for r0, sigma in ((0.8, 1), (3.0, -1))]
    return _twins(eqs, negative_omega)


def _dipole_branches(negative_omega):
    # the tilted branch of the levitation composite and the equatorial branch of the pair
    model, b, _, _ = _levitation_setup()
    tilted = solve_dipole_equilibrium(model, b, 0.8, 1.0)
    equatorial = solve_dipole_equilibrium(DipolePair(1.0, 1.0), _body(), 0.8, 10.0)
    assert tilted[0].nu0[0] != 0.0 and equatorial[0].nu0[0] == 0.0
    return _twins(tilted + equatorial, negative_omega)


def _levitation_branch(negative_omega):
    model, b, _, _ = _levitation_setup()
    return _twins([solve_levitation_equilibrium(model, b, 0.8)], negative_omega)


@pytest.mark.parametrize(
    "solve", [_orbitron_both_sigmas, _dipole_branches, _levitation_branch], ids=["orbitron", "dipole", "levitation"]
)
def test_negative_omega_mirror(solve):
    # time reversal: the same equilibrium at -omega, with every momentum negated
    for eq, eqm in zip(solve(False), solve(True), strict=True):
        assert eqm.mult.omega == -eq.mult.omega
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
    lmodel, lb, _, _ = _levitation_setup()
    cases.append((solve_levitation_equilibrium(lmodel, lb, 0.8), lb, lmodel))
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


def test_dipole_solver_drops_an_untilted_root_where_br_is_nonzero():
    # At kappa = 1 the line meets the circle at nu = e3 with omega^2 = 3.57 > 0, but an untilted
    # axis cannot balance Br = -1.2: the dipole solver finds no branch, as the levitation route does.
    model, b, beta, kappa = _levitation_setup(kappa=1.0)
    assert eval_jet(model, 0.8, 0.0).Br == pytest.approx(-1.2, rel=1e-15)
    with pytest.raises(NoEquilibrium, match="omega\\^2 > 0"):
        solve_dipole_equilibrium(model, b, 0.8, 1.0)
    with pytest.raises(NoEquilibrium):
        build_levitation_equilibrium(model, b, 0.8, *solve_levitation(beta, kappa))
    # just above kappa = 1 both routes find the one tilted branch
    model, b, beta, kappa = _levitation_setup(kappa=1.001)
    (eq,) = solve_dipole_equilibrium(model, b, 0.8, 1.0)
    lev = build_levitation_equilibrium(model, b, 0.8, *solve_levitation(beta, kappa))
    np.testing.assert_allclose(eq.nu0, lev.nu0, rtol=0, atol=1e-12)
    assert eq.mult.omega == lev.mult.omega


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


# Special values of the levitation grid: signed zeros, infinities, NaN, subnormals, the units and extremes.
_LEVITATION_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0]
_LEVITATION_SPECIALS += [1e160, -1e160, 1e308, -1e308]


def _levitation_grid(n, seed=27):
    """(beta, kappa) pairs: every pair of specials, then seeded draws, a third of them at the fold."""
    rng = random.Random(seed)
    cells = [(b, k) for b in _LEVITATION_SPECIALS for k in _LEVITATION_SPECIALS]
    # code 5: the closed form misses |nu| = 1 past 1e-12; code 4: -beta / 2 rounds to 0 at disc = 0
    cells += [(-1e5, 50000.0000025), (-5e-324, 1.0)]
    for _ in range(n):
        beta = rng.choice([rng.uniform(-3.0, 1.0), -(10.0 ** rng.uniform(-320, 300))])
        kappa = rng.choice([-1.0, 1.0]) * rng.choice([rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-320, 300)])
        if rng.random() < 1.0 / 3.0 and abs(beta) < 1e150:
            kappa = math.copysign(math.sqrt(1.0 + beta * beta) * (1.0 + rng.uniform(-1e-6, 1e-6)), kappa)
        cells.append((beta, kappa))
    return cells


def test_levitation_roots_stack_is_solve_levitation_cell_by_cell():
    cells = _levitation_grid(3000)
    nu_r, nu_z, xi2, _, _, code = equilibrium._levitation_roots(*np.array(cells).T)
    for i, (beta, kappa) in enumerate(cells):
        if code[i]:
            with pytest.raises(equilibrium.LEVITATION_FAILURES[code[i]]) as info:
                solve_levitation(beta, kappa)
            assert type(info.value) is equilibrium.LEVITATION_FAILURES[code[i]]
        else:
            got = solve_levitation(beta, kappa)
            assert all(type(v) is float for v in got)
            assert repr(got) == repr((float(nu_r[i]), float(nu_z[i]), float(xi2[i])))
    # the roots' codes; 6 and 7, the orbit's g and tilt rules, are test_scan.py's
    assert set(code.tolist()) == set(range(6))


def test_equatorial_codes_are_solve_orbitron_equatorial_raises():
    # the weak gradient leaves a symmetric window; the levitation field is asymmetric everywhere
    b, r0, seen = _body(), np.linspace(0.3, 3.0, 55), set()
    pair = DipolePair(1.0, 1.0)
    for model in (pair, Composite((Linear(0.0, 1e-11), pair)), Composite((Linear(1.0, 3.0), pair))):
        for sigma in (1, -1):
            code, omega2 = equilibrium._equatorial_tests(eval_jet(model, r0, 0.0), b, r0, sigma)
            seen |= set(code.tolist())
            for i, r in enumerate(r0.tolist()):
                if code[i]:
                    with pytest.raises(equilibrium.EQUATORIAL_FAILURES[code[i]]) as info:
                        solve_orbitron_equatorial(model, b, r, 10.0, sigma)
                    assert type(info.value) is equilibrium.EQUATORIAL_FAILURES[code[i]]
                else:
                    assert solve_orbitron_equatorial(model, b, r, 10.0, sigma).mult.omega == math.sqrt(omega2[i])
    assert seen == {0, 1, 2}


def _threshold_jets():
    """Jets with Br one ulp below, at and one ulp above the untilted axis's threshold 1e-9 |(Br, Bz)|, either sign.

    Near the threshold hypot(Br, Bz) rounds to |Bz|, or is below the 1e-300 floor, so the threshold is
    1e-9 max(|Bz|, 1e-300).  Bz_z = 0 leaves only the radial clause of the equatorial tests, and
    Br_z = Bz_r = -1 makes the untilted nu = e3 the one root of the dipole solver at g = 0, with omega^2 > 0.
    """
    jets, radial = [], []
    for Bz in (1.0, -3.7, 6.02e-17, 2.0**-1000, 0.0):
        threshold = 1e-9 * max(abs(Bz), 1e-300)
        below, above = math.nextafter(threshold, 0.0), math.nextafter(threshold, 1.0)
        for Br, is_radial in ((below, False), (threshold, False), (above, True)):
            for sign in (1.0, -1.0):
                jets.append(FieldJet(sign * Br, Bz, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0))
                radial.append(is_radial)
    return jets, radial


def test_radial_field_is_one_test_of_the_untilted_axis(monkeypatch):
    jets, radial = _threshold_jets()
    model, b = DipolePair(1.0, 1.0), _body()
    stack = FieldJet(*np.array(jets).T)
    assert equilibrium._radial_field(stack).tolist() == radial
    code, _ = equilibrium._equatorial_tests(stack, b, 0.8, 1)
    assert code.tolist() == [1 if r else 0 for r in radial]
    for k, jet in enumerate(jets):
        assert equilibrium._radial_field(jet) == radial[k]  # a float call is the array's element
        monkeypatch.setattr(equilibrium, "eval_jet", lambda model, r, z, jet=jet: jet)
        if code[k] == 1:  # the solver drops the untilted root, and with it its one branch
            with pytest.raises(NoEquilibrium):
                solve_dipole_equilibrium(model, b, 0.8, 10.0)
        else:
            (eq,) = solve_dipole_equilibrium(model, b, 0.8, 10.0)
            assert eq.nu0.tolist() == [0.0, 0.0, 1.0] and eq.mult.omega == math.sqrt(1.25)


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
    eqm = eq.time_reversed()
    assert eqm.mult.omega == -eq.mult.omega
    assert eqm.residual < 1e-10


def test_build_levitation_equilibrium_errors():
    model, b, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    with pytest.raises(ValueError):
        build_levitation_equilibrium(model, b, -0.8, nr, nz, xi2)
    with pytest.raises(BadSign):
        build_levitation_equilibrium(model, _body(g=0.0), 0.8, nr, nz, xi2)
    with pytest.raises(NoEquilibrium):
        build_levitation_equilibrium(model, b, 0.8, 0.0, 1.0, xi2)


@pytest.mark.parametrize(
    "body, q, name",
    [({"I_perp": 1e300, "mu": 1e300}, 1.0, "pi0"), ({"mu": 1e300}, 1e300, "omega")],
    ids=["spin_overflows", "rate_overflows"],
)
def test_non_finite_equilibrium_raises(body, q, name):
    b = replace(_body(), **body)
    with pytest.raises(NonFinite, match=f"equilibrium {name} is not finite"):
        solve_orbitron_equatorial(DipolePair(q, 1.0), b, 0.8, 10.0)


def test_tilted_multipliers_raise_where_i_perp_omega_underflows():
    b = replace(_body(), I_perp=1e-300)
    with pytest.raises(NonFinite, match="multiplier lambda2 is not finite"):
        tilted_multipliers(b, -0.1, 1.0, 1e-30, 0.3, 0.95)
    # arrays give inf there, which the stacked callers flag
    with np.errstate(all="ignore"):
        mult = tilted_multipliers(b, -0.1, 1.0, np.array([1e-30, 1.0]), 0.3, 0.95)
    assert np.isinf(mult.lambda2[0]) and np.isfinite(mult.lambda2[1])


@pytest.mark.parametrize(
    "body, model, r0, name",
    [
        ({"mu": 1e-310, "g": 1.0}, Composite((Linear(1.0, 1e-20), DipolePair(1e-20, 1.0))), 0.8, "axis line offset"),
        ({"M": 1e-200}, DipolePair(1.0, 1.0), 1e-200, "orbit rate scale"),
        ({"M": 1e-300, "mu": 1e100}, DipolePair(1.0, 1.0), 0.8, "omega^2"),
    ],
    ids=["mu_norm", "M_r0", "M_r0_over_mu"],
)
def test_dipole_solver_raises_where_a_divisor_underflows(body, model, r0, name):
    b = replace(_body(), **body)
    with pytest.raises(NonFinite, match=re.escape(name)) as info:
        solve_dipole_equilibrium(model, b, r0, 1.0)
    assert str(info.value).endswith("is not finite: its divisor underflows to 0")


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


_E3 = np.array([0.0, 0.0, 1.0])


def _ndarray_residual(eq, b, model):
    """The four first-order conditions as 3-vector arithmetic with np.cross, reduced to their max norm.

    The reference of first_order_residual, which takes the same terms on floats.
    """
    s = build_support_state(eq)
    om = eq.mult.omega
    grad = DipolePotential(model, b).gradient_terms(*s.x.tolist(), *s.nu.tolist())
    r1 = s.p - b.M * om * np.cross(_E3, s.x)
    r2 = np.array(grad[:3]) + om * np.cross(_E3, s.p)
    r3 = s.pi - b.I_perp * om * _E3 + eq.mult.lambda2 * b.I_perp * s.nu
    r4 = np.array(grad[3:]) + eq.mult.lambda_ * s.nu + eq.mult.lambda2 * b.I_perp * om * _E3
    return float(np.max(np.abs(np.concatenate([r1, r2, r3, r4]))))


def _residual_solves(negative_omega):
    """(solve, b, model) of the orbitron (both sigmas), dipole and levitation solvers; solve() gives a list."""
    b, pair = _body(), DipolePair(1.0, 1.0)
    lmodel, lb, beta, kappa = _levitation_setup()
    nr, nz, xi2 = solve_levitation(beta, kappa)
    for r0, sigma in ((0.8, 1), (3.0, -1)):
        yield partial(_listed, negative_omega, solve_orbitron_equatorial, pair, b, r0, 10.0, sigma), b, pair
    yield partial(_listed, negative_omega, solve_dipole_equilibrium, lmodel, lb, 0.8, 1.0), lb, lmodel
    yield partial(_listed, negative_omega, solve_dipole_equilibrium, pair, b, 0.8, 10.0), b, pair
    yield partial(_listed, negative_omega, build_levitation_equilibrium, lmodel, lb, 0.8, nr, nz, xi2), lb, lmodel


def _extreme_solves(n, seed=23):
    """Seeded solves of all three solvers with body, field and orbit magnitudes 10^U(-R, R), R in {5, 40, 150, 300}."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        R = (5, 40, 150, 300)[i % 4]
        M, I, mu, g, q, h, Bp, r0, pi0 = (10.0 ** rng.uniform(-R, R, 9)).tolist()
        sigma, neg = int(rng.choice([-1, 1])), bool(rng.integers(2))
        pair, composite = DipolePair(q, h), Composite((Linear(1.0, Bp), DipolePair(q, h)))
        b0 = BodyParams(M=M, I_perp=I, I3=1.0, mu=mu, g=0.0)
        bg = BodyParams(M=M, I_perp=I, I3=1.0, mu=mu, g=g)
        kind = i % 3
        if kind == 0:
            yield partial(_listed, neg, solve_orbitron_equatorial, pair, b0, r0, pi0, sigma)
        elif kind == 1:
            yield partial(_listed, neg, solve_dipole_equilibrium, composite, bg, r0, sigma * pi0)
        else:
            beta, kappa = -rng.uniform(0.05, 1.5), rng.uniform(0.5, 1.6)
            yield partial(_levitation_solve, composite, bg, r0, beta, kappa, neg)


def _listed(negative_omega, solver, *args):
    """The solver's equilibria as a list, each time-reversed when negative_omega is true."""
    eqs = solver(*args)
    return _twins(eqs if isinstance(eqs, list) else [eqs], negative_omega)


def _levitation_solve(model, b, r0, beta, kappa, negative_omega):
    return _listed(negative_omega, build_levitation_equilibrium, model, b, r0, *solve_levitation(beta, kappa))


def _solve_outcome(solve):
    """The records of the equilibria a solve returns, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            return [eq.to_record() for eq in solve()]
    except (OrbitronError, ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_first_order_residual_equals_the_ndarray_reference(monkeypatch):
    for negative_omega in (False, True):
        for solve, b, model in _residual_solves(negative_omega):
            for eq in solve():
                assert repr(first_order_residual(eq, b, model)) == repr(_ndarray_residual(eq, b, model))
    # Extreme scales, through the solvers that take the residual: equal
    # records, or the same error naming the same quantity.
    solves = list(_extreme_solves(1200))
    got = [_solve_outcome(solve) for solve in solves]
    monkeypatch.setattr(equilibrium, "first_order_residual", _ndarray_residual)
    assert got == [_solve_outcome(solve) for solve in solves]
    kinds = [g if isinstance(g, list) else g.split(":")[0] for g in got]
    assert sum(isinstance(k, list) and len(k) > 0 for k in kinds) >= 100
    assert kinds.count("NonFinite") >= 20
    assert any(isinstance(g, str) and "residual is not finite" in g for g in got)


@pytest.mark.parametrize("field", ["p0", "pi0", "nu0"])
def test_first_order_residual_is_nan_for_a_nan_in_any_condition(field):
    # one reduction over all ten components: a NaN outside the p block is not dropped
    b, model = _body(), DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    value = math.nan if field == "p0" else np.array([math.nan, *getattr(eq, field)[1:]])
    assert math.isnan(first_order_residual(replace(eq, **{field: value}), b, model))


@pytest.mark.parametrize("sigma, r0", [(-1, 0.6), (1, 3.0)])
def test_float_sigma_raises_wrong_field_sign(sigma, r0):
    # a float sigma of +-1.0 gets the int's error and message
    messages = []
    for s in (sigma, float(sigma)):
        with pytest.raises(WrongFieldSign) as info:
            solve_orbitron_equatorial(DipolePair(1.0, 1.0), _body(), r0, 10.0, s)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert f"sigma = {sigma:+d}," in messages[0]


def _cli_levitation_glue(model, b, r0):
    """The levitation route as the CLI wrote it before solve_levitation_equilibrium, kept as its reference."""
    linear, o_model = split_levitation_model(model)  # the parts the CLI's setup check returned
    if r0 <= 0.0:
        raise ValueError("orbit radius must be positive")
    kappa = equilibrium._quotient(b.M * b.g, b.mu * linear.Bp, "kappa = M g / (mu B')")
    beta = _jet_terms(o_model, r0, 0.0, 4)[3] / linear.Bp
    return build_levitation_equilibrium(model, b, r0, *solve_levitation(beta, kappa))


def _route_outcome(route, model, b, r0):
    """The bytes of a levitation route's record, nu0 and pi0, or the type and message of its error."""
    try:
        eq = route(model, b, r0)
    except (OrbitronError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return repr(eq.to_record()), eq.nu0.tobytes(), eq.pi0.tobytes()


def _with_kappa(b, Bp, kappa):
    """b with the g that gives kappa = M g / (mu B'), or None if that g is negative."""
    g = kappa * b.mu * Bp / b.M
    return None if g < 0.0 else replace(b, g=g)


def _radii(model, spec):
    """The spec's r0, and the radius_for_beta of its beta where that search succeeds."""
    radii = [spec["r0"]] if "r0" in spec else []
    try:
        radii += [radius_for_beta(model, spec["beta"])] if "beta" in spec else []
    except (OrbitronError, ValueError):
        pass
    return radii


def _data_levitation_cases():
    """(model, body, r0) of the levitation configs under tests/data; a sweep gives one body per kappa."""
    for path in sorted((Path(__file__).parent / "data").glob("*levitation*.config.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        spec = cfg.get("equilibrium") or cfg.get("certify", {}).get("equilibrium") or cfg["scan"]
        if spec.get("solver", "levitation") != "levitation":
            continue
        model, b = model_from_config(cfg["field"]), BodyParams(**cfg["body"])
        Bp = split_levitation_model(model)[0].Bp
        bodies = [_with_kappa(b, Bp, k) for k in spec["kappa_values"]] if "kappa_values" in spec else [b]
        yield from ((model, body, r0) for body in bodies if body for r0 in _radii(model, spec))


def _levitation_route_draws(n, seed=36):
    """Seeded (model, body, r0) on Linear(1, B') + the unit pair, a sixth each of: r0 <= 0, B' < 0,
    kappa = 1 exactly, no real root, mu B' underflowing to 0, and kappa in [0.5, 1.6]."""
    rng = random.Random(seed)
    for i in range(n):
        kind, r0, Bp = i % 6, rng.uniform(0.3, 3.0), rng.uniform(0.5, 5.0)
        b = BodyParams(M=rng.uniform(0.5, 2.0), I_perp=rng.uniform(0.05, 0.5), I3=1.0, mu=rng.uniform(0.5, 2.0))
        kappa = rng.uniform(0.5, 1.6)
        if kind == 0:
            r0 = rng.choice([0.0, -0.0, -r0])
        elif kind == 1:
            Bp = -Bp
            kappa = -kappa  # g > 0 on a negative gradient
        elif kind == 2:
            b, kappa = replace(b, M=1.0, mu=1.0, g=Bp), None  # M g / (mu B') = B' / B' = 1
        elif kind == 3:
            Bp, kappa = rng.uniform(20.0, 100.0), rng.uniform(2.0, 5.0)  # |beta| < 1 < 2 <= kappa
        elif kind == 4:
            b, kappa = replace(b, mu=1e-200 * b.mu, g=rng.uniform(1.0, 5.0)), None
            Bp *= 1e-200
        model = Composite((Linear(1.0, Bp), DipolePair(1.0, 1.0)))
        yield model, b if kappa is None else _with_kappa(b, Bp, kappa), r0


def _extreme_levitation_cases(n):
    """(model, body, r0) at extreme scales, drawn as test_scan's sweeps: the beta's radius, or 0.8 h without one."""
    for b, model, kappas, beta in _extreme_sweeps(n):
        radii = _radii(model, {"beta": beta}) or [0.8 * model.parts[1].h]
        bodies = (_with_kappa(b, model.parts[0].Bp, kappa) for kappa in kappas)
        yield from ((model, body, radii[0]) for body in bodies if body)


def test_solve_levitation_equilibrium_is_the_cli_route():
    cases = [*_data_levitation_cases(), *_levitation_route_draws(300), *_extreme_levitation_cases(200)]
    got = [_route_outcome(solve_levitation_equilibrium, *case) for case in cases]
    assert got == [_route_outcome(_cli_levitation_glue, *case) for case in cases]
    kinds = [g[0] if len(g) == 2 else "solved" for g in got]
    assert kinds.count("solved") >= 150
    for kind in ("ValueError", "BadSign", "NoEquilibrium", "NoRealSolution", "NonFinite"):
        assert kind in kinds, kind
    assert ("NonFinite", "kappa = M g / (mu B') is not finite: its divisor underflows to 0") in got
    assert ("ValueError", "orbit radius must be positive") in got
