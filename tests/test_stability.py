"""Tests for the reduced second variation and the stability certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from orbitron.core import BodyParams, ReducedState, augmented_hamiltonian
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    build_support_state,
    solve_levitation,
    solve_orbitron_equatorial,
)
from orbitron.errors import NotEquatorial, PolarDegeneracy, ZeroPivot
from orbitron.fields import Composite, DipolePair, Linear, eval_jet
from orbitron.potential import DipolePotential, hessian_blocks
from orbitron.scan import split_levitation_model
from orbitron.stability import (
    MARGIN_BAND,
    VARIATION_LABELS,
    closed_form_conditions,
    eigen_certificate,
    isolated_squares_reduce,
    levitation_conditions,
    orbitron_conditions,
    reduced_hessian,
    variation_constraints,
)

from synthetic import SEED, draw_synthetic_case


def _body(g=0.0):
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=g)


def _dipoletron(r0=0.8, pi0=10.0):
    b = _body()
    model = DipolePair(1.0, 1.0)
    return solve_orbitron_equatorial(model, b, r0, pi0), b, model


def _levitation():
    eq, b, model, _ = _levitation_with_xi2(1.001, 0.8)
    return eq, b, model


def _levitation_with_xi2(kappa, r0):
    model = Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, r0, 0.0).Br_z / linear.Bp
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=kappa * linear.Bp)
    nr, nz, xi2 = solve_levitation(beta, kappa)
    eq = build_levitation_equilibrium(model, b, r0, nr, nz, xi2)
    return eq, b, model, xi2


def _levitation_reference(eq, b, model, kappa, xi2):
    """(cond2, A, B, C) in the paper's form at a levitation support point.

    The force balance turns the mixed axis blocks of V into the gravity
    terms bracket1 and bracket2, so this form shares no code with the
    general closed form that levitation_conditions reads.
    """
    nu_r, nu_z = float(eq.nu0[0]), float(eq.nu0[2])
    om, l2, lam = eq.mult.omega, eq.mult.lambda2, eq.mult.lambda_
    r0, M, I, mu, g = eq.r0, b.M, b.I_perp, b.mu, b.g
    jet = eval_jet(model, r0, 0.0)
    denom_c = I * nu_r**2 + M * r0**2
    cond2 = lam + (I**2 * nu_r**2 / denom_c) * (nu_z * om + l2) ** 2 + nu_r**2 * I * om**2
    bracket1 = 2.0 * I * nu_r * eq.p0 * (nu_z * om + l2) / denom_c + M * g * (
        1.0 - nu_z / (2.0 * kappa)
    )
    bracket2 = M * g * (xi2 - M * g * r0 / (4.0 * kappa**2 * lam))
    A = (
        M * om**2 * (3.0 * M * r0**2 - I * nu_r**2) / denom_c
        - mu * nu_z * jet.Bz_rr
        - bracket1**2 / cond2
    )
    B = -mu * nu_r * jet.Bz_rr - bracket1 * bracket2 / cond2
    C = -mu * nu_z * jet.Bz_zz - bracket2**2 / cond2
    return cond2, A, B, C


def _cases():
    eq, b, model = _dipoletron()
    leq, lb, lmodel = _levitation()
    return [(eq, b, model), (leq, lb, lmodel)]


def test_variation_constraints_annihilate_invariants():
    # columns of T must be tangent to the level sets of C1, C2 and J3
    for eq, b, _ in _cases():
        T = variation_constraints(eq, b)
        assert T.shape == (12, 8)
        s = build_support_state(eq)
        z = np.zeros(3)
        g_c1 = np.concatenate([z, z, 2.0 * s.nu, z])
        g_c2 = np.concatenate([z, z, s.pi, s.nu])
        g_j3 = np.concatenate(
            [[s.p[1], -s.p[0], 0.0], [-s.x[1], s.x[0], 0.0], z, [0.0, 0.0, 1.0]]
        )
        for g in (g_c1, g_c2, g_j3):
            scale = max(1.0, np.abs(g).max() * np.abs(T).max())
            assert np.abs(g @ T).max() <= 1e-14 * scale


def test_variation_constraints_equatorial_entries():
    eq, b, _ = _dipoletron()
    T = variation_constraints(eq, b)
    om = eq.mult.omega
    assert T[5, 0] == 1.0
    assert T[3, 1] == 1.0
    assert T[10, 2] == 1.0
    assert T[9, 3] == 1.0
    assert T[7, 4] == 1.0
    assert T[6, 5] == 1.0
    assert T[9, 5] == b.I_perp * om
    assert T[0, 6] == 1.0
    assert T[4, 6] == -b.M * om
    assert T[2, 7] == 1.0
    # eight free directions, no accidental rank loss
    assert np.linalg.matrix_rank(T) == 8


def test_variation_constraints_polar_degeneracy():
    eq, b, _ = _dipoletron()
    bad = replace(eq, nu0=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(PolarDegeneracy):
        variation_constraints(bad, b)


def _fd_hessian_of_augmented(eq, b, model):
    V = DipolePotential(model, b)
    y0 = build_support_state(eq).as_vector()
    mult = eq.mult

    def f(y):
        return augmented_hamiltonian(ReducedState.from_vector(y), b, V, mult)

    n = 12
    H = np.zeros((n, n))
    hs = [1e-4 * max(1.0, abs(y0[i])) for i in range(n)]
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = hs[i]
        H[i, i] = (f(y0 + ei) - 2.0 * f(y0) + f(y0 - ei)) / hs[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = hs[j]
            H[i, j] = (
                f(y0 + ei + ej) - f(y0 + ei - ej) - f(y0 - ei + ej) + f(y0 - ei - ej)
            ) / (4.0 * hs[i] * hs[j])
            H[j, i] = H[i, j]
    return H


def test_reduced_hessian_matches_constrained_fd_hessian():
    # the one oracle that ties the 8 x 8 form back to the Hamiltonian itself:
    # restrict a finite-difference 12 x 12 Hessian of the augmented energy
    # by the constraint chart T and compare entrywise
    for eq, b, model in _cases():
        T = variation_constraints(eq, b)
        H = _fd_hessian_of_augmented(eq, b, model)
        Q_fd = T.T @ H @ T
        blocks = hessian_blocks(np.array([eq.r0, 0.0, 0.0]), eq.nu0, model, b)
        form = reduced_hessian(eq, b, blocks)
        assert form.labels == VARIATION_LABELS
        qnorm = np.linalg.norm(form.Q)
        assert np.abs(form.Q - form.Q.T).max() == 0.0
        assert np.abs(Q_fd - form.Q).max() <= 1e-6 * qnorm


def test_reduced_hessian_equatorial_structure():
    eq, b, model = _dipoletron()
    blocks = hessian_blocks(np.array([eq.r0, 0.0, 0.0]), eq.nu0, model, b)
    Q = reduced_hessian(eq, b, blocks).Q
    m = eq.mult
    assert Q[0, 0] == 1.0 / b.M and Q[1, 1] == 1.0 / b.M
    assert Q[2, 2] == 1.0 / b.I_perp
    assert Q[2, 4] == m.lambda2
    assert Q[3, 5] == m.omega + m.lambda2
    # mirror symmetry decouples the axis block from the positional block
    for i, j in ((3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (6, 7)):
        assert Q[i, j] == 0.0
    jet = eval_jet(model, eq.r0, 0.0)
    assert math.isclose(Q[5, 7], -b.mu * jet.Bz_r, rel_tol=1e-14)
    assert math.isclose(Q[6, 6], 3.0 * b.M * m.omega**2 + blocks.Vxx[0, 0], rel_tol=1e-14)


def test_isolated_squares_identity():
    res = isolated_squares_reduce(np.eye(3))
    assert res.completed
    assert res.failed_index is None
    assert res.pivots == (1.0, 1.0, 1.0)
    assert res.order == (0, 1, 2)
    assert res.x_indices == (1, 2)
    np.testing.assert_array_equal(res.x_block, np.eye(2))


def test_isolated_squares_two_by_two():
    res = isolated_squares_reduce(np.array([[1.0, 1.0], [1.0, 3.0]]))
    assert res.completed
    assert res.pivots == (1.0, 2.0)
    np.testing.assert_array_equal(res.x_block, [[1.0, 1.0], [1.0, 3.0]])

    res = isolated_squares_reduce(np.diag([2.0, -1.0]))
    assert not res.completed
    assert res.pivots == (2.0, -1.0)
    assert res.failed_index == 1


def test_isolated_squares_zero_pivot_and_validation():
    with pytest.raises(ZeroPivot):
        isolated_squares_reduce(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        isolated_squares_reduce(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        isolated_squares_reduce(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        isolated_squares_reduce(np.eye(2), order=(0,))
    with pytest.raises(ValueError):
        isolated_squares_reduce(np.eye(2), order=(0, 0))


def test_isolated_squares_pivot_product_is_determinant():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=(6, 6))
        S = a @ a.T + 0.5 * np.eye(6)
        res = isolated_squares_reduce(S)
        assert res.completed
        det = np.linalg.det(S)
        assert math.isclose(math.prod(res.pivots), det, rel_tol=1e-10)


def test_isolated_squares_order_independent_verdict():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = rng.normal(size=(5, 5))
        S = 0.5 * (a + a.T)
        orders = (tuple(range(5)), tuple(reversed(range(5))), tuple(rng.permutation(5)))
        verdicts = {isolated_squares_reduce(S, order=o).completed for o in orders}
        assert len(verdicts) == 1


def _loop_eliminate(S, order):
    """Reference sweep: one Schur complement per step on a shrinking matrix."""
    S = np.array(S, dtype=float)
    active = list(range(len(S)))
    pivots = []
    for idx in order:
        j = active.index(idx)
        piv = S[j, j]
        pivots.append(piv)
        if piv <= 0.0:
            return pivots, False
        keep = [k for k in range(len(active)) if k != j]
        col = S[keep, j]
        S = S[np.ix_(keep, keep)] - np.outer(col, col) / piv
        active = [active[k] for k in keep]
    return pivots, True


def test_vectorized_elimination_matches_loop():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a = rng.normal(size=(6, 6))
        S = a @ a.T + rng.uniform(-2.0, 1.0) * np.eye(6)
        order = tuple(rng.permutation(6))
        pivots, completed = _loop_eliminate(S, order)
        res = isolated_squares_reduce(S, order=order)
        assert res.pivots == tuple(pivots)
        assert res.completed == completed
        assert res.failed_index == (None if completed else len(pivots) - 1)


def test_elimination_block_equals_closed_form_abc():
    for eq, b, model in _cases():
        blocks = hessian_blocks(np.array([eq.r0, 0.0, 0.0]), eq.nu0, model, b)
        cert = closed_form_conditions(eq, b, blocks)
        res = isolated_squares_reduce(reduced_hessian(eq, b, blocks).Q)
        assert res.completed
        assert res.x_indices == (6, 7)
        xb = res.x_block
        assert abs(xb[0, 0] - cert.A) <= 1e-10 * max(1.0, abs(cert.A))
        assert abs(xb[0, 1] - cert.B) <= 1e-10 * max(1.0, abs(cert.B))
        assert abs(xb[1, 1] - cert.C) <= 1e-10 * max(1.0, abs(cert.C))
        assert cert.verdict == "stable"
        assert cert.abc_ok and cert.lambda_ok
        assert cert.failed_condition is None
        assert len(cert.pivots) == 8
        assert min(cert.pivots) > 0.0


def test_three_routes_agree_on_synthetic_draws():
    rng = np.random.default_rng(SEED)
    outside = stable = not_pd = 0
    while outside < 60:
        eq, b, blocks = draw_synthetic_case(rng)
        Q = reduced_hessian(eq, b, blocks).Q
        qnorm = float(np.linalg.norm(Q))
        lam_min = float(np.linalg.eigvalsh(Q)[0])
        if abs(lam_min) < 1e-10 * qnorm:
            continue
        outside += 1
        eig_pd = lam_min > 0.0
        cf_pd = closed_form_conditions(eq, b, blocks).failed_condition is None
        try:
            elim_pd = isolated_squares_reduce(Q).completed
        except ZeroPivot:
            elim_pd = False
        assert cf_pd == elim_pd == eig_pd
        if eig_pd:
            stable += 1
        else:
            not_pd += 1
    assert stable >= 10 and not_pd >= 10


def test_orbitron_conditions_window_labels():
    b = _body()
    model = DipolePair(1.0, 1.0)
    for r0, expected in ((0.5, "axial"), (1.2, "radial"), (0.8, None)):
        eq = solve_orbitron_equatorial(model, b, r0, 10.0)
        cert = orbitron_conditions(eq, b, model)
        assert cert.failed_condition == expected
        assert cert.verdict == ("stable" if expected is None else "not_certified")
    assert sorted(cert.details.keys()) == ["axial", "lambda", "radial", "spin_lhs", "spin_rhs"]


def test_orbitron_conditions_formulas():
    eq, b, model = _dipoletron()
    cert = orbitron_conditions(eq, b, model)
    om = eq.mult.omega
    jet = eval_jet(model, 0.8, 0.0)
    assert cert.B == 0.0
    assert math.isclose(cert.A, 3.0 * b.M * om**2 - b.mu * jet.Bz_rr, rel_tol=1e-12)
    assert math.isclose(cert.A, b.mu * cert.details["radial"], rel_tol=1e-12)
    lam = cert.details["lambda"]
    assert math.isclose(lam, b.mu * jet.Bz + om * 10.0 - b.I_perp * om**2, rel_tol=1e-12)
    assert math.isclose(
        cert.C, -b.mu * jet.Bz_zz - (b.M * om**2 * 0.8) ** 2 / lam, rel_tol=1e-12
    )
    assert cert.details["spin_lhs"] == om * 10.0
    assert cert.margin > 0.0


def test_orbitron_spin_threshold():
    b = _body()
    model = DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    om = eq.mult.omega
    jet = eval_jet(model, 0.8, 0.0)
    axial = -jet.Bz_zz
    pi_star = (-b.mu * jet.Bz + b.I_perp * om**2 + b.mu * jet.Bz_r**2 / axial) / om
    assert math.isclose(pi_star, 0.8575431254890317, rel_tol=1e-12)
    below = orbitron_conditions(solve_orbitron_equatorial(model, b, 0.8, 0.98 * pi_star), b, model)
    above = orbitron_conditions(solve_orbitron_equatorial(model, b, 0.8, 1.02 * pi_star), b, model)
    assert below.verdict == "not_certified"
    assert below.failed_condition == "spin"
    assert above.verdict == "stable"
    assert above.failed_condition is None


def test_orbitron_conditions_lambda_fails_first():
    eq, b, model = _dipoletron(0.8, -10.0)
    cert = orbitron_conditions(eq, b, model)
    assert cert.failed_condition == "lambda"
    assert cert.verdict == "not_certified" and not cert.lambda_ok
    assert cert.B == 0.0
    assert math.isnan(cert.C)
    assert math.isfinite(cert.A)
    assert math.isclose(cert.A, b.mu * cert.details["radial"], rel_tol=1e-12)
    assert cert.margin == -1.0


def test_orbitron_conditions_reject_tilted():
    leq, lb, lmodel = _levitation()
    with pytest.raises(NotEquatorial):
        orbitron_conditions(leq, lb, lmodel)


def test_orbitron_matches_closed_form():
    for r0, pi0 in ((0.8, 10.0), (0.7, 8.0), (0.9, 20.0)):
        eq, b, model = _dipoletron(r0, pi0)
        orb = orbitron_conditions(eq, b, model)
        blocks = hessian_blocks(np.array([r0, 0.0, 0.0]), eq.nu0, model, b)
        cf = closed_form_conditions(eq, b, blocks)
        assert orb.verdict == cf.verdict
        assert orb.B == 0.0 and cf.B == 0.0
        assert abs(orb.A - cf.A) <= 1e-10 * max(1.0, abs(cf.A))
        assert abs(orb.C - cf.C) <= 1e-10 * max(1.0, abs(cf.C))


def test_levitation_conditions_agree_with_closed_form():
    eq, b, model = _levitation()
    cert = levitation_conditions(eq, b, model)
    blocks = hessian_blocks(np.array([eq.r0, 0.0, 0.0]), eq.nu0, model, b)
    cf = closed_form_conditions(eq, b, blocks)
    assert cert.verdict == cf.verdict == "stable"
    assert abs(cert.A - cf.A) <= 1e-12 * max(1.0, abs(cf.A))
    assert abs(cert.B - cf.B) <= 1e-12
    assert abs(cert.C - cf.C) <= 1e-12 * max(1.0, abs(cf.C))


@pytest.mark.parametrize("kappa", [1.0005, 1.05, 1.1, 1.2])
@pytest.mark.parametrize("r0", [0.7, 0.8, 0.9])
def test_levitation_conditions_match_the_paper_form(kappa, r0):
    eq, b, model, xi2 = _levitation_with_xi2(kappa, r0)
    cert = levitation_conditions(eq, b, model)
    ref = _levitation_reference(eq, b, model, kappa, xi2)
    got = (cert.details["cond2"], cert.A, cert.B, cert.C)
    for value, expected in zip(got, ref):
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_levitation_conditions_lambda_fails_first():
    eq, b, model = _levitation()
    eq = replace(eq, mult=replace(eq.mult, lambda_=-2.0))
    cert = levitation_conditions(eq, b, model)
    assert cert.failed_condition == "lambda"
    assert cert.verdict == "not_certified" and not cert.lambda_ok
    assert math.isnan(cert.A) and math.isnan(cert.B) and math.isnan(cert.C)
    # The margin still takes the finite axis-block value, as when lambda > 0.
    cond2 = cert.details["cond2"]
    assert math.isfinite(cond2)
    assert cert.margin == min(-2.0, cond2) / max(1.0, 2.0, abs(cond2))


def test_levitation_conditions_details():
    eq, b, model = _levitation()
    cert = levitation_conditions(eq, b, model)
    d = cert.details
    assert sorted(d.keys()) == [
        "a",
        "b",
        "c",
        "cond2",
        "dynamic_lhs",
        "dynamic_rhs",
        "lambda_over_mgr",
    ]
    scale = eq.r0 / (b.M * b.g)
    assert math.isclose(d["a"], cert.A * scale, rel_tol=1e-14)
    assert math.isclose(d["b"], cert.B * scale, rel_tol=1e-14)
    assert math.isclose(d["c"], cert.C * scale, rel_tol=1e-14)
    assert d["dynamic_lhs"] > d["dynamic_rhs"]
    assert math.isclose(d["lambda_over_mgr"], eq.mult.lambda_ / (b.M * b.g * eq.r0), rel_tol=1e-14)


def test_eigen_certificate_small_examples():
    cert = eigen_certificate(np.eye(3))
    assert cert.verdict == "stable"
    assert cert.lambda_min == 1.0
    assert cert.eigenvalues == (1.0, 1.0, 1.0)

    cert = eigen_certificate(np.diag([1.0, -2.0]))
    assert cert.verdict == "not_certified"
    assert cert.lambda_min == -2.0

    cert = eigen_certificate(np.diag([1.0, 0.0]))
    assert cert.verdict == "marginal"
    assert cert.margin == 0.0

    # just inside and just outside the marginal band on either side
    for scale, verdict in ((0.9, "marginal"), (1.1, "stable"), (-0.9, "marginal"), (-1.1, "not_certified")):
        cert = eigen_certificate(np.diag([1.0, scale * MARGIN_BAND]))
        assert math.isclose(cert.margin, scale * MARGIN_BAND, rel_tol=1e-12)
        assert cert.verdict == verdict


def test_eigen_certificate_matches_numpy_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.normal(size=(8, 8))
        S = 0.5 * (a + a.T)
        cert = eigen_certificate(S)
        w = np.linalg.eigvalsh(S)
        qnorm = np.linalg.norm(S)
        assert np.abs(np.array(cert.eigenvalues) - w).max() <= 1e-11 * qnorm
        assert math.isclose(cert.margin, w[0] / qnorm, rel_tol=0.0, abs_tol=1e-11)
