"""Tests for the reduced second variation and the stability certificates."""

import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from orbitron.core import BodyParams, Multipliers, ReducedState
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    build_support_state,
    first_order_residual,
    solve_dipole_equilibrium,
    solve_levitation,
    solve_orbitron_equatorial,
    split_levitation_model,
)
from orbitron.errors import NonFinite, NotEquatorial, OrbitronError, PolarDegeneracy, ZeroPivot
from orbitron.fields import Composite, DipolePair, Linear, eval_jet
from orbitron.potential import DipolePotential, PotentialHessianBlocks, _planar_direction, hessian_blocks
from orbitron import stability
from orbitron.stability import (
    MARGIN_BAND,
    VARIATION_LABELS,
    EigenCertificate,
    StabilityCertificate,
    closed_form_conditions,
    eigen_certificate,
    isolated_squares_reduce,
    levitation_conditions,
    orbitron_conditions,
    reduced_hessian,
)

from synthetic import SEED, draw_synthetic_case
from test_core import augmented_hamiltonian


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


def variation_constraints(eq, b):
    """Map T from the 8 free variations to the 12 state variations.

    Columns follow VARIATION_LABELS; rows are (x, p, nu, pi) stacked.  The
    map is built so that the first variations of C1, C2 and J3 all vanish:
    dnu3, dpi3, dp2 and dx2 are slaved to the free variations, and dPi1
    carries the extra (I_perp omega / nu_z) dN1 piece.
    """
    nperp, nz = stability._nu_split(eq)
    c, s = _planar_direction(eq.nu0[0], eq.nu0[1])
    E1 = np.array([c, s, 0.0])
    E2 = np.array([-s, c, 0.0])
    m_omega = eq.p0 / eq.r0  # M omega without needing b.M separately
    i_omega = b.I_perp * eq.mult.omega

    T = np.zeros((12, 8))
    # dp3 and dp1 are free momenta.
    T[5, 0] = 1.0
    T[3, 1] = 1.0
    # dPi2: spin variation along E2.
    T[9:12, 2] += E2
    # dPi1': spin variation along E1 plus its forced pi3 and p2 parts.
    T[9:12, 3] += E1
    T[11, 3] += -nperp / nz
    T[4, 3] += nperp / (eq.r0 * nz)
    # dN2: axis variation along E2.
    T[6:9, 4] += E2
    # dN1: axis variation along E1, its forced nu3 part, and the dPi1 share.
    T[6:9, 5] += E1
    T[8, 5] += -nperp / nz
    T[9:12, 5] += (i_omega / nz) * E1
    # dx1 drags p2 to keep J3 fixed.
    T[0, 6] = 1.0
    T[4, 6] = -m_omega
    # dx3 is free.
    T[2, 7] = 1.0
    return T


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
        blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
        Q = reduced_hessian(eq, b, blocks)
        assert Q.shape == (len(VARIATION_LABELS),) * 2
        qnorm = np.linalg.norm(Q)
        assert np.abs(Q - Q.T).max() == 0.0
        assert np.abs(Q_fd - Q).max() <= 1e-6 * qnorm


def test_reduced_hessian_equatorial_structure():
    eq, b, model = _dipoletron()
    blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
    Q = reduced_hessian(eq, b, blocks)
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
        verdicts = {isolated_squares_reduce(S[np.ix_(o, o)]).completed for o in orders}
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
        res = isolated_squares_reduce(S[np.ix_(order, order)])
        assert res.pivots == tuple(pivots)
        assert res.completed == completed
        assert res.failed_index == (None if completed else len(pivots) - 1)


def test_elimination_block_equals_closed_form_abc():
    for eq, b, model in _cases():
        blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
        cert = closed_form_conditions(eq, b, blocks)
        res = isolated_squares_reduce(reduced_hessian(eq, b, blocks))
        assert res.completed
        xb = res.x_block
        assert abs(xb[0, 0] - cert.A) <= 1e-10 * max(1.0, abs(cert.A))
        assert abs(xb[0, 1] - cert.B) <= 1e-10 * max(1.0, abs(cert.B))
        assert abs(xb[1, 1] - cert.C) <= 1e-10 * max(1.0, abs(cert.C))
        assert cert.verdict == "stable"
        assert cert.lambda_ok
        assert cert.failed_condition is None
        assert len(cert.pivots) == 8
        assert min(cert.pivots) > 0.0


def test_three_routes_agree_on_synthetic_draws():
    rng = np.random.default_rng(SEED)
    outside = stable = not_pd = 0
    while outside < 60:
        eq, b, blocks = draw_synthetic_case(rng)
        Q = reduced_hessian(eq, b, blocks)
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


def _full_schur(Q):
    """All eight pivots of Q in index order, and the trailing 2 x 2 block
    after six eliminations; unlike the certificate sweep it never stops."""
    S = np.array(Q, dtype=float)
    pivots = []
    for k in range(len(S)):
        if k == len(S) - 2:
            block = S[k:, k:].copy()
        pivots.append(S[k, k])
        S[k + 1 :, k + 1 :] -= np.outer(S[k + 1 :, k], S[k + 1 :, k]) / S[k, k]
    return pivots, block


def test_closed_form_is_successive_schur_complements():
    # den1 is pivot 4, cond2 is nu_z^2 times pivot 5, and (A, B; B, C) is the
    # trailing block, on draws on both sides of definiteness
    rng = np.random.default_rng(SEED)
    both = 0
    for _ in range(400):
        eq, b, blocks = draw_synthetic_case(rng)
        try:
            cert = closed_form_conditions(eq, b, blocks)
        except ZeroPivot:
            continue
        pivots, block = _full_schur(reduced_hessian(eq, b, blocks))
        den1, cond2 = cert.details["den1"], cert.details["cond2"]

        def close(got, ref):
            return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

        assert close(den1, pivots[4])
        if den1 <= 0.0:
            continue
        assert close(cond2, eq.nu0[2] ** 2 * pivots[5])
        if cond2 <= 0.0:
            continue
        both += 1
        assert close(cert.A, block[0, 0]) and close(cert.C, block[1, 1])
        assert close(cert.B, block[0, 1]) and block[0, 1] == block[1, 0]
    assert both >= 200


def _scaled_forms():
    """(form, 2**k) pairs: a definite and an indefinite 8 x 8 form at k = 0, 300, 600."""
    rng = np.random.default_rng(13)
    a = rng.normal(size=(8, 8))
    for shift in (0.5, -0.5):
        Q = a @ a.T + shift * np.eye(8)
        for k in (0, 300, 600):
            yield Q, math.ldexp(1.0, k)


def test_margins_are_scale_invariant():
    for Q, s in _scaled_forms():
        ref = isolated_squares_reduce(Q)
        res = isolated_squares_reduce(s * Q)
        assert res.completed == ref.completed
        assert res.pivots == tuple(s * p for p in ref.pivots)
        margin, ref_margin = (stability._eliminate(np.array(q)[:, :, None]).margin for q in (s * Q, Q))
        assert margin == ref_margin
        eig, ref_eig = eigen_certificate(s * Q), eigen_certificate(Q)
        assert eig.verdict == ref_eig.verdict == ("stable" if ref.completed else "not_certified")
        assert math.isclose(eig.margin, ref_eig.margin, rel_tol=1e-12)


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e200])
def test_huge_forms_keep_their_verdict(scale):
    # |Q| overflows in a plain sum of squares from about 1.3e154 on
    Q = scale * np.diag(np.arange(1.0, 9.0))
    res = isolated_squares_reduce(Q)
    assert res.completed and res.pivots == tuple(scale * np.arange(1.0, 9.0))
    eig = eigen_certificate(Q)
    assert eig.verdict == "stable"
    assert math.isclose(eig.margin, 1.0 / math.sqrt(204.0), rel_tol=1e-12)


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
        blocks = hessian_blocks(r0, eq.nu0, model, b)
        cf = closed_form_conditions(eq, b, blocks)
        assert orb.verdict == cf.verdict
        assert orb.B == 0.0 and cf.B == 0.0
        assert abs(orb.A - cf.A) <= 1e-10 * max(1.0, abs(cf.A))
        assert abs(orb.C - cf.C) <= 1e-10 * max(1.0, abs(cf.C))


def test_levitation_conditions_agree_with_closed_form():
    eq, b, model = _levitation()
    cert = levitation_conditions(eq, b, model)
    blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
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


def test_normalized_min_is_elementwise():
    margin = stability._normalized_min
    assert margin((0.5, -3.0, 7.0), (True, True, False)) == -1.0
    assert margin((0.5, 0.25), (True, True)) == 0.25
    # a NaN counts only where it is defined, and then wherever it stands
    assert margin((0.5, math.nan), (True, False)) == 0.5
    assert math.isnan(margin((0.5, math.nan), (True, True)))
    assert math.isnan(margin((math.nan, 0.5), (True, True)))
    values = np.array([[0.5, 2.0, -4.0, math.nan], [3.0, -1.0, 0.1, 1.0]])
    defined = np.array([[True, True, True, True], [True, False, True, False]])
    stacked = margin(values, defined)
    for k in range(values.shape[1]):
        assert repr(float(stacked[k])) == repr(float(margin(values[:, k].tolist(), defined[:, k].tolist())))


@pytest.mark.parametrize("kappa", [0.9, 1.001, 1.05, 1.2])
def test_levitation_certificates_of_one_row_equal_the_stacked_rows(kappa):
    # floats give one row and arrays K rows on the same code, bit for bit
    rows = [_levitation_with_xi2(k, 0.8) for k in (kappa, 1.0005, 1.1)]
    (_, b, model, _), eqs = rows[0], [eq for eq, _, _, _ in rows]
    jet = eval_jet(model, 0.8, 0.0)
    nu_r, nu_z = (np.array([eq.nu0[i] for eq in eqs]) for i in (0, 2))
    mult = Multipliers(*np.array([list(vars(eq.mult).values()) for eq in eqs]).T)
    stacked = stability._levitation_certificates(b, jet, 0.8, nu_r, nu_z, mult)
    for k, eq in enumerate(eqs):
        one = stability._levitation_certificates(b, jet, 0.8, float(nu_r[k]), float(nu_z[k]), eq.mult)
        assert repr([float(v) for v in one]) == repr([float(v[k]) for v in stacked])


def test_one_cell_certificates_raise_on_a_non_finite_margin():
    # with q = 1e300 the closed form's products overflow to a nan margin,
    # which stability_map and levitation_sweep flag as NonFinite
    model = Composite((Linear(1.0, 3.0), DipolePair(1e300, 1.0)))
    b = _body(g=3.3)
    (eq,) = solve_dipole_equilibrium(model, b, 0.8, 1.0)
    with pytest.raises(NonFinite, match="margin is nan"):
        levitation_conditions(eq, b, model)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_eigen_certificate_raises_on_a_non_finite_entry(entry):
    # a nan entry used to reach eigvalsh, which raised LinAlgError
    Q = np.eye(8)
    Q[1, 1] = entry
    with pytest.raises(NonFinite, match="not finite"):
        eigen_certificate(Q)


def test_eigen_certificate_small_examples():
    cert = eigen_certificate(np.eye(3))
    assert cert.verdict == "stable"
    assert cert.eigenvalues[0] == 1.0
    assert cert.eigenvalues == (1.0, 1.0, 1.0)

    cert = eigen_certificate(np.diag([1.0, -2.0]))
    assert cert.verdict == "not_certified"
    assert cert.eigenvalues[0] == -2.0

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


def test_classify_is_elementwise():
    band = MARGIN_BAND
    margins = [math.nan, 1.0, -1.0]
    for m in (0.0, -0.0, band, -band):
        margins += [m, math.nextafter(m, 0.0), math.nextafter(m, math.copysign(math.inf, m))]
    verdicts = stability._classify(np.array(margins))
    assert verdicts.tolist() == [stability._classify(m) for m in margins]
    assert all(type(stability._classify(m)) is str for m in margins)
    expected = {math.nan: "not_certified", 0.0: "marginal", -0.0: "marginal", band: "stable", -band: "not_certified"}
    expected.update({math.nextafter(band, 0.0): "marginal", math.nextafter(-band, 0.0): "marginal"})
    expected.update({math.nextafter(0.0, 1.0): "marginal", 1.0: "stable", -1.0: "not_certified"})
    for m, verdict in expected.items():
        assert stability._classify(m) == verdict


def _stacked_forms(seed=29, K=12):
    """Seeded (n, n, K) forms for n = 2..8, six stacks each.

    The cells mix definite and indefinite forms, scales of 2**-500, 1 and
    2**500, exact zero pivots (first and second step), inf and NaN entries,
    and in every other stack an asymmetry within isolated_squares_reduce's
    1e-12 tolerance.
    """
    rng = np.random.default_rng(seed)
    for n in range(2, 9):
        for trial in range(6):
            a = rng.normal(size=(n, n, K))
            S = np.einsum("ijk,ljk->ilk", a, a) + rng.uniform(-1.5, 1.0, K) * np.eye(n)[:, :, None]
            if trial % 2:
                S += 1e-13 * rng.uniform(-1.0, 1.0, S.shape)
            S[0, 0, 0] = 0.0
            S[:2, :2, 1] = 1.0
            i, j = rng.integers(n, size=2)
            S[i, j, 2] = S[j, i, 2] = np.inf
            S[i, j, 3] = np.nan
            S[-1, -1, 4] = -np.inf
            yield np.ldexp(S, rng.choice([-500, 0, 500], K))


def _vectorized_eliminate(S):
    """Reference sweep of K stacked forms (n, n, K): every step one Schur update of the whole stack.

    All cells run all n steps, and what follows a cell's first non-positive
    pivot is discarded afterwards.  Returns the fields of stability._Sweep,
    with the cell axis first.
    """
    n, _, K = S.shape
    scale = stability._binary_exponent(S, axis=(0, 1))
    np.ldexp(S, -scale, out=S)
    qnorm = np.sqrt(np.einsum("ijk,ijk->k", S, S))
    pivots = np.empty((n, K))
    x_block = np.full((2, 2, K), np.nan)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n):
            if k == n - 2:
                x_block[:] = S[k:, k:]
            pivots[k] = S[k, k]
            col = S[k + 1 :, k]
            S[k + 1 :, k + 1 :] -= col[:, None] * col[None, :] / pivots[k]
        small = np.abs(pivots) < stability.ZERO_PIVOT_REL * np.maximum(qnorm, 1e-300)
        ended = small | (pivots <= 0.0)
    completed = ~ended.any(axis=0)
    stop = np.where(completed, n - 1, ended.argmax(axis=0))
    pivot = np.where(completed, pivots.min(axis=0), pivots[stop, np.arange(K)])
    margin = pivot / np.maximum(qnorm, 1e-300)
    pivots[np.arange(n)[:, None] > stop] = np.nan
    x_block[..., stop < n - 2] = np.nan
    zero = ~completed & small[stop, np.arange(K)]
    pivots, x_block = np.ldexp(pivots, scale), np.ldexp(x_block, scale)
    return pivots.T, stop, completed, zero, margin, np.moveaxis(x_block, -1, 0)


def _cell(sweep, k=None):
    """The fields of a sweep, or of cell k of a stacked one, as Python values."""
    return [np.asarray(v if k is None else v[k]).tolist() for v in sweep]


def test_eliminate_stack_equals_its_cells():
    margin_index = stability._Sweep._fields.index("margin")
    seen = {"completed": 0, "ended": 0, "zero": 0}
    for S in _stacked_forms():
        stack = _cell(stability._eliminate(S.copy()))
        assert repr(stack) == repr(_cell(_vectorized_eliminate(S.copy())))
        for k in range(S.shape[2]):
            one = _cell(stability._eliminate(S[:, :, k].copy()))
            assert repr(one) == repr(_cell(_vectorized_eliminate(S[:, :, k : k + 1].copy()), 0))
            cell = [field[k] for field in stack]
            margins = one.pop(margin_index), cell.pop(margin_index)
            # Every field but the margin is equal by repr, x_block included.
            assert repr(one) == repr(cell)
            # The margin is a pivot over |Q|, einsum's sum of squares, which
            # adds one form's squares in another order than a stack's: the
            # two agree to the last bits.
            assert math.isnan(margins[0]) == math.isnan(margins[1])
            if not math.isnan(margins[0]):
                assert math.isclose(*margins, rel_tol=4 * 2.0**-52, abs_tol=0.0)
            sweep = stability._eliminate(S[:, :, k].copy())
            seen["zero" if sweep.zero else "completed" if sweep.completed else "ended"] += 1
    assert min(seen.values()) >= 40


def _trap_forms():
    """Named forms (n, n) that probe the sweep's skip of steps whose column below the pivot is +0.0.

    Rows 0 and 1 of the 8 x 8 forms are decoupled, as in every reduced form,
    unless a trap puts a -0.0 there or sets a pivot that a +0.0 column
    follows: NaN, +inf, 0 or negative.
    """
    rng = np.random.default_rng(37)
    a = rng.normal(size=(8, 8))
    base = a @ a.T + 8.0 * np.eye(8)
    base[:2, 2:] = base[2:, :2] = base[0, 1] = base[1, 0] = 0.0
    forms = {"decoupled": base}
    for name, i, value in (("nan", 0, np.nan), ("inf", 0, np.inf), ("zero", 0, 0.0), ("negative", 0, -1.0),
                           ("nan_second", 1, np.nan), ("negative_second", 1, -2.0)):
        forms[f"{name}_pivot"] = base.copy()
        forms[f"{name}_pivot"][i, i] = value
    # -0.0 in column 0 is not +0.0: the step runs, and turns the -0.0 of the trailing block
    # that x_block reads into +0.0.
    minus_zero = np.diag(rng.uniform(1.0, 2.0, 8))
    minus_zero[7, 0] = minus_zero[0, 7] = minus_zero[7, 6] = minus_zero[6, 7] = -0.0
    forms["minus_zero"] = minus_zero
    forms["minus_zero_coupled"] = base.copy()
    forms["minus_zero_coupled"][5, 1] = forms["minus_zero_coupled"][1, 5] = -0.0
    for value in (2.0, -1.0, 0.0, np.nan, np.inf):
        forms[f"1x1_{value}"] = np.array([[value]])
    forms["2x2_decoupled"] = np.array([[1.0, 0.0], [0.0, 3.0]])
    forms["2x2_minus_zero"] = np.array([[1.0, -0.0], [-0.0, 3.0]])
    forms["2x2_nan_pivot"] = np.array([[np.nan, 0.0], [0.0, 3.0]])
    forms["2x2_negative_pivot"] = np.array([[-1.0, 0.0], [0.0, 3.0]])
    forms["2x2_coupled"] = np.array([[2.0, 1.0], [1.0, 2.0]])
    return forms


@np.errstate(invalid="ignore")  # the reference's margin is inf / inf on the +inf pivot
def test_eliminate_equals_the_reference_on_trap_forms():
    forms = _trap_forms()
    for name, S in forms.items():
        one = _cell(stability._eliminate(S.copy()))
        assert repr(one) == repr(_cell(_vectorized_eliminate(S[:, :, None].copy()), 0)), name
    by_size = {}
    for name, S in forms.items():
        by_size.setdefault(S.shape[0], []).append(name)
    stacks = list(by_size.values())
    # A NaN pivot in one cell over a column that is +0.0 in every cell: that cell's later pivots are NaN.
    stacks += [["nan_pivot", "decoupled"], ["decoupled", "decoupled"], ["minus_zero", "decoupled"],
               ["2x2_nan_pivot", "2x2_decoupled"]]
    for names in stacks:
        S = np.stack([forms[name] for name in names], axis=-1)
        stack = _cell(stability._eliminate(S.copy()))
        assert repr(stack) == repr(_cell(_vectorized_eliminate(S.copy()))), names
    sweep = stability._eliminate(np.stack([forms["nan_pivot"], forms["decoupled"]], axis=-1))
    assert np.isnan(sweep.pivots[0]).all() and np.isfinite(sweep.pivots[1]).all()
    assert np.isnan(sweep.x_block[0]).all() and np.isfinite(sweep.x_block[1]).all()
    assert repr(stability._eliminate(forms["minus_zero"].copy()).x_block.tolist()).count("-0.0") == 0


def test_closed_form_failure_codes_equal_the_select_reference():
    rng = np.random.default_rng(31)
    K = 4000
    b = _body()

    def draw(*shape):
        v = rng.normal(size=shape + (K,)) * 10.0 ** rng.uniform(-2, 2, K)
        v[..., rng.random(K) < 0.02] = np.nan
        return v

    blocks = PotentialHessianBlocks(draw(3, 3), draw(3, 2), draw(3), draw(2, 2), draw(2), draw())
    mult = Multipliers(draw(), draw(), draw(), draw())
    cells = stability._Cells(np.abs(draw()), draw(), mult, np.abs(draw()), blocks)
    den1, cond2, A, B, C, failed = stability._closed_form(b, cells)
    reference = np.select([den1 <= 0.0, cond2 <= 0.0, A <= 0.0, C <= 0.0, A * C - B * B <= 0.0], [1, 2, 3, 4, 5], 0)
    np.testing.assert_array_equal(failed, reference)
    assert failed.dtype == reference.dtype
    assert set(failed.tolist()) == {0, 1, 2, 3, 4, 5}
    assert np.isnan(den1).any()
    # One cell's floats give the elements of the stacked call.
    for k in range(0, K, 97):
        cell = stability._Cells(
            float(cells.nperp[k]),
            float(cells.nz[k]),
            Multipliers(*(float(getattr(mult, f.name)[k]) for f in fields(mult))),
            float(cells.r0[k]),
            PotentialHessianBlocks(*(getattr(blocks, f.name)[..., k] for f in fields(blocks))),
        )
        got = [np.asarray(v).tolist() for v in stability._closed_form(b, cell)]
        assert repr(got) == repr([v[k].tolist() for v in (den1, cond2, A, B, C, failed)])


def test_planar_direction_on_floats_equals_the_array_elements():
    values = [0.0, -0.0, 1e-13, -1e-12, 1e-12, 1.0000000000000002e-12, 5e-324, 0.6, -0.8, 1e308, -1e308, 1e-300,
              np.inf, -np.inf, np.nan]
    nx, ny = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    with np.errstate(invalid="ignore"):  # inf / inf where both components are infinite
        c, s = _planar_direction(nx, ny)
        for k, (x, y) in enumerate(zip(nx.tolist(), ny.tolist())):
            assert repr([float(v) for v in _planar_direction(x, y)]) == repr([float(c[k]), float(s[k])])


def _reversal_draws(route, n, seed=31):
    """(eq, b, model) of the branches that seeded solves on one route find; draws without one are skipped.

    "orbitron" draws both sigmas, "dipole" alternates the tilted branches of
    a linear-plus-pair field under gravity with the equatorial branches of
    the pair alone, and "levitation" builds the levitating branch.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        M, I, mu, q, h = rng.uniform(0.5, 2.0, 5).tolist()
        bp, r0, spin, u = rng.uniform(1.0, 5.0), rng.uniform(0.3, 4.0) * h, rng.uniform(-20.0, 20.0), rng.random()
        sigma = int(rng.choice([-1, 1]))
        pair = DipolePair(q, h)
        composite = Composite((Linear(1.0, bp), pair))
        b0 = BodyParams(M=M, I_perp=I, I3=1.0, mu=mu, g=0.0)
        # kappa = M g / (mu B') runs over [1, sqrt(1 + beta^2)), where the levitation discriminant is positive
        beta = eval_jet(pair, r0, 0.0).Br_z / bp
        kappa = 1.0 + u * (math.hypot(1.0, beta) - 1.0)
        bg = replace(b0, g=kappa * mu * bp / M)
        try:
            if route == "orbitron":
                model, b, eqs = pair, b0, [solve_orbitron_equatorial(pair, b0, r0, spin, sigma)]
            elif route == "dipole" and i % 2 == 0:
                model, b, eqs = composite, bg, solve_dipole_equilibrium(composite, bg, r0, spin)
            elif route == "dipole":
                model, b, eqs = pair, b0, solve_dipole_equilibrium(pair, b0, r0, spin)
            else:
                model, b = composite, bg
                eqs = [build_levitation_equilibrium(composite, bg, r0, *solve_levitation(beta, kappa))]
        except OrbitronError:
            continue
        out += [(eq, b, model) for eq in eqs]
    return out


def _bits(eq):
    m = eq.mult
    floats = np.array([eq.r0, eq.p0, eq.C2, eq.residual, m.omega, m.lambda1, m.lambda2, m.lambda_])
    return floats.tobytes(), eq.nu0.tobytes(), eq.pi0.tobytes(), eq.sigma


def _route_outcomes(eq, b, model):
    """Each certificate route's record and details at eq, or the error it raises.

    The routes are closed_form_conditions, orbitron_conditions on an
    equatorial axis, levitation_conditions under gravity and the eigenvalue
    oracle; each verdict is checked to be the one its margin gives.
    """
    blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
    routes = [partial(closed_form_conditions, eq, b, blocks)]
    if eq.nu0[0] == 0.0:
        routes.append(partial(orbitron_conditions, eq, b, model))
    if b.g > 0.0:
        routes.append(partial(levitation_conditions, eq, b, model))
    out = []
    for route in routes:
        try:
            cert = route()
        except OrbitronError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        assert cert.verdict == stability._classify(cert.margin)
        out.append((cert.to_record(), cert.details))
    eig = eigen_certificate(reduced_hessian(eq, b, blocks))
    assert eig.verdict == stability._classify(eig.margin)
    return out + [(eig.verdict, eig.margin, eig.eigenvalues)]


@pytest.mark.parametrize("route", ["orbitron", "dipole", "levitation"])
def test_time_reversal_is_a_symmetry_of_every_route(route):
    # the twin at -omega is an equilibrium with the same residual and the same certificates, bit for bit
    draws = _reversal_draws(route, 300)
    assert len(draws) >= 100
    if route == "orbitron":
        assert {eq.sigma for eq, _, _ in draws} == {-1, 1}
    if route == "dipole":
        assert {eq.nu0[0] == 0.0 for eq, _, _ in draws} == {False, True}
    verdicts = set()
    for eq, b, model in draws:
        twin = eq.time_reversed()
        assert _bits(twin.time_reversed()) == _bits(eq)
        assert _bits(twin.time_reversed().time_reversed()) == _bits(twin)  # the twin's -0 components survive
        assert twin.mult.omega == -eq.mult.omega and twin.C2 == -eq.C2
        assert twin.pi0.tobytes() == (-eq.pi0).tobytes()
        assert repr(first_order_residual(twin, b, model)) == repr(first_order_residual(eq, b, model))
        outcomes = _route_outcomes(eq, b, model)
        assert repr(_route_outcomes(twin, b, model)) == repr(outcomes)
        verdicts.add(outcomes[-1][0])
    assert {"stable", "not_certified"} <= verdicts


def test_a_certificate_verdict_is_derived_from_its_margin():
    with pytest.raises(TypeError):
        StabilityCertificate(
            verdict="stable", margin=-1.0, lambda_ok=True, A=1.0, B=0.0, C=1.0, pivots=(), failed_condition=None
        )
    with pytest.raises(TypeError):
        EigenCertificate(verdict="stable", margin=-1.0, eigenvalues=(-1.0,))
    eq, b, _ = _dipoletron()
    cert = closed_form_conditions(eq, b, hessian_blocks(eq.r0, eq.nu0, DipolePair(1.0, 1.0), b))
    eig = eigen_certificate(np.eye(3))
    assert cert.verdict == eig.verdict == "stable"
    for c in (cert, eig):
        assert replace(c, margin=-1.0).verdict == "not_certified"
        assert replace(c, margin=0.0).verdict == "marginal"
        with pytest.raises(NonFinite):
            replace(c, margin=math.nan)
    # every route on the criterion-5 draws
    rng = np.random.default_rng(SEED)
    seen = set()
    for _ in range(400):
        eq, b, blocks = draw_synthetic_case(rng)
        Q = reduced_hessian(eq, b, blocks)
        certs = [eigen_certificate(Q)]
        try:
            certs.append(closed_form_conditions(eq, b, blocks))
        except ZeroPivot:
            pass
        for c in certs:
            assert c.verdict == stability._classify(c.margin)
            seen.add(c.verdict)
    assert seen == {"stable", "not_certified"}
