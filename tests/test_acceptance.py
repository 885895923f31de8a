"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from orbitron.core import BodyParams, ReducedState
from orbitron.dynamics import (
    IntegratorConfig,
    distance_to_orbit,
    integrate,
    relative_equilibrium_orbit,
)
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    build_support_state,
    first_order_residual,
    solve_dipole_equilibrium,
    solve_levitation,
    solve_levitation_equilibrium,
    solve_orbitron_equatorial,
    split_levitation_model,
)
from orbitron.errors import ZeroPivot
from orbitron.fields import Composite, DipolePair, Linear, eval_jet
from orbitron.potential import DipolePotential, hessian_blocks
from orbitron.scan import window_endpoints
from orbitron.stability import (
    closed_form_conditions,
    isolated_squares_reduce,
    levitation_conditions,
    orbitron_conditions,
    reduced_hessian,
)

from synthetic import SEED, draw_synthetic_case
from test_fields import maxwell_residual


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {desc}")
        raise
    print(f"criterion {n}: PASS - {desc}")


def _body(g=0.0):
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=g)


def _levitation_setup():
    model = Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, 0.8, 0.0).Br_z / linear.Bp
    kappa = 1.001
    b = BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=kappa * linear.Bp)
    return model, b, beta, kappa


def test_criterion_1_dipoletron_window():
    with criterion(1, "window endpoints match the closed-form radicals"):
        t0 = time.monotonic()
        lower, upper = window_endpoints()
        r_lo = 2.0 * math.sqrt(1.0 - math.sqrt(5.0 / 6.0))
        r_hi = math.sqrt(9.0 - math.sqrt(65.0))
        assert abs(lower - r_lo) <= 1e-9
        assert abs(upper - r_hi) <= 1e-9

        # the same bisection run on the polynomial conditions with the
        # derivative coefficient miscopied as 28 lands far from the radicals,
        # so the check genuinely discriminates between the two forms
        def poly_endpoints(coef: float) -> tuple[float, float]:
            def inside(x: float) -> bool:
                axial = -(3.0 * x**4 - 24.0 * x * x + 8.0)
                radial = x**4 - coef * x * x + 16.0
                return axial > 0.0 and radial > 0.0

            grid = np.linspace(0.3, 1.5, 601)
            flags = [inside(float(g)) for g in grid]
            i0 = flags.index(True)
            i1 = i0
            while i1 + 1 < len(flags) and flags[i1 + 1]:
                i1 += 1

            def bis(lo: float, hi: float, lo_in: bool) -> float:
                while hi - lo > 1e-12:
                    mid = 0.5 * (lo + hi)
                    if inside(mid) == lo_in:
                        lo = mid
                    else:
                        hi = mid
                return 0.5 * (lo + hi)

            lo_end = bis(float(grid[i0 - 1]), float(grid[i0]), False) if i0 > 0 else float(grid[0])
            hi_end = (
                bis(float(grid[i1]), float(grid[i1 + 1]), True)
                if i1 + 1 < len(flags)
                else float(grid[-1])
            )
            return lo_end, hi_end

        lo18, hi18 = poly_endpoints(18.0)
        assert abs(lo18 - r_lo) <= 1e-9
        assert abs(hi18 - r_hi) <= 1e-9
        _, hi28 = poly_endpoints(28.0)
        assert abs(hi28 - r_hi) > 1e-3
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_field_correctness():
    with criterion(2, "Maxwell residuals and finite-difference jets at 1000 points"):
        t0 = time.monotonic()
        rng = np.random.default_rng(SEED)
        first = ("Br_r", "Br_z", "Bz_r", "Bz_z")
        for model in (DipolePair(1.0, 1.0), Linear(0.7, 2.1)):
            count = 0
            while count < 1000:
                r = float(rng.uniform(0.05, 4.0))
                z = float(rng.uniform(-3.0, 3.0))
                if isinstance(model, DipolePair) and (
                    math.hypot(r, z - model.h) <= 0.1 or math.hypot(r, z + model.h) <= 0.1
                ):
                    continue
                count += 1
                j = eval_jet(model, r, z)
                sc = max(
                    abs(getattr(j, k))
                    for k in ("Br", "Bz", "Br_r", "Br_z", "Bz_r", "Bz_z", "Bz_rr", "Bz_rz", "Bz_zz")
                )
                div, curl = maxwell_residual(model, r, z)
                mscale = math.hypot(j.Br, j.Bz) + max(
                    abs(j.Br_r), abs(j.Br_z), abs(j.Bz_r), abs(j.Bz_z)
                ) * r
                assert abs(div) <= 1e-9 * mscale
                assert abs(curl) <= 1e-9 * mscale

                h1 = 1e-6 * max(1.0, r, abs(z))
                jp_r, jm_r = eval_jet(model, r + h1, z), eval_jet(model, r - h1, z)
                jp_z, jm_z = eval_jet(model, r, z + h1), eval_jet(model, r, z - h1)
                fd = {
                    "Br_r": (jp_r.Br - jm_r.Br) / (2.0 * h1),
                    "Br_z": (jp_z.Br - jm_z.Br) / (2.0 * h1),
                    "Bz_r": (jp_r.Bz - jm_r.Bz) / (2.0 * h1),
                    "Bz_z": (jp_z.Bz - jm_z.Bz) / (2.0 * h1),
                }
                for k in first:
                    a = getattr(j, k)
                    assert abs(a - fd[k]) <= 1e-6 * max(abs(a), 1e-3 * sc)
                fd2 = {
                    "Bz_rr": (jp_r.Bz_r - jm_r.Bz_r) / (2.0 * h1),
                    "Bz_rz": (jp_z.Bz_r - jm_z.Bz_r) / (2.0 * h1),
                    "Bz_zz": (jp_z.Bz_z - jm_z.Bz_z) / (2.0 * h1),
                }
                for k, v in fd2.items():
                    a = getattr(j, k)
                    assert abs(a - v) <= 1e-5 * max(abs(a), 1e-3 * sc)
        assert time.monotonic() - t0 < 5.0


def test_criterion_3_equilibrium_fidelity():
    with criterion(3, "solver residuals below 1e-10 and one-period closure"):
        t0 = time.monotonic()
        b = _body()
        model = DipolePair(1.0, 1.0)
        eqs = [
            (solve_orbitron_equatorial(model, b, 0.8, 10.0, 1), b, model),
            (solve_orbitron_equatorial(model, b, 3.0, 10.0, -1), b, model),
        ]
        lmodel, lb, _, _ = _levitation_setup()
        leq = solve_levitation_equilibrium(lmodel, lb, 0.8)
        eqs.append((leq, lb, lmodel))
        for branch in solve_dipole_equilibrium(lmodel, lb, 0.8, leq.C2):
            eqs.append((branch, lb, lmodel))
        for eq, bx, mx in eqs:
            assert eq.residual < 1e-10
            assert first_order_residual(eq, bx, mx) < 1e-10

        eq = eqs[0][0]
        om = eq.mult.omega
        assert abs(om * om - 3.5694) <= 1e-3
        T = 2.0 * math.pi / om
        cfg = IntegratorConfig(dt=T / 2000.0, steps=2000, scheme="rk4", record_every=2000)
        out = integrate(build_support_state(eq), cfg, b, DipolePotential(model, b))
        ref = relative_equilibrium_orbit(eq, out[-1].t).as_vector()
        got = out[-1].state.as_vector()
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-6
        assert time.monotonic() - t0 < 10.0


def test_criterion_4_conservation_suite():
    with criterion(4, "invariant drifts, 4th-order scaling, projected C1"):
        t0 = time.monotonic()
        b = _body()
        model = DipolePair(1.0, 1.0)
        V = DipolePotential(model, b)
        eq = solve_orbitron_equatorial(model, b, 0.8, 10.0, 1)
        om = eq.mult.omega
        rng = np.random.default_rng(7)
        s0 = build_support_state(eq)
        sp = ReducedState.from_vector(s0.as_vector() * (1.0 + 1e-3 * rng.standard_normal(12)))

        def drifts(state, dt, n, scheme="rk4"):
            cfg = IntegratorConfig(dt=dt, steps=n, scheme=scheme, record_every=max(1, n // 100))
            out = integrate(state, cfg, b, V)
            res = {}
            for name in ("h", "J3", "C1", "C2"):
                q0 = getattr(out[0], name)
                res[name] = max(abs(getattr(x, name) - q0) for x in out) / max(1.0, abs(q0))
            return res

        fine = drifts(sp, 0.005 / om, 10000)
        for name in ("h", "J3", "C2"):
            assert fine[name] <= 1e-8

        coarse = drifts(sp, 0.04 / om, 1250)
        half = drifts(sp, 0.02 / om, 2500)
        floor = 1e-13
        for name in ("h", "J3", "C2"):
            if coarse[name] <= floor:
                continue  # both drifts at the rounding floor; scaling is unobservable
            assert coarse[name] / max(half[name], 1e-300) >= 15.0

        proj = drifts(sp, 0.005 / om, 10000, scheme="rk4_projected")
        assert proj["C1"] == 0.0
        assert time.monotonic() - t0 < 30.0


def test_criterion_5_certificate_equivalence():
    with criterion(5, "three certificate routes agree on 200+ random forms"):
        t0 = time.monotonic()
        rng = np.random.default_rng(SEED)
        outside = stable = not_pd = 0
        while outside < 220:
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
        assert outside >= 200
        assert stable >= 40 and not_pd >= 40
        assert time.monotonic() - t0 < 30.0


def test_criterion_6_specialization_consistency():
    with criterion(6, "general conditions reduce to the equatorial ones"):
        b = _body()
        model = DipolePair(1.0, 1.0)
        for r0, pi0 in ((0.5, 10.0), (0.8, 10.0), (1.2, 10.0), (0.9, 20.0), (0.7, 6.0)):
            eq = solve_orbitron_equatorial(model, b, r0, pi0, 1)
            orb = orbitron_conditions(eq, b, model)
            blocks = hessian_blocks(r0, eq.nu0, model, b)
            cf = closed_form_conditions(eq, b, blocks)
            assert orb.B == 0.0
            assert cf.B == 0.0
            assert abs(orb.A - cf.A) <= 1e-10 * max(1.0, abs(cf.A))
            assert abs(orb.C - cf.C) <= 1e-10 * max(1.0, abs(cf.C))
            assert orb.verdict == cf.verdict


def test_criterion_7_levitation_existence():
    with criterion(7, "levitating branch exists, balances, and certifies stable"):
        model, b, beta, kappa = _levitation_setup()
        assert beta < 0.0
        assert kappa == 1.0 + 1e-3

        nu_r, nu_z, xi2 = solve_levitation(beta, kappa)
        # force balance: axis line, spin-rate relation, unit axis
        assert abs(nu_z + beta * nu_r - kappa) <= 1e-12
        assert abs(beta * nu_z - 0.5 * nu_r + kappa * xi2) <= 1e-12
        assert abs(nu_r * nu_r + nu_z * nu_z - 1.0) <= 1e-12

        eq = build_levitation_equilibrium(model, b, 0.8, nu_r, nu_z, xi2)
        s = build_support_state(eq)
        assert first_order_residual(eq, b, model) <= 1e-12
        assert abs(float(s.nu @ s.nu) - 1.0) <= 1e-12

        cert = levitation_conditions(eq, b, model)
        assert cert.verdict == "stable"
        assert cert.details["dynamic_lhs"] > cert.details["dynamic_rhs"]

        wr, wz, wx = solve_levitation(-0.5, -1.1)
        assert abs(wr - 0.28) <= 1e-12
        assert abs(wz - (-0.96)) <= 1e-12
        assert abs(wx - 17.0 / 55.0) <= 1e-12


def test_criterion_8_nonlinear_smoke():
    with criterion(8, "small perturbations stay near the orbit only in-window"):
        t0 = time.monotonic()
        b = _body()
        model = DipolePair(1.0, 1.0)
        V = DipolePotential(model, b)

        def perturbed(eq, rel, seed):
            s = build_support_state(eq)
            rng = np.random.default_rng(seed)
            parts = []
            for v in (s.x, s.p, s.nu, s.pi):
                scale = max(float(np.linalg.norm(v)), 1.0)
                d = rng.standard_normal(3)
                d /= np.linalg.norm(d)
                parts.append(v + rel * scale * d)
            return ReducedState(*parts)

        def max_distance(eq, seed):
            om = eq.mult.omega
            period = 2.0 * math.pi / om
            steps = int(round(50.0 * period / (0.015 / om)))
            cfg = IntegratorConfig(
                dt=50.0 * period / steps, steps=steps, scheme="rk4", record_every=100
            )
            out = integrate(perturbed(eq, 1e-4, seed), cfg, b, V)
            return max(distance_to_orbit(s.state, eq) for s in out)

        inside = solve_orbitron_equatorial(model, b, 0.8, 10.0, 1)
        assert orbitron_conditions(inside, b, model).verdict == "stable"
        assert max_distance(inside, 42) <= 2e-3

        outside = solve_orbitron_equatorial(model, b, 1.2, 10.0, 1)
        assert orbitron_conditions(outside, b, model).verdict == "not_certified"
        assert max_distance(outside, 43) > 2e-3
        assert time.monotonic() - t0 < 120.0
