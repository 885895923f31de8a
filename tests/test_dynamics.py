"""Tests for the reduced equations of motion and the RK4 integrators."""

import decimal
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from orbitron import fields, potential
from orbitron.core import BodyParams, ReducedState, casimirs, hamiltonian, momentum_j3
from orbitron.dynamics import (
    IntegratorConfig,
    TrajectorySample,
    _rhs,
    _rk4_combination,
    distance_to_orbit,
    eom_rhs,
    integrate,
    relative_equilibrium_orbit,
)
from orbitron.equilibrium import build_support_state, solve_dipole_equilibrium, solve_orbitron_equatorial
from orbitron.errors import AxisDegeneracy, NonFinite, SourceSingularity
from orbitron.fields import Composite, DipolePair, Linear, _jet_terms
from orbitron.potential import DipolePotential
from test_fields import count_pair_jets

E3 = np.array([0.0, 0.0, 1.0])


def _body():
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=0.0)


def _dipoletron():
    b = _body()
    model = DipolePair(1.0, 1.0)
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    return model, b, eq


def _zero_potential(b):
    return DipolePotential(Linear(0.0, 0.0), b)


def _tilted_state():
    return ReducedState(
        x=np.array([0.9, 0.1, 0.2]),
        p=np.array([0.3, 1.4, -0.2]),
        nu=np.array([0.6, 0.0, 0.8]),
        pi=np.array([0.5, -0.3, 2.0]),
    )


def _rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_state(s, a):
    R = _rotz(a)
    return ReducedState(x=R @ s.x, p=R @ s.p, nu=R @ s.nu, pi=R @ s.pi)


def test_config_validation():
    IntegratorConfig(dt=0.01, steps=10)
    for bad in (
        dict(dt=0.0, steps=10),
        dict(dt=-1.0, steps=10),
        dict(dt=0.01, steps=0),
        dict(dt=0.01, steps=-5),
        dict(dt=0.01, steps=10, scheme="euler"),
        dict(dt=0.01, steps=10, record_every=0),
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


def test_free_precession_rhs():
    # pi = e3, nu = e1, I_perp = 1: nu rotates about e3 with unit rate
    b = BodyParams(M=1.0, I_perp=1.0, I3=1.0, mu=1.0, g=0.0)
    s = ReducedState(
        x=np.array([1.0, 0.0, 0.0]),
        p=np.zeros(3),
        nu=np.array([1.0, 0.0, 0.0]),
        pi=np.array([0.0, 0.0, 1.0]),
    )
    ds = ReducedState.from_vector(eom_rhs(s.as_vector(), b, _zero_potential(b)))
    np.testing.assert_allclose(ds.nu, [0.0, 1.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(ds.p, np.zeros(3))
    np.testing.assert_array_equal(ds.pi, np.zeros(3))


def test_rhs_infinitesimal_invariants():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    rng = np.random.default_rng(40)
    for _ in range(20):
        s = ReducedState(
            x=np.array([rng.uniform(0.4, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)]),
            p=rng.normal(0.0, 1.0, 3),
            nu=rng.normal(0.0, 1.0, 3),
            pi=rng.normal(0.0, 1.0, 3),
        )
        ds = ReducedState.from_vector(eom_rhs(s.as_vector(), b, V))
        scale = max(1.0, float(np.max(np.abs(s.as_vector()))), float(np.max(np.abs(ds.as_vector()))))
        # d/dt (nu.nu) = 2 nu . nu_dot = 0 and d/dt (nu.pi) = 0 along the flow
        assert abs(float(s.nu @ ds.nu)) <= 1e-13 * scale**2
        assert abs(float(ds.nu @ s.pi + s.nu @ ds.pi)) <= 1e-13 * scale**2
        # d/dt J3 = x1 pdot2 - x2 pdot1 + xdot1 p2 - xdot2 p1 + pidot3
        j3dot = (
            s.x[0] * ds.p[1] - s.x[1] * ds.p[0]
            + ds.x[0] * s.p[1] - ds.x[1] * s.p[0]
            + ds.pi[2]
        )
        assert abs(j3dot) <= 1e-12 * scale**2


def test_rhs_at_equilibrium_is_rigid_rotation():
    model, b, eq = _dipoletron()
    V = DipolePotential(model, b)
    s = build_support_state(eq)
    ds = ReducedState.from_vector(eom_rhs(s.as_vector(), b, V))
    om = eq.mult.omega
    for name in ("x", "p", "nu", "pi"):
        block = getattr(s, name)
        expected = om * np.cross(E3, block)
        np.testing.assert_allclose(getattr(ds, name), expected, rtol=0,
                                   atol=1e-10 * max(1.0, float(np.max(np.abs(expected)))))


def test_eom_rhs_on_a_stack_matches_single_states():
    b = BodyParams(M=1.3, I_perp=0.1, I3=0.05, mu=1.0, g=0.7)
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), b)
    rng = np.random.default_rng(6)
    Y = np.empty((5, 12))
    Y[:, 0:3] = rng.uniform(-1.5, 1.5, (5, 3))
    Y[:, 3:6] = rng.normal(0.0, 1.0, (5, 3))
    nu = np.column_stack([rng.uniform(-0.6, 0.6, 5), rng.uniform(0.2, 0.6, 5), np.ones(5)])
    Y[:, 6:9] = nu / np.linalg.norm(nu, axis=1)[:, None]  # tilted, with nu_y != 0
    Y[:, 9:12] = rng.normal(0.0, 2.0, (5, 3))
    stacked = eom_rhs(Y, b, V)
    assert stacked.shape == (5, 12)
    np.testing.assert_array_equal(stacked, [eom_rhs(y, b, V) for y in Y])


def test_eom_rhs_on_the_axis_raises():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = ReducedState(x=np.array([0.0, 0.0, 0.3]), p=np.zeros(3), nu=E3, pi=10.0 * E3)
    with pytest.raises(AxisDegeneracy):
        eom_rhs(s.as_vector(), b, V)


def _outcome(f, *args):
    """repr of f(*args), with array components as lists, or the type and message of what it raises."""
    try:
        return repr([x.tolist() if isinstance(x, np.ndarray) else x for x in f(*args)])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _stage_reference(c, b, V, h, k):
    """_rhs at the stage state as the integrator used to build it, a list of c + h k."""
    return _rhs([a + h * d for a, d in zip(c, k)], b, V)


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


def _stage_cases():
    """(b, V, c, h, k) on floats: a tilted composite state c and stage k, then each with one special component or h."""
    b = BodyParams(M=1.3, I_perp=0.1, I3=0.05, mu=1.0, g=0.7)
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), b)
    c = _tilted_state().as_vector().tolist()
    k = _rhs(c, b, V)
    yield b, V, c, 0.002, k
    for i in range(12):
        for v in SPECIAL:
            yield b, V, c[:i] + [v] + c[i + 1 :], 0.002, k
            yield b, V, c, 0.002, k[:i] + [v] + k[i + 1 :]
        yield b, V, c, SPECIAL[i % 5], k


def test_fused_stage_equals_the_stage_list_on_floats():
    cases = list(_stage_cases())
    assert len(cases) == 1 + 12 * 11
    for b, V, c, h, k in cases:
        assert repr(_rhs(c, b, V, h, k)) == repr(_stage_reference(c, b, V, h, k)), (c, h, k)


@np.errstate(all="ignore")
def test_fused_stage_equals_the_stage_list_on_stacks():
    """A (K, 12) stack of the float cases, split into components, gives their outputs as rows."""
    cases = list(_stage_cases())
    b, V, _, h, _ = cases[0]
    C = np.array([c for _, _, c, h_, _ in cases if h_ == h])
    K = np.array([k for _, _, _, h_, k in cases if h_ == h])
    got = np.column_stack(_rhs(list(C.T), b, V, h, list(K.T)))
    want = np.column_stack(_stage_reference(list(C.T), b, V, h, list(K.T)))
    assert got.shape == (12 * 10 + 1, 12)
    assert repr(got.tolist()) == repr(want.tolist())


def test_fused_stage_on_the_axis_raises_as_the_stage_list():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    c = [0.5, 0.25, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 10.0]
    k = [-1.0, -0.5, 0.2] + [0.1] * 9  # c + 0.5 k has x1 = x2 = 0
    want = _outcome(_stage_reference, c, b, V, 0.5, k)
    assert want.startswith("AxisDegeneracy: ")
    assert _outcome(_rhs, c, b, V, 0.5, k) == want
    # one on-axis row of a stack raises the same
    stack_c, stack_k = np.array([c, [0.8] + c[1:]]).T, np.array([k, k]).T
    assert _outcome(_rhs, list(stack_c), b, V, 0.5, list(stack_k)) == want


@np.errstate(all="ignore")
def test_rk4_combination_equals_the_zipped_comprehension():
    rng = np.random.default_rng(35)
    for trial in range(200):
        rows = rng.normal(0.0, 1.0, (5, 12)) * 10.0 ** rng.integers(-300, 300, (5, 12))
        if trial % 2:
            rows.flat[rng.integers(0, 60, 3)] = rng.choice(SPECIAL, 3)
        c, k1, k2, k3, k4 = rows.tolist()
        h6 = float(rng.uniform(1e-6, 1e-1))
        want = [a + h6 * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(c, k1, k2, k3, k4)]
        assert repr(_rk4_combination(c, h6, k1, k2, k3, k4)) == repr(want)
    # on the (K,) components of a stack
    c, k1, k2, k3, k4 = (list(a) for a in rng.normal(0.0, 1.0, (5, 12, 7)))
    want = [a + 0.01 * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(c, k1, k2, k3, k4)]
    got = _rk4_combination(c, 0.01, k1, k2, k3, k4)
    assert repr([x.tolist() for x in got]) == repr([x.tolist() for x in want])


def _rule_dot(u, v):
    """u . v of 3-vectors, written out in the sum rule's order: (u1 v1 + u2 v2) + u3 v3."""
    return (u[0] * v[0] + u[1] * v[1]) + u[2] * v[2]


@np.errstate(all="ignore")
def _integrate_reference(s0, cfg, b, V, include_casimir=False):
    """The RK4 loop on a (12,) ndarray state, which integrate runs on the 12 float components."""
    projected = cfg.scheme == "rk4_projected"
    y = s0.as_vector()
    if projected:
        y[6:9] /= math.sqrt(_rule_dot(y[6:9], y[6:9]))
    samples = []

    def record(i, c1_preproj):
        s = ReducedState.from_vector(y)
        c1, c2 = casimirs(s)
        h, j3 = hamiltonian(s, b, V, include_casimir), momentum_j3(s)
        if not (np.all(np.isfinite(y)) and all(map(math.isfinite, (h, j3, c1, c2)))):
            raise NonFinite(f"non-finite sample at step {i}")
        samples.append(TrajectorySample(i * cfg.dt, s, h, j3, c1, c2, c1_preproj))

    record(0, None)
    dt = cfg.dt
    for i in range(1, cfg.steps + 1):
        k1 = eom_rhs(y, b, V)
        k2 = eom_rhs(y + 0.5 * dt * k1, b, V)
        k3 = eom_rhs(y + 0.5 * dt * k2, b, V)
        k4 = eom_rhs(y + dt * k3, b, V)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        c1_preproj = None
        if projected:
            c1_preproj = float(_rule_dot(y[6:9], y[6:9]))
            y[6:9] /= math.sqrt(c1_preproj)
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"non-finite state component at step {i}")
        if i % cfg.record_every == 0 or i == cfg.steps:
            record(i, c1_preproj)
    return samples


def _sample_reprs(samples):
    return [
        repr((x.t, x.state.as_vector().tolist(), x.h, x.J3, x.C1, x.C2, x.c1_preproj))
        for x in samples
    ]


def _perturbed_equatorial_orbit():
    """A criterion-8 start: the r0 = 0.8 orbit with each block moved by 1e-4 of its norm."""
    model, b, eq = _dipoletron()
    s = build_support_state(eq)
    rng = np.random.default_rng(42)
    parts = []
    for v in (s.x, s.p, s.nu, s.pi):
        d = rng.standard_normal(3)
        parts.append(v + 1e-4 * max(float(np.linalg.norm(v)), 1.0) * d / np.linalg.norm(d))
    om = eq.mult.omega
    return ReducedState(*parts), b, DipolePotential(model, b), 0.015 / om


def _tilted_composite_case():
    b = BodyParams(M=1.3, I_perp=0.1, I3=0.05, mu=1.0, g=0.7)
    V = DipolePotential(Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0))), b)
    return _tilted_state(), b, V, 0.004


@pytest.mark.parametrize("scheme", ["rk4", "rk4_projected"])
@pytest.mark.parametrize("case", [_tilted_composite_case, _perturbed_equatorial_orbit], ids=["tilted", "criterion_8"])
def test_integrate_equals_the_ndarray_loop_bit_for_bit(case, scheme):
    s0, b, V, dt = case()
    cfg = IntegratorConfig(dt=dt, steps=400, scheme=scheme, record_every=7)
    for include_casimir in (False, True):
        got = integrate(s0, cfg, b, V, include_casimir)
        assert len(got) == 59
        assert _sample_reprs(got) == _sample_reprs(_integrate_reference(s0, cfg, b, V, include_casimir))


@pytest.mark.parametrize("scheme", ["rk4", "rk4_projected"])
@pytest.mark.parametrize(
    "x, p, dt",
    [
        ([0.8, 0.0, 0.0], [0.0, 1e308, 0.0], 1e-3),
        ([1e200, 0.0, 0.0], [0.0, 0.0, 0.0], 1e-3),
        ([0.8, 0.0, 0.0], [0.0, 1.2, 0.0], 1e306),  # a finite start, and a state that overflows at step 1
    ],
    ids=["huge_p", "huge_x", "huge_dt"],
)
def test_integrate_fails_where_the_ndarray_loop_fails(x, p, dt, scheme):
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s0 = ReducedState(x=np.array(x), p=np.array(p), nu=E3, pi=10.0 * E3)
    cfg = IntegratorConfig(dt=dt, steps=5, scheme=scheme)
    with pytest.raises(NonFinite) as want:
        _integrate_reference(s0, cfg, b, V)
    with pytest.raises(NonFinite) as got:
        integrate(s0, cfg, b, V)
    assert str(got.value) == str(want.value)


def test_integrate_takes_one_jet_per_rhs_call(monkeypatch):
    calls = []

    def counted(model, r, z, n=8):
        calls.append(n)
        return _jet_terms(model, r, z, n)

    model, b, eq = _dipoletron()
    cfg = IntegratorConfig(dt=1e-3, steps=10, record_every=3)
    monkeypatch.setattr(potential, "_jet_terms", counted)
    samples = integrate(build_support_state(eq), cfg, b, DipolePotential(model, b))
    # four RHS calls per RK4 step, and one energy per recorded sample (steps 0, 3, 6, 9, 10)
    assert len(samples) == 5
    assert len(calls) == 4 * cfg.steps + len(samples)
    # a stage reads the values and first derivatives, an energy the values
    assert calls.count(5) == 4 * cfg.steps
    assert calls.count(2) == len(samples)


@pytest.mark.parametrize("scheme", ["rk4", "rk4_projected"])
def test_equatorial_orbit_stays_on_the_midplane_path(monkeypatch, scheme):
    # from the exact support state of the README orbit, x3 and p3 stay 0.0 in every sample, so every
    # stage jet and every energy jet is the one-source midplane jet
    model, b, eq = _dipoletron()
    cfg = IntegratorConfig(dt=2.0 * math.pi / eq.mult.omega / 2000.0, steps=300, scheme=scheme)
    counts = count_pair_jets(monkeypatch)
    samples = integrate(build_support_state(eq), cfg, b, DipolePotential(model, b))
    assert len(samples) == cfg.steps + 1
    assert all(s.state.x[2] == 0.0 and s.state.p[2] == 0.0 for s in samples)
    assert counts == {"pair": 4 * cfg.steps + len(samples), "midplane": 4 * cfg.steps + len(samples)}


@pytest.mark.parametrize(
    "x, p, error, max_warnings",
    [
        ([0.0, 0.0, 0.3], [0.0, 0.0, 0.0], AxisDegeneracy, 0),
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], SourceSingularity, 0),
        ([0.8, 0.0, 0.0], [0.0, 1e308, 0.0], NonFinite, 2),
        ([1e200, 0.0, 0.0], [0.0, 0.0, 0.0], NonFinite, 0),
    ],
    ids=["axis", "source", "huge_p", "huge_x"],
)
def test_integrate_failures(x, p, error, max_warnings):
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s0 = ReducedState(x=np.array(x), p=np.array(p), nu=E3, pi=10.0 * E3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            integrate(s0, IntegratorConfig(dt=1e-3, steps=5), b, V)
    assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) <= max_warnings


def test_one_period_return():
    model, b, eq = _dipoletron()
    V = DipolePotential(model, b)
    om = eq.mult.omega
    T = 2.0 * math.pi / om
    s0 = build_support_state(eq)
    cfg = IntegratorConfig(dt=T / 2000.0, steps=2000, record_every=2000)
    last = integrate(s0, cfg, b, V)[-1]
    ref = relative_equilibrium_orbit(eq, last.t)
    got, want = last.state.as_vector(), ref.as_vector()
    for gv, wv in zip(got, want):
        assert abs(gv - wv) <= 1e-6 * max(1.0, abs(wv))


def test_recording_pattern():
    b = _body()
    V = _zero_potential(b)
    s = _tilted_state()
    cfg = IntegratorConfig(dt=0.01, steps=10, record_every=3)
    out = integrate(s, cfg, b, V)
    ts = [round(x.t / 0.01) for x in out]
    assert ts == [0, 3, 6, 9, 10]
    assert out[0].c1_preproj is None


def test_conservation_drift_fourth_order():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = _tilted_state()

    def drifts(dt, n):
        out = integrate(s, IntegratorConfig(dt=dt, steps=n, record_every=max(1, n // 10)), b, V)
        h0 = out[0].h
        j0 = out[0].J3
        c20 = out[0].C2
        return (
            max(abs(x.h - h0) for x in out),
            max(abs(x.J3 - j0) for x in out),
            max(abs(x.C2 - c20) for x in out),
        )

    coarse = drifts(0.008, 750)
    fine = drifts(0.004, 1500)
    for c, f in zip(coarse, fine):
        assert f < c
        assert c / f >= 10.0
    # at the fine step the drifts are already small
    assert fine[0] <= 1e-7 and fine[1] <= 1e-7 and fine[2] <= 1e-7


def test_projected_scheme_pins_nu_norm():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = _tilted_state()
    cfg = IntegratorConfig(dt=0.004, steps=1500, scheme="rk4_projected", record_every=100)
    out = integrate(s, cfg, b, V)
    one_ulp = float(np.nextafter(1.0, 2.0) - 1.0)
    for x in out:
        assert abs(x.C1 - 1.0) <= one_ulp
    # the pre-projection norm is recorded for every step after the first and
    # sits within one step's worth of integrator drift of unity
    for x in out[1:]:
        assert x.c1_preproj is not None
        assert abs(x.c1_preproj - 1.0) <= 1e-6
    # the plain scheme does not populate the diagnostic
    out_plain = integrate(s, IntegratorConfig(dt=0.004, steps=10), b, V)
    assert all(x.c1_preproj is None for x in out_plain)


def test_free_top_conserves_spin_projection():
    b = _body()
    V = _zero_potential(b)
    s = _tilted_state()
    cfg = IntegratorConfig(dt=0.002, steps=10000, record_every=1000)
    out = integrate(s, cfg, b, V)
    c20 = out[0].C2
    assert max(abs(x.C2 - c20) for x in out) < 1e-12
    # pi itself is constant for a free top
    np.testing.assert_allclose(out[-1].state.pi, s.pi, rtol=0, atol=1e-14)


def test_integration_commutes_with_axial_rotation():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = _tilted_state()
    cfg = IntegratorConfig(dt=0.004, steps=500, record_every=500)
    a = 1.234
    rotated_first = integrate(_rot_state(s, a), cfg, b, V)[-1].state
    rotated_last = _rot_state(integrate(s, cfg, b, V)[-1].state, a)
    for name in ("x", "p", "nu", "pi"):
        np.testing.assert_allclose(
            getattr(rotated_first, name), getattr(rotated_last, name), rtol=0, atol=1e-12
        )


def test_nonfinite_detection():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = ReducedState(
        x=np.array([0.8, 0.0, 0.0]),
        p=np.array([0.0, 1e308, 0.0]),
        nu=np.array([0.0, 0.0, 1.0]),
        pi=np.zeros(3),
    )
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        integrate(s, IntegratorConfig(dt=1.0, steps=5), b, V)


def test_relative_equilibrium_orbit_geometry():
    _, _, eq = _dipoletron()
    s0 = build_support_state(eq)
    at0 = relative_equilibrium_orbit(eq, 0.0)
    for name in ("x", "p", "nu", "pi"):
        np.testing.assert_array_equal(getattr(at0, name), getattr(s0, name))
    T = 2.0 * math.pi / eq.mult.omega
    atT = relative_equilibrium_orbit(eq, T)
    for name in ("x", "p", "nu", "pi"):
        np.testing.assert_allclose(getattr(atT, name), getattr(s0, name), rtol=0, atol=1e-12)
    half = relative_equilibrium_orbit(eq, T / 2.0)
    np.testing.assert_allclose(half.x, -s0.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(half.p, -s0.p, rtol=0, atol=1e-12)


def test_distance_to_orbit_vanishes_on_orbit():
    _, _, eq = _dipoletron()
    T = 2.0 * math.pi / eq.mult.omega
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = relative_equilibrium_orbit(eq, rng.uniform(0.0, T))
        assert distance_to_orbit(s, eq) <= 1e-7


def test_distance_to_orbit_detects_phase_invariant_offset():
    # shifting p3 moves the state off the orbit by a known scaled amount
    _, _, eq = _dipoletron()
    T = 2.0 * math.pi / eq.mult.omega
    s = relative_equilibrium_orbit(eq, 0.37 * T)
    delta = 1e-3
    y = s.as_vector().copy()
    y[5] += delta
    d = distance_to_orbit(ReducedState.from_vector(y), eq)
    p_scale = max(abs(eq.p0), 1.0)
    expected = delta / (2.0 * p_scale)
    assert math.isclose(d, expected, rel_tol=1e-6)


def test_distance_to_orbit_grows_with_perturbation():
    _, _, eq = _dipoletron()
    s = build_support_state(eq)
    y = s.as_vector()
    d_small = distance_to_orbit(ReducedState.from_vector(y * (1.0 + 1e-4)), eq)
    d_large = distance_to_orbit(ReducedState.from_vector(y * (1.0 + 1e-2)), eq)
    assert 0.0 < d_small < d_large


def _distance_reference(s, eq):
    """distance_to_orbit on ndarray blocks with each sum written out: the phase from P and Q, then the weighted
    squared differences from the reference blocks turned to that phase."""
    ref = [np.array([eq.r0, 0.0, 0.0]), np.array([0.0, eq.p0, 0.0]), eq.nu0, eq.pi0]
    scales = [max(math.sqrt(_rule_dot(v, v)), 1.0) for v in ref]
    weights = [1.0 / (scale * scale) for scale in scales]
    P = Q = 0.0
    for u, v, w in zip([s.x, s.p, s.nu, s.pi], ref, weights):
        P += w * (u[0] * v[0] + u[1] * v[1])
        Q += w * (u[1] * v[0] - u[0] * v[1])
    h = math.hypot(P, Q)
    c, sn = (P / h, Q / h) if h > 0.0 else (1.0, 0.0)
    total = 0.0
    for u, v, w in zip([s.x, s.p, s.nu, s.pi], ref, weights):
        d = u - np.array([c * v[0] - sn * v[1], sn * v[0] + c * v[1], v[2]])
        total += w * _rule_dot(d, d)
    return math.sqrt(total / 4.0)


def _distance_equilibria():
    """Equilibria whose blocks (r0, p0, |nu0|, |pi0|) lie below and above the scale floor of 1."""
    _, b, eq = _dipoletron()  # 0.8, 1.51, 1, 10
    tilted = Composite((Linear(0.5, 1.2), DipolePair(1.0, 1.0)))
    tb = BodyParams(M=1.3, I_perp=0.1, I3=0.05, mu=1.0, g=0.7)
    return [
        eq,
        solve_orbitron_equatorial(DipolePair(1.0, 1.0), b, 0.7, 0.5),  # 0.7, 1.60, 1, 0.5
        *solve_dipole_equilibrium(tilted, tb, 0.3, 2.0),  # 0.3, 1.43, 1, 1.50, tilted
        *solve_dipole_equilibrium(tilted, tb, 1.6, 2.0),  # 1.6, 0.99, 1, 3.97, tilted
    ]


@pytest.mark.parametrize("case", [_tilted_composite_case, _perturbed_equatorial_orbit], ids=["tilted", "criterion_8"])
def test_distance_to_orbit_equals_the_ndarray_reference_bit_for_bit(case):
    s0, b, V, dt = case()
    eqs = _distance_equilibria()
    scales = {max(abs(v), 1.0) == 1.0 for eq in eqs for v in (eq.r0, eq.p0, float(np.linalg.norm(eq.pi0)))}
    assert scales == {True, False}  # the floor of 1 is hit and missed
    for scheme in ("rk4", "rk4_projected"):
        samples = integrate(s0, IntegratorConfig(dt=dt, steps=400, scheme=scheme, record_every=7), b, V)
        assert len(samples) == 59
        for eq in eqs:
            got = [repr(distance_to_orbit(x.state, eq)) for x in samples]
            assert got == [repr(_distance_reference(x.state, eq)) for x in samples]


def _distance_at_60_digits(s, eq):
    """distance_to_orbit's definition in 60-digit decimals, where K - 2 hypot(P, Q) keeps 40 digits or more."""
    with decimal.localcontext(decimal.Context(prec=60)):
        K = P = Q = decimal.Decimal(0)
        for u, v in zip((s.x, s.p, s.nu, s.pi), ([eq.r0, 0.0, 0.0], [0.0, eq.p0, 0.0], eq.nu0, eq.pi0)):
            u, v = [decimal.Decimal(float(x)) for x in u], [decimal.Decimal(float(x)) for x in v]
            w = 1 / max(sum(x * x for x in v).sqrt(), decimal.Decimal(1)) ** 2
            K += w * (sum(x * x for x in u) + sum(x * x for x in v) - 2 * u[2] * v[2])
            P += w * (u[0] * v[0] + u[1] * v[1])
            Q += w * (u[1] * v[0] - u[0] * v[1])
        return ((K - 2 * (P * P + Q * Q).sqrt()) / 4).sqrt()


@pytest.mark.parametrize("rel, bound", [(1e-4, 1e-10), (1e-6, 1e-10), (1e-8, 1e-8)])
def test_distance_to_orbit_keeps_full_precision_near_the_orbit(rel, bound):
    """50 criterion-8 starts, each block moved by rel of its norm, integrated for 200 steps: each sample's
    distance against 60 digits.  K - 2 hypot(P, Q) was off by up to 1.8e-8, 1.9e-4 and 1.3 relative here."""
    model, b, eq = _dipoletron()
    V = DipolePotential(model, b)
    s0 = build_support_state(eq)
    cfg = IntegratorConfig(dt=0.015 / eq.mult.omega, steps=200, record_every=20)
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(50):
        parts = []
        for v in (s0.x, s0.p, s0.nu, s0.pi):
            d = rng.standard_normal(3)
            parts.append(v + rel * max(float(np.linalg.norm(v)), 1.0) * d / np.linalg.norm(d))
        for x in integrate(ReducedState(*parts), cfg, b, V):
            exact = _distance_at_60_digits(x.state, eq)
            worst = max(worst, float(abs(decimal.Decimal(distance_to_orbit(x.state, eq)) - exact) / exact))
    assert worst <= bound


def _fused_dot(a, b):
    """a . b as a chain of fused multiply-adds from a1 b1, each rounded once: an AVX-512 OpenBLAS ddot's order."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = float(Fraction(x) * Fraction(y) + Fraction(acc))
    return acc


def test_sums_of_products_take_the_sum_rule_where_a_blas_dot_rounds_differently():
    """casimirs, the kinetic terms of hamiltonian and distance_to_orbit on draws where np.dot or the fused
    chain rounds a . a or a . b differently from (a1 b1 + a2 b2) + a3 b3."""
    rng = np.random.default_rng(38)
    draws, fused = [], 0
    for a, c in rng.standard_normal((400, 2, 3)).tolist():
        pairs = [(a, a), (c, c), (a, c)]
        by_fused = any(_fused_dot(u, v) != _rule_dot(u, v) for u, v in pairs)
        if by_fused or any(float(np.dot(u, v)) != _rule_dot(u, v) for u, v in pairs):
            draws.append((a, c))
        fused += by_fused
    assert fused >= 100  # on every host, whatever order its np.dot takes
    b = BodyParams(M=1.3, I_perp=0.1, I3=0.05, mu=1.0, g=0.0)
    V = _zero_potential(b)  # V = 0, so h is the kinetic terms alone
    eqs = _distance_equilibria()
    for a, c in draws:
        s = ReducedState(x=c, p=a, nu=a, pi=c)
        aa, cc, ac = _rule_dot(a, a), _rule_dot(c, c), _rule_dot(a, c)
        assert casimirs(s) == (aa, ac)
        h = aa / (2.0 * b.M) + cc / (2.0 * b.I_perp)
        assert hamiltonian(s, b, V) == h
        assert hamiltonian(s, b, V, include_casimir=True) == h + (0.5 / b.I3 - 0.5 / b.I_perp) * ac**2
        assert [repr(distance_to_orbit(s, eq)) for eq in eqs] == [repr(_distance_reference(s, eq)) for eq in eqs]


def test_distance_to_orbit_builds_no_state_and_takes_no_jet(monkeypatch):
    _, _, eq = _dipoletron()
    s = relative_equilibrium_orbit(eq, 0.3)
    calls = []

    def counting(name, f):
        def counted(*args):
            calls.append(name)
            return f(*args)

        return counted

    monkeypatch.setattr(ReducedState, "__post_init__", counting("state", ReducedState.__post_init__))
    monkeypatch.setattr(ReducedState, "from_vector", staticmethod(counting("state", ReducedState.from_vector)))
    monkeypatch.setattr(fields, "_jet_terms", counting("jet", fields._jet_terms))
    monkeypatch.setattr(potential, "_jet_terms", counting("jet", potential._jet_terms))
    distance_to_orbit(s, eq)
    assert calls == []
    # the counters see each way a state is built or a jet taken
    V = DipolePotential(DipolePair(1.0, 1.0), _body())
    for name, f in [
        ("state", lambda: relative_equilibrium_orbit(eq, 0.3)),
        ("state", lambda: ReducedState.from_vector(s.as_vector())),
        ("jet", lambda: fields.eval_jet(V.model, 0.8, 0.0)),
        ("jet", lambda: V.value(s.x, s.nu)),
    ]:
        calls.clear()
        f()
        assert name in calls


def test_casimir_energy_flag_in_samples():
    b = _body()
    V = DipolePotential(DipolePair(1.0, 1.0), b)
    s = _tilted_state()
    cfg = IntegratorConfig(dt=0.004, steps=50, record_every=10)
    plain = integrate(s, cfg, b, V)
    full = integrate(s, cfg, b, V, include_casimir=True)
    for a, c in zip(plain, full):
        shift = (0.5 / b.I3 - 0.5 / b.I_perp) * a.C2**2
        assert math.isclose(c.h - a.h, shift, rel_tol=1e-10, abs_tol=1e-12)
