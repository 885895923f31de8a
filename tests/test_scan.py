"""Tests for window scans, levitation sweeps, and stability maps."""

import itertools
import json
import math
import random
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orbitron.core import BodyParams
from orbitron.errors import BadSign, ConfigError, NoEquilibrium, NonFinite, OrbitronError
from orbitron.fields import Composite, DipolePair, Linear, eval_jet, model_from_config
from orbitron.potential import hessian_blocks
from orbitron.scan import (
    ScanAxis,
    ScanSpec,
    dipoletron_window,
    levitation_sweep,
    radius_for_beta,
    stability_map,
    window_endpoints,
)
from orbitron.stability import CERTIFICATE_FIELDS, closed_form_conditions, levitation_conditions
from orbitron.equilibrium import (
    build_levitation_equilibrium,
    solve_levitation,
    solve_orbitron_equatorial,
    split_levitation_model,
)


DATA = Path(__file__).parent / "data"


def _body():
    return BodyParams(M=1.0, I_perp=0.1, I3=0.05, mu=1.0, g=0.0)


def _lev_model():
    return Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))


def test_window_rows_match_factored_polynomials():
    # the scan evaluates the field jet; the factored quartics are an
    # independent closed form for the same conditions
    q, h = 1.3, 0.9
    rows = dipoletron_window(q, h, _body(), n=41)
    assert len(rows) == 41
    for row in rows:
        r = row["r0"]
        D = r * r + h * h
        poly_axial = -6.0 * q * (3.0 * r**4 - 24.0 * r * r * h * h + 8.0 * h**4) * D**-4.5
        poly_radial = 6.0 * q * (r**4 - 18.0 * r * r * h * h + 16.0 * h**4) * D**-4.5
        scale = max(abs(row["axial"]), abs(row["radial"]), 1e-3)
        assert abs(row["axial"] - poly_axial) <= 1e-12 * scale
        assert abs(row["radial"] - poly_radial) <= 1e-12 * scale
        bz_r = 6.0 * q * r * (r * r - 4.0 * h * h) * D**-3.5
        assert math.isclose(row["omega2"], -bz_r / r, rel_tol=1e-11)
        assert row["in_window"] == (
            row["axial"] > 0.0 and row["radial"] > 0.0 and row["omega2"] > 0.0
        )
    assert 0 < sum(r["in_window"] for r in rows) < len(rows)


def test_window_endpoints_match_radicals():
    lo, hi = window_endpoints()
    assert abs(lo - math.sqrt(4.0 - 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(hi - math.sqrt(9.0 - math.sqrt(65.0))) <= 5e-12
    lo, hi = window_endpoints(sigma=-1, ratio_range=(1.0, 6.0))
    assert abs(lo - math.sqrt(4.0 + 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(hi - math.sqrt(9.0 + math.sqrt(65.0))) <= 5e-12


def test_window_endpoints_scale_free():
    # the window in r0 / h depends on neither the moment nor the spacing: a
    # pair other than the unit one leaves its window at window_endpoints()
    b = _body()
    for sigma, ratio_range in ((1, (0.3, 1.5)), (-1, (1.0, 6.0))):
        lo, hi = window_endpoints(sigma=sigma, ratio_range=ratio_range)
        rows = dipoletron_window(2.3, 0.7, b, ratio_range=ratio_range, sigma=sigma)
        assert [r["in_window"] for r in rows] == [lo < r["ratio"] < hi for r in rows]
        for edge, inside in ((lo, [False, True]), (hi, [True, False])):
            rows = dipoletron_window(2.3, 0.7, b, ratio_range=(edge - 1e-9, edge + 1e-9), n=2, sigma=sigma)
            assert [r["in_window"] for r in rows] == inside


def test_window_endpoints_no_window():
    with pytest.raises(ValueError):
        window_endpoints(sigma=-1)
    with pytest.raises(ValueError):
        dipoletron_window(1.0, 1.0, _body(), sigma=2)


def test_window_endpoints_clip_to_ratio_range():
    lo, hi = window_endpoints()
    assert window_endpoints(ratio_range=(0.3, 0.8)) == (lo, 0.8)
    assert window_endpoints(ratio_range=(0.7, 2.0)) == (0.7, hi)
    assert window_endpoints(ratio_range=(0.7, 0.8)) == (0.7, 0.8)
    for ratio_range in ((0.3, 0.5), (1.0, 1.5), (0.8, 0.7), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            window_endpoints(ratio_range=ratio_range)
    with pytest.raises(ValueError):
        window_endpoints(sigma=2)


def test_window_endpoints_window_narrower_than_old_grid_step():
    # a 601-point grid over this range steps by 0.5 and has no point inside
    # the window, whose width is 0.378
    assert window_endpoints(ratio_range=(0.55, 300.55)) == window_endpoints()


def test_split_levitation_model():
    linear, o_model = split_levitation_model(_lev_model())
    assert linear == Linear(1.0, 3.0)
    assert o_model == DipolePair(1.0, 1.0)
    with pytest.raises(ConfigError):
        split_levitation_model(DipolePair(1.0, 1.0))
    with pytest.raises(ConfigError):
        split_levitation_model(Composite((Linear(1.0, 3.0), Linear(0.0, 1.0), DipolePair(1.0, 1.0))))
    with pytest.raises(ConfigError):
        split_levitation_model(Composite((Linear(1.0, 0.0), DipolePair(1.0, 1.0))))


def test_radius_for_beta_roundtrip():
    model = _lev_model()
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, 0.8, 0.0).Br_z / linear.Bp
    assert beta < 0.0
    assert abs(radius_for_beta(model, beta) - 0.8) <= 1e-12


def test_radius_for_beta_errors():
    model = _lev_model()
    with pytest.raises(ValueError):
        radius_for_beta(model, 0.0)
    with pytest.raises(ValueError):
        radius_for_beta(model, -100.0)
    no_dipole = Composite((Linear(1.0, 3.0), Composite((Linear(0.5, 0.0),))))
    with pytest.raises(ConfigError):
        radius_for_beta(no_dipole, -0.5)


def test_radius_for_beta_raises_on_an_infinite_bisection_value():
    # the float jet overflows to Br_z = -inf at r = h and to +inf at 8 h, so the
    # bisection used to follow the infinities to r = 2 h whatever beta was
    pair = DipolePair(9.757063688382695e269, 3.9709145912385545e39)
    model = Composite((Linear(1.0, 1.66e-267), pair))
    assert eval_jet(pair, pair.h, 0.0).Br_z == -math.inf
    for beta in (-0.363, -0.9, -0.01):
        with pytest.raises(NonFinite, match=f"Br_z of the mirror part is inf at r = .* for beta = {beta:g}$"):
            radius_for_beta(model, beta)


def test_levitation_sweep_rows():
    model = _lev_model()
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, 0.8, 0.0).Br_z / linear.Bp
    rows = levitation_sweep(model, _body(), [1.001, 1.2, 1.5, -1.1], beta)
    assert [row["kappa"] for row in rows] == [1.001, 1.2, 1.5, -1.1]
    ok = rows[0]
    assert ok["error"] == ""
    assert ok["verdict"] == "stable"
    assert ok["margin"] > 0.0
    assert abs(ok["r0"] - 0.8) <= 1e-12
    # the tilt grows with kappa until the branch disappears
    assert rows[1]["error"] == ""
    assert rows[1]["verdict"] == "not_certified"
    assert abs(rows[1]["nu_r"]) > abs(ok["nu_r"])
    assert rows[2]["error"] == "NoRealSolution"
    assert math.isnan(rows[2]["nu_r"]) and rows[2]["verdict"] == ""
    assert rows[3]["error"] == "BadSign"
    # axis direction stays unit on the feasible rows
    for row in rows[:2]:
        assert abs(row["nu_r"] ** 2 + row["nu_z"] ** 2 - 1.0) <= 1e-12


def test_levitation_sweep_deterministic():
    model = _lev_model()
    beta = -0.9
    rows = levitation_sweep(model, _body(), np.linspace(1.0005, 1.3, 7), beta)
    again = levitation_sweep(model, _body(), np.linspace(1.0005, 1.3, 7), beta)
    assert rows == again


def test_levitation_sweep_rejects_positive_beta():
    with pytest.raises(ValueError):
        levitation_sweep(_lev_model(), _body(), [1.001], 0.5)


def test_levitation_sweep_beta_range_is_radius_for_beta():
    # beta >= 0 is out of reach for B' > 0, with radius_for_beta's message
    with pytest.raises(ValueError) as want:
        radius_for_beta(_lev_model(), 0.5)
    with pytest.raises(ValueError) as got:
        levitation_sweep(_lev_model(), _body(), [1.001], 0.5)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        levitation_sweep(_lev_model(), _body(), [1.001], 0.0)
    # with B' < 0 a positive beta has a radius, and every row carries BadSign
    model = Composite((Linear(1.0, -3.0), DipolePair(1.0, 1.0)))
    rows = levitation_sweep(model, _body(), [-1.2, 0.0, 1.001], 0.9)
    assert [row["error"] for row in rows] == ["BadSign"] * 3
    assert all(row["verdict"] == "" and math.isnan(row["margin"]) for row in rows)


def _levitation_sweep_reference(model, b, kappa_values, beta):
    """The per-row route of the stacked sweep, and each certified row's failed condition.

    Each row builds its own Equilibrium at the gravity its kappa presumes and
    certifies it with levitation_conditions.
    """
    linear, _ = split_levitation_model(model)
    r0 = radius_for_beta(model, beta)
    rows, failed = [], []
    for kappa in map(float, kappa_values):
        row = {"kappa": kappa, "beta": beta, "r0": r0, "nu_r": math.nan, "nu_z": math.nan, "xi2": math.nan}
        row.update(verdict="", margin=math.nan, A=math.nan, B=math.nan, C=math.nan, error="")
        rows.append(row)
        g = kappa * b.mu * linear.Bp / b.M
        if g <= 0.0:
            row["error"] = "BadSign"
            continue
        try:
            nu_r, nu_z, xi2 = solve_levitation(beta, kappa)
            b_row = replace(b, g=g)
            eq = build_levitation_equilibrium(model, b_row, r0, nu_r, nu_z, xi2)
            cert = levitation_conditions(eq, b_row, model)
        except (OrbitronError, ArithmeticError) as exc:  # as the sweep catches them
            row["error"] = type(exc).__name__
            continue
        row.update(nu_r=nu_r, nu_z=nu_z, xi2=xi2, verdict=cert.verdict, margin=cert.margin)
        row.update(A=cert.A, B=cert.B, C=cert.C)
        failed.append(cert.failed_condition)
    return rows, failed


# BadSign (kappa <= 0), lambda (kappa < 1), NoEquilibrium (kappa = 1), stable,
# A or C failures, and NoRealSolution past the discriminant.
_SWEEP_KAPPAS = [-1.1, 0.0, 0.9, 1.0, 1.001, 1.01, 1.05, 1.2, 1.5, 2.0]


@pytest.mark.parametrize(
    "model",
    [_lev_model(), Composite((Linear(0.5, 2.0), DipolePair(1.0, 1.0), DipolePair(0.4, 1.7)))],
    ids=["one_pair", "two_pairs"],
)
@pytest.mark.parametrize("r_beta", [0.6, 0.8, 0.9])
@pytest.mark.parametrize("b", [_body(), BodyParams(M=1.3, I_perp=0.07, I3=0.05, mu=0.8)], ids=["unit", "scaled"])
def test_levitation_sweep_matches_per_row_route(model, r_beta, b):
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, r_beta, 0.0).Br_z / linear.Bp
    expected, failed = _levitation_sweep_reference(model, b, _SWEEP_KAPPAS, beta)
    assert repr(levitation_sweep(model, b, _SWEEP_KAPPAS, beta)) == repr(expected)
    assert {"BadSign", "NoEquilibrium"} <= {row["error"] for row in expected}
    assert "lambda" in failed


def test_levitation_sweep_covers_every_row_kind():
    model = _lev_model()
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, 0.8, 0.0).Br_z / linear.Bp
    expected, failed = _levitation_sweep_reference(model, _body(), _SWEEP_KAPPAS, beta)
    errors = [row["error"] for row in expected if row["error"]]
    assert errors == ["BadSign", "BadSign", "NoEquilibrium", "NoRealSolution", "NoRealSolution"]
    assert failed == ["lambda", None, None, None, "A"]
    verdicts = [row["verdict"] for row in expected if row["verdict"]]
    assert verdicts == ["not_certified", "stable", "stable", "stable", "not_certified"]


def test_levitation_g_and_tilt_rules_are_one_code():
    # g <= 0 is BadSign before the roots' codes, and the tilt nu_r = +-0 of kappa = +-1 at beta < 0 is
    # NoEquilibrium: the builder raises them and the sweep names its rows by them, BadSign where both hold
    model = _lev_model()
    linear, o_model = split_levitation_model(model)
    beta = eval_jet(o_model, 0.8, 0.0).Br_z / linear.Bp
    with pytest.raises(BadSign, match=r"^levitation needs g > 0$") as no_gravity:
        build_levitation_equilibrium(model, _body(), 0.8, *solve_levitation(beta, 1.001))
    no_tilt, message = [], "^zero tilt cannot balance the radial field of the linear part$"
    for kappa in (1.0, -1.0):
        nu_r, nu_z, xi2 = solve_levitation(beta, kappa)
        assert nu_r == 0.0
        with pytest.raises(NoEquilibrium, match=message) as info:
            build_levitation_equilibrium(model, replace(_body(), g=3.0), 0.8, nu_r, nu_z, xi2)
        no_tilt.append(type(info.value).__name__)
    # kappa B' <= 0 (kappa = -1, 0, -1.1) is g <= 0, and kappa = 1 is the zero tilt
    rows = levitation_sweep(model, _body(), [-1.0, 0.0, 1.0, -1.1, 1.001], beta)
    bad_sign = type(no_gravity.value).__name__
    assert [row["error"] for row in rows] == [bad_sign, bad_sign, no_tilt[0], bad_sign, ""]
    # with B' < 0 only a beta > 0 is in reach, and every row is BadSign
    rows = levitation_sweep(Composite((Linear(1.0, -3.0), DipolePair(1.0, 1.0))), _body(), [1.0, -1.0], 0.9)
    assert [row["error"] for row in rows] == [bad_sign, bad_sign]


@pytest.mark.parametrize(
    "kappas, jets",
    [(_SWEEP_KAPPAS, 1), ([1.001], 1), ([-1.0, 0.0, 1.0, 1.5], 0), ([], 0)],
    ids=["mixed", "one_row", "no_live_row", "empty"],
)
def test_levitation_sweep_makes_one_jet_call(monkeypatch, kappas, jets):
    from orbitron import equilibrium, fields, potential, stability
    from orbitron import scan as scan_module

    calls = {"eval_jet": 0, "first_order_residual": 0, "solve_levitation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fields, potential, equilibrium, stability, scan_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    prefixes = []  # the n of every jet-prefix call, eval_jet's own included
    jet_terms = fields._jet_terms

    def prefix_counted(model, r, z, n=8):
        prefixes.append(n)
        return jet_terms(model, r, z, n)

    monkeypatch.setattr(fields, "_jet_terms", prefix_counted)
    monkeypatch.setattr(scan_module, "_jet_terms", prefix_counted)
    in_radius = {}
    radius = scan_module.radius_for_beta

    def radius_counted(*args):
        before, first = calls["eval_jet"], len(prefixes)
        out = radius(*args)
        in_radius["eval_jet"], in_radius["prefixes"] = calls["eval_jet"] - before, prefixes[first:]
        return out

    monkeypatch.setattr(scan_module, "radius_for_beta", radius_counted)
    rows = levitation_sweep(_lev_model(), _body(), kappas, -0.9)
    assert len(rows) == len(kappas)
    # the radius search reads Br_z, jet term 3, off the 4-term prefix alone
    assert in_radius["eval_jet"] == 0
    assert set(in_radius["prefixes"]) == {4}
    assert calls["eval_jet"] - in_radius["eval_jet"] == jets
    assert calls["first_order_residual"] == 0
    assert calls["solve_levitation"] == 0  # the rows are one elementwise root call


def test_levitation_sweep_flags_non_finite_rows():
    # I_perp omega underflows to 0, so lambda2 is not finite: the per-row
    # route's float quotient raises NonFinite, the stacked rows carry it
    b = BodyParams(M=1.0, I_perp=1e-300, I3=0.05, mu=1e-310, g=0.0)
    model = Composite((Linear(1.0, 3.0), DipolePair(1.0, 1.0)))
    rows = levitation_sweep(model, b, [0.0, 1.001, 1.2], -0.9)
    assert repr(rows) == repr(_levitation_sweep_reference(model, b, [0.0, 1.001, 1.2], -0.9)[0])
    assert [row["error"] for row in rows] == ["BadSign", "NonFinite", "NonFinite"]
    for row in rows:
        assert row["verdict"] == "" and math.isnan(row["nu_r"]) and math.isnan(row["margin"])
    # the closed form's products overflow on a pair this strong: NonFinite, as
    # the per-row route's equilibrium now says of its infinite lambda1
    model = Composite((Linear(1.0, 3.0), DipolePair(1e300, 1.0)))
    expected, _ = _levitation_sweep_reference(model, _body(), [1.001, 1.2], -0.95)
    assert [row["error"] for row in expected] == ["NonFinite", "NonFinite"]
    rows = levitation_sweep(model, _body(), [1.001, 1.2], -0.95)
    assert [row["error"] for row in rows] == ["NonFinite", "NonFinite"]


# kappa = 50000.0000025 at beta = -1e5: the levitation closed form misses |nu| = 1 by 1.5e-12, past its check
_ARITHMETIC_SWEEP = (Composite((Linear(1.0, 1e-5), DipolePair(1.0, 1.0))), BodyParams(), -1e5)


def test_levitation_sweep_row_carries_an_arithmetic_error():
    model, b, beta = _ARITHMETIC_SWEEP
    with pytest.raises(ArithmeticError, match="failed to normalize"):
        solve_levitation(beta, 50000.0000025)
    rows = levitation_sweep(model, b, [1.2, 50000.0000025, 2.0], beta)
    assert [row["error"] for row in rows] == ["", "ArithmeticError", ""]
    assert rows[1]["verdict"] == "" and math.isnan(rows[1]["nu_r"]) and math.isnan(rows[1]["margin"])
    # the whole sweep is the per-row route, whose closed form raises in the middle row
    assert repr(rows) == repr(_levitation_sweep_reference(model, b, [1.2, 50000.0000025, 2.0], beta)[0])


def _extreme_sweeps(n, seed=15):
    """Seeded levitation sweeps whose body and field magnitudes are 10^U(-R, R).

    R cycles through 20, 60, 150 and 300.  Three draws in four take the
    gradient B' that the pair's Br_z reaches at r0 = ratio h, so that
    radius_for_beta finds a radius; the others draw it freely.
    """
    rng = random.Random(seed)
    for i in range(n):
        R = (20, 60, 150, 300)[i % 4]
        M, I, mu, Bp, q, h = (10.0 ** rng.uniform(-R, R) for _ in range(6))
        beta, ratio = -rng.uniform(0.05, 1.5), rng.uniform(0.6, 1.5)
        kappas = [rng.uniform(0.5, 1.6) for _ in range(4)]
        if i % 4:
            try:
                Bp = eval_jet(DipolePair(q, h), ratio * h, 0.0).Br_z / beta
            except NonFinite:
                pass
        yield BodyParams(M=M, I_perp=I, I3=1.0, mu=mu), Composite((Linear(1.0, Bp), DipolePair(q, h))), kappas, beta


def _sweep_outcome(route, model, b, kappas, beta):
    """repr of the rows of a sweep route, or the name of the error it raised."""
    try:
        return repr(route(model, b, kappas, beta))
    except (OrbitronError, ValueError) as exc:
        return type(exc).__name__


# Rows whose equilibrium pi0 is not finite: the sweep certified them as
# marginal, with a zero margin and A, B, C NaN.
_PINNED_SWEEPS = [
    (
        BodyParams(M=6.063339695712793e-175, I_perp=5.568613664411547e279, I3=1.0, mu=2.549749750111134e-274),
        Composite((Linear(1.0, 6.374090203652755e226), DipolePair(2.9359886462531376e240, 3.732431347952445e30))),
        [0.9267768560068209],
        -0.8622635619925001,
    ),
    (
        BodyParams(M=0.003393719938302687, I_perp=7.835558168323594e276, I3=1.0, mu=1.7321805302218585e175),
        Composite((Linear(1.0, 1061487712488309.6), DipolePair(2.5253726441651544e-32, 2.02693216529389e-12))),
        [0.7519764531551307, 0.7796669699007743, 1.2955403605070424, 1.5320331669023453],
        -1.4277484446309774,
    ),
]


def test_levitation_sweep_matches_per_row_route_at_extreme_scales():
    reference = lambda *args: _levitation_sweep_reference(*args)[0]  # noqa: E731
    live = 0
    for b, model, kappas, beta in itertools.chain(_PINNED_SWEEPS, _extreme_sweeps(300)):
        got = _sweep_outcome(levitation_sweep, model, b, kappas, beta)
        assert got == _sweep_outcome(reference, model, b, kappas, beta)
        live += got.count("'error': ''")
    assert live >= 200


def test_scan_axis_validation():
    ScanAxis("r0", 0.5, 1.5, 3)
    axis = ScanAxis("r0", 0.8, 0.8, 1)
    np.testing.assert_array_equal(axis.values(), [0.8])
    with pytest.raises(ValueError):
        ScanAxis("r0", 0.5, 1.5, 0)
    with pytest.raises(ValueError):
        ScanAxis("r0", 0.5, 1.5, 1)
    with pytest.raises(ValueError):
        ScanAxis("r0", 1.5, 0.5, 3)
    with pytest.raises(ValueError, match="width"):
        ScanAxis("pi0", -1e308, 1e308, 3)


@pytest.mark.parametrize(
    "lo, hi, n, message",
    [
        (0.5, 1.5, 0, "axis 'sigma' needs at least 1 point"),
        (0.5, 1.5, 1, "single-point axis 'sigma' needs lo == hi"),
        (1.5, 0.5, 3, "axis 'sigma' range must be increasing"),
        (-1e308, 1e308, 3, "axis 'sigma' range width must be finite"),
    ],
)
def test_scan_axis_errors_name_the_axis(lo, hi, n, message):
    with pytest.raises(ValueError) as info:
        ScanAxis("sigma", lo, hi, n)
    assert str(info.value) == message


def test_stability_map_single_cell_matches_certificate():
    b = _body()
    model = DipolePair(1.0, 1.0)
    spec = ScanSpec(axis1=ScanAxis("r0", 0.8, 0.8, 1), axis2=ScanAxis("pi0", 10.0, 10.0, 1))
    rows = stability_map(spec, model, b)
    assert len(rows) == 1
    row = rows[0]
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    blocks = hessian_blocks(0.8, eq.nu0, model, b)
    cert = closed_form_conditions(eq, b, blocks)
    assert row["verdict"] == cert.verdict == "stable"
    assert row["margin"] == cert.margin
    assert row["A"] == cert.A and row["B"] == cert.B and row["C"] == cert.C
    assert row["error"] == ""


def test_stability_map_grid_and_error_cells():
    b = _body()
    model = DipolePair(1.0, 1.0)
    spec = ScanSpec(axis1=ScanAxis("r0", 0.5, 1.2, 3), axis2=ScanAxis("pi0", 10.0, 10.0, 1))
    rows = stability_map(spec, model, b)
    assert [row["r0"] for row in rows] == [0.5, 0.85, 1.2]
    assert [row["verdict"] for row in rows] == ["not_certified", "stable", "not_certified"]
    # cells outside the sigma = +1 branch carry the error name and no verdict
    spec = ScanSpec(axis1=ScanAxis("r0", 2.5, 3.0, 2), axis2=ScanAxis("pi0", 10.0, 10.0, 1))
    for row in stability_map(spec, model, b):
        assert row["error"] == "WrongFieldSign"
        assert row["verdict"] == ""
        assert math.isnan(row["margin"])


def test_stability_map_config_errors():
    b = _body()
    model = DipolePair(1.0, 1.0)
    ax = ScanAxis("r0", 0.5, 1.2, 3)
    pi_ax = ScanAxis("pi0", 5.0, 15.0, 3)
    with pytest.raises(ConfigError):
        stability_map(ScanSpec(axis1=ax, axis2=ScanAxis("bogus", 0.0, 1.0, 2)), model, b)
    with pytest.raises(ConfigError):
        stability_map(ScanSpec(axis1=ax, axis2=ScanAxis("r0", 0.5, 1.2, 3)), model, b)
    with pytest.raises(ConfigError):
        stability_map(ScanSpec(axis1=ax, axis2=ScanAxis("sigma", 1.0, 1.0, 1)), model, b)


def test_stability_map_rejects_an_axis_also_fixed(monkeypatch):
    from orbitron import scan as scan_module

    def no_jet(*args):
        raise AssertionError("the parameters are checked before any jet")

    monkeypatch.setattr(scan_module, "eval_jet", no_jet)
    axes = ScanAxis("r0", 0.5, 1.2, 3), ScanAxis("pi0", 5.0, 15.0, 2)
    for fixed, named in [({"r0": 1.2}, "['r0']"), ({"sigma": 1.0, "pi0": 8.0, "r0": 1.2}, "['pi0', 'r0']")]:
        with pytest.raises(ConfigError) as info:
            stability_map(ScanSpec(*axes, fixed=fixed), DipolePair(1.0, 1.0), _body())
        assert str(info.value) == f"scan parameters {named} are both an axis and fixed"


def test_stability_map_rejects_unknown_outputs(monkeypatch):
    from orbitron import scan as scan_module

    def no_jet(*args):
        raise AssertionError("the outputs are checked before any jet")

    monkeypatch.setattr(scan_module, "eval_jet", no_jet)
    spec = ScanSpec(ScanAxis("r0", 0.5, 1.2, 3), ScanAxis("pi0", 5.0, 15.0, 2), outputs=("verdict", "verdikt"))
    with pytest.raises(ConfigError, match=r"unknown map outputs \['verdikt'\]") as info:
        stability_map(spec, DipolePair(1.0, 1.0), _body())
    assert str(list(CERTIFICATE_FIELDS)) in str(info.value)
    with pytest.raises(ConfigError, match="error"):
        stability_map(replace(spec, outputs=("margin", "error")), DipolePair(1.0, 1.0), _body())
    # abc_ok was failed_condition is None under another name
    with pytest.raises(ConfigError, match=r"unknown map outputs \['abc_ok'\]"):
        stability_map(replace(spec, outputs=("verdict", "abc_ok")), DipolePair(1.0, 1.0), _body())


PLAIN = (float, str, bool, list, type(None))


def test_stability_map_rows_are_plain_python():
    # a faint gradient breaks the mirror symmetry only where the pair's field
    # has decayed; lambda vanishes at the first cell, and pi0 near 1e308 overflows
    b = _body()
    model = Composite((DipolePair(1.0, 1.0), Linear(0.0, 1e-12)))
    omega, jet = solve_orbitron_equatorial(model, b, 0.8, 0.0).mult.omega, eval_jet(model, 0.8, 0.0)
    pi0 = (b.I_perp * omega**2 - b.mu * jet.Bz) / omega
    spec = ScanSpec(ScanAxis("r0", 0.8, 8.0, 10), ScanAxis("pi0", pi0, 1e308, 3), outputs=CERTIFICATE_FIELDS)
    rows = stability_map(spec, model, b)
    errors = {row["error"] for row in rows}
    assert errors == {"", "ZeroPivot", "NonFinite", "WrongFieldSign", "NotMirrorSymmetric"}
    for row in rows:
        assert list(row) == ["r0", "pi0", *CERTIFICATE_FIELDS, "error"]
        assert all(type(v) in PLAIN for v in row.values()), row
        assert all(type(p) is float for p in (row["pivots"] if row["error"] == "" else []))
    # a repeated output keeps its first place, as a dict built from the keys would
    rows = stability_map(replace(spec, outputs=("margin", "verdict", "margin")), model, b)
    assert all(list(row) == ["r0", "pi0", "margin", "verdict", "error"] for row in rows)


OUTPUTS = ("verdict", "margin", "A", "B", "C", "lambda_ok", "failed_condition", "pivots")


def _per_cell(spec, model, b):
    """stability_map's rows computed one cell at a time through the scalar route."""
    rows = []
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            params = {**spec.fixed, spec.axis1.name: float(v1), spec.axis2.name: float(v2)}
            try:
                eq = solve_orbitron_equatorial(
                    model, b, params["r0"], params["pi0"], int(params.get("sigma", 1))
                )
                blocks = hessian_blocks(eq.r0, eq.nu0, model, b)
                cert = closed_form_conditions(eq, b, blocks)
            except OrbitronError as exc:
                rows.append({"error": type(exc).__name__})
            else:
                rows.append(dict(cert.to_record(), error=""))
    return rows


def _assert_map_matches_cells(spec, model, b):
    rows = stability_map(replace(spec, outputs=OUTPUTS), model, b)
    ref = _per_cell(spec, model, b)
    assert len(rows) == len(ref)
    for row, want in zip(rows, ref):
        assert row["error"] == want["error"]
        if want["error"]:
            assert row["verdict"] == ""
            assert all(math.isnan(row[k]) for k in ("margin", "A", "B", "C"))
            continue
        for key in ("verdict", "lambda_ok", "failed_condition"):
            assert row[key] == want[key]
        for key in ("A", "B", "C"):
            assert row[key] == want[key] or (math.isnan(row[key]) and math.isnan(want[key]))
        assert math.isclose(row["margin"], want["margin"], rel_tol=1e-12)
        assert len(row["pivots"]) == len(want["pivots"])
        np.testing.assert_allclose(row["pivots"], want["pivots"], rtol=1e-12)
    return rows


def test_stability_map_matches_per_cell_route():
    b = _body()
    pair = DipolePair(1.0, 1.0)
    composite = Composite((pair, DipolePair(0.3, 1.6)))
    cases = [
        (ScanSpec(ScanAxis("r0", 0.5, 2.6, 8), ScanAxis("pi0", 2.0, 20.0, 5)), pair),
        (
            ScanSpec(ScanAxis("pi0", 2.0, 20.0, 4), ScanAxis("r0", 0.6, 3.0, 7), fixed={"sigma": -1.0}),
            pair,
        ),
        (
            ScanSpec(ScanAxis("sigma", -1.0, 1.0, 2), ScanAxis("r0", 0.5, 3.0, 6), fixed={"pi0": 8.0}),
            composite,
        ),
        # a fixed r0: every cell reads the jet at the one radius
        (
            ScanSpec(ScanAxis("pi0", 2.0, 20.0, 5), ScanAxis("sigma", -1.0, 1.0, 2), fixed={"r0": 0.8}),
            composite,
        ),
    ]
    seen = set()
    for spec, model in cases:
        rows = _assert_map_matches_cells(spec, model, b)
        seen |= {row["error"] for row in rows} | {row["verdict"] for row in rows}
    assert {"", "WrongFieldSign", "stable", "not_certified"} <= seen


def test_stability_map_error_semantics():
    b = _body()
    pair = DipolePair(1.0, 1.0)
    spec = ScanSpec(ScanAxis("r0", 0.6, 0.9, 3), ScanAxis("pi0", 5.0, 15.0, 2))
    # a linear part with a gradient gives every cell a radial field
    tilted = Composite((pair, Linear(0.5, 2.0)))
    rows = _assert_map_matches_cells(spec, tilted, b)
    assert {row["error"] for row in rows} == {"NotMirrorSymmetric"}
    # at lambda = 0 the fifth pivot vanishes
    omega, jet = solve_orbitron_equatorial(pair, b, 0.8, 0.0).mult.omega, eval_jet(pair, 0.8, 0.0)
    pi0 = (b.I_perp * omega**2 - b.mu * jet.Bz) / omega
    zero = ScanSpec(ScanAxis("r0", 0.8, 0.8, 1), ScanAxis("pi0", pi0, pi0, 1))
    assert [row["error"] for row in _assert_map_matches_cells(zero, pair, b)] == ["ZeroPivot"]
    # arguments outside the domain abort the whole call, as they do cell by cell
    for bad_spec, bad_b in ((spec, replace(b, g=1.0)), (replace(spec, fixed={"sigma": 0.5}), b)):
        with pytest.raises(ValueError):
            stability_map(bad_spec, pair, bad_b)
        with pytest.raises(ValueError):
            _per_cell(bad_spec, pair, bad_b)


@pytest.mark.parametrize(
    "spec, g",
    [
        # sigma = -0.5 at the second cell, sigma = 0 and 0.5 after it
        (ScanSpec(ScanAxis("r0", 0.6, 0.9, 2), ScanAxis("sigma", -1.0, 0.5, 4), fixed={"pi0": 10.0}), 0.0),
        # r0 = -0.3 at the first cell, r0 = 0 after it
        (ScanSpec(ScanAxis("r0", -0.3, 0.9, 5), ScanAxis("pi0", 5.0, 15.0, 2), fixed={"sigma": -1.0}), 0.0),
        (ScanSpec(ScanAxis("pi0", 5.0, 15.0, 2), ScanAxis("r0", 0.0, 0.9, 4)), 0.0),
        (ScanSpec(ScanAxis("r0", 0.6, 0.9, 3), ScanAxis("pi0", 5.0, 15.0, 2)), 1.0),
        # with g != 0 too, the first cell's first failed check names it
        (ScanSpec(ScanAxis("r0", -0.3, 0.9, 5), ScanAxis("pi0", 5.0, 15.0, 2)), 1.0),
        (ScanSpec(ScanAxis("sigma", 0.5, 1.0, 2), ScanAxis("r0", -0.3, 0.9, 5), fixed={"pi0": 10.0}), 1.0),
    ],
)
def test_stability_map_domain_error_is_the_solvers(spec, g):
    # the map raises what solve_orbitron_equatorial raises for the first cell outside its domain
    b, pair = replace(_body(), g=g), DipolePair(1.0, 1.0)
    messages = []
    for v1 in spec.axis1.values():
        for v2 in spec.axis2.values():
            p = {"sigma": 1.0, **spec.fixed, spec.axis1.name: float(v1), spec.axis2.name: float(v2)}
            sigma = int(p["sigma"]) if p["sigma"].is_integer() else p["sigma"]
            try:
                solve_orbitron_equatorial(pair, b, p["r0"], p["pi0"], sigma)
            except ValueError as exc:
                messages.append(str(exc))
            except OrbitronError:
                pass
    with pytest.raises(ValueError) as info:
        stability_map(spec, pair, b)
    assert str(info.value) == messages[0]


def test_stability_map_flags_non_finite_cells():
    # r0 ** 2 overflows in the jet of the two far cells
    spec = ScanSpec(ScanAxis("r0", 0.8, 1e200, 3), ScanAxis("pi0", 10.0, 10.0, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = stability_map(spec, DipolePair(1.0, 1.0), BodyParams())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert [row["error"] for row in rows] == ["", "NonFinite", "NonFinite"]
    assert [row["verdict"] for row in rows] == ["stable", "", ""]
    for row in rows[1:]:
        assert all(math.isnan(row[k]) for k in ("margin", "A", "B", "C"))


@pytest.mark.parametrize(
    "spec",
    [
        ScanSpec(ScanAxis("r0", 0.8, 0.8, 1), ScanAxis("pi0", 10.0, 10.0, 1)),
        ScanSpec(ScanAxis("sigma", -1.0, 1.0, 2), ScanAxis("r0", 0.5, 3.0, 6), fixed={"pi0": 8.0}),
        ScanSpec(ScanAxis("r0", 0.5, 2.6, 40), ScanAxis("pi0", 2.0, 20.0, 40)),
        ScanSpec(ScanAxis("pi0", 2.0, 20.0, 5), ScanAxis("sigma", -1.0, 1.0, 2), fixed={"r0": 0.8}),
    ],
    ids=["1x1", "2x6", "40x40", "fixed-r0"],
)
def test_stability_map_makes_one_jet_call(monkeypatch, spec):
    from orbitron import equilibrium, fields, potential, stability
    from orbitron import scan as scan_module

    calls = {"eval_jet": 0, "hessian_blocks": 0, "_equatorial_tests": 0}
    points = {name: [] for name in calls}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            # a jet's points (r, args[1]); the branch tests' (jet, r0, sigma) values, broadcast
            tests = name == "_equatorial_tests"
            points[name].append(np.broadcast(*args[0], *args[2:]).size if tests else np.size(args[1]))
            return fn(*args, **kwargs)

        return wrapper

    for module in (fields, potential, equilibrium, stability, scan_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rows = stability_map(spec, Composite((DipolePair(1.0, 1.0), DipolePair(0.3, 1.6))), _body())
    assert len(rows) == spec.axis1.n * spec.axis2.n
    assert calls == {"eval_jet": 1, "hessian_blocks": 0, "_equatorial_tests": 1}
    # one jet per distinct radius, the points of the r0 axis or the fixed r0, and
    # one branch test per (r0 point, sigma point)
    axis = {spec.axis1.name: spec.axis1, spec.axis2.name: spec.axis2}
    radii, signs = (axis[name].n if name in axis else 1 for name in ("r0", "sigma"))
    assert points == {"eval_jet": [radii], "hessian_blocks": [], "_equatorial_tests": [radii * signs]}


def _radius_for_beta_reference(model, beta):
    """The pointwise grid-plus-bisection search that the array grid replaced."""
    linear, o_model = split_levitation_model(model)
    target = beta * linear.Bp
    h = max(p.h for p in (o_model.parts if isinstance(o_model, Composite) else (o_model,)))

    def f(r):
        return eval_jet(o_model, r, 0.0).Br_z - target

    grid = np.linspace(0.01 * h, 8.0 * h, 4096)
    vals = np.array([eval_jet(o_model, float(r), 0.0).Br_z for r in grid])
    k_min = int(np.argmin(vals))
    assert vals[k_min] <= target < 0.0
    lo, hi = float(grid[k_min]), float(grid[-1])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * h:
            break
    return 0.5 * (lo + hi), h


@pytest.mark.parametrize(
    "model",
    [
        _lev_model(),
        Composite((Linear(0.5, 2.0), DipolePair(1.0, 1.0), DipolePair(0.4, 1.7))),
        Composite((Composite((Linear(0.5, 2.0), DipolePair(1.0, 1.0))), DipolePair(0.4, 1.7))),
    ],
    ids=["one_pair", "two_pairs", "nested"],
)
@pytest.mark.parametrize("beta", [-0.05, -0.3, -0.75, -0.9, -1.05])
def test_radius_for_beta_matches_pointwise_search(model, beta):
    expected, h = _radius_for_beta_reference(model, beta)
    assert abs(radius_for_beta(model, beta) - expected) <= 1e-14 * h


def _radius_for_beta_full_jet(model, beta):
    """The radius search as it read Br_z off the full 8-term eval_jet, before the 4-term prefix."""
    linear, o_model = split_levitation_model(model)
    target = beta * linear.Bp
    h = max(p.h for p in model.parts if isinstance(p, DipolePair))

    def f(r: float) -> float:
        Br_z = eval_jet(o_model, r, 0.0).Br_z
        if not math.isfinite(Br_z):
            raise NonFinite(f"Br_z of the mirror part is {Br_z!r} at r = {r!r} for beta = {beta:g}")
        return Br_z - target

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        grid = np.linspace(0.01 * h, 8.0 * h, 4096)
        vals = eval_jet(o_model, grid, 0.0).Br_z
    k_min = int(np.argmin(vals))
    if math.isnan(vals[k_min]):
        raise NonFinite(f"Br_z of the mirror part is nan on the radius grid for beta = {beta:g}")
    if not (vals[k_min] <= target <= 0.0) or target == 0.0:
        raise ValueError(
            f"beta Bprime = {target:g} is outside the reachable Br_z range "
            f"[{vals[k_min]:g}, 0) of the mirror part"
        )
    lo, hi = float(grid[k_min]), float(grid[-1])
    f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * h:
            break
    return 0.5 * (lo + hi)


def _radius_outcome(search, model, beta):
    """repr of the radius a search returns, or the class and message of what it raised."""
    try:
        return repr(search(model, beta))
    except (OrbitronError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _seeded_radius_models(seed=32):
    """Seeded levitation fields: one pair, two pairs, and two pairs with the linear part nested."""
    rng = random.Random(seed)
    for _ in range(20):
        linear = Linear(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 4.0))
        pairs = [DipolePair(rng.uniform(0.2, 2.0), rng.uniform(0.5, 2.0)) for _ in range(2)]
        yield Composite((linear, pairs[0]))
        yield Composite((linear, *pairs))
        yield Composite((Composite((linear, pairs[0])), pairs[1]))


def test_radius_for_beta_is_the_full_jet_search_bit_for_bit():
    rng = random.Random(33)
    found = 0
    for model in _seeded_radius_models():
        for beta in [-rng.uniform(0.01, 1.5) for _ in range(5)]:
            got = _radius_outcome(radius_for_beta, model, beta)
            assert got == _radius_outcome(_radius_for_beta_full_jet, model, beta)
            found += isinstance(got, str)
    assert found >= 200


def test_radius_for_beta_raises_as_the_full_jet_search_does():
    # the extreme-scale draws, and the fields whose jet is inf at a midpoint or nan on the grid
    cases = [(model, beta) for _, model, _, beta in _extreme_sweeps(4000)]
    for name in ("scan_levitation_inf_jet", "scan_levitation_nan_grid"):
        cfg = json.loads((DATA / f"{name}.config.json").read_text())
        cases += [(model_from_config(cfg["field"]), beta) for beta in (cfg["scan"]["beta"], -0.9, -0.01)]
    kinds = set()
    for model, beta in cases:
        got = _radius_outcome(radius_for_beta, model, beta)
        assert got == _radius_outcome(_radius_for_beta_full_jet, model, beta)
        kinds.add(got[0] if isinstance(got, tuple) else "radius")
    assert kinds >= {"radius", "ValueError", "NonFinite"}


def test_window_with_non_finite_conditions_raises():
    # the jet overflows at every ratio of a pair this small
    with pytest.raises(NonFinite, match=r"r0 / h = 0\.3, r0 = 3e-111$"):
        dipoletron_window(1.0, 1e-110, _body(), n=3)
    # at this scale only the ratios below 1 overflow; walked downwards, 0.9 is the first
    with pytest.raises(NonFinite, match=r"r0 / h = 0\.9"):
        dipoletron_window(1.0, 4e-35, _body(), ratio_range=(1.5, 0.3), n=5)
    assert len(dipoletron_window(1.0, 4e-35, _body(), ratio_range=(1.5, 1.2), n=2)) == 2


def test_window_rows_are_python_scalars():
    rows = dipoletron_window(1.0, 1.0, _body(), n=5)
    assert list(rows[0]) == ["ratio", "r0", "axial", "radial", "omega2", "in_window"]
    for row in rows:
        assert all(type(row[k]) is float for k in ("ratio", "r0", "axial", "radial", "omega2"))
        assert type(row["in_window"]) is bool
    rows = dipoletron_window(1.0, 1.0, _body(), n=13)
    assert {row["in_window"] for row in rows} == {True, False}
    assert all(list(row) == list(rows[0]) for row in rows)


def test_window_rejects_nonpositive_ratios():
    with pytest.raises(ValueError, match="r0 / h > 0"):
        dipoletron_window(1.0, 1.0, _body(), ratio_range=(0.0, 1.5))
    with pytest.raises(ValueError, match="r0 / h > 0"):
        dipoletron_window(1.0, 1.0, _body(), ratio_range=(-1.0, 1.5), n=11)


@pytest.mark.parametrize("fixed", [{"pi0": math.nan}, {"pi0": math.inf}])
def test_stability_map_rejects_a_non_finite_fixed_value(fixed):
    spec = ScanSpec(ScanAxis("r0", 0.6, 1.0, 3), ScanAxis("sigma", 1.0, 1.0, 1), fixed=fixed)
    with pytest.raises(ValueError, match="r0 and pi0 must be finite"):
        stability_map(spec, DipolePair(1.0, 1.0), _body())


def test_single_point_axis_is_the_linspace_of_one_point():
    # one path for every n: a single point is np.linspace(lo, lo, 1), a float array holding lo
    for lo in (0.8, -1e308, 5e-324, 10, -0.0):
        values = ScanAxis("pi0", lo, lo, 1).values()
        assert values.dtype == np.float64 and values.tolist() == [lo]
    # a point at infinity has no finite width, as a range that overflows has none
    for lo in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="axis 'pi0' range width must be finite"):
            ScanAxis("pi0", lo, lo, 1)
