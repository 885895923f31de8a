"""Tests for window scans, levitation sweeps, and stability maps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from orbitron.core import BodyParams
from orbitron.errors import BadSign, ConfigError, NonFinite, OrbitronError
from orbitron.fields import Composite, DipolePair, Linear, eval_jet
from orbitron.potential import hessian_blocks
from orbitron.scan import (
    ScanAxis,
    ScanSpec,
    dipoletron_window,
    levitation_sweep,
    radius_for_beta,
    split_levitation_model,
    stability_map,
    window_endpoints,
)
from orbitron.stability import closed_form_conditions
from orbitron.equilibrium import equatorial_rate, solve_orbitron_equatorial


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
    lo, hi = window_endpoints(1.0, 1.0)
    assert abs(lo - math.sqrt(4.0 - 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(hi - math.sqrt(9.0 - math.sqrt(65.0))) <= 5e-12
    lo, hi = window_endpoints(1.0, 1.0, sigma=-1, ratio_range=(1.0, 6.0))
    assert abs(lo - math.sqrt(4.0 + 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(hi - math.sqrt(9.0 + math.sqrt(65.0))) <= 5e-12


def test_window_endpoints_scale_free():
    # the window in r0 / h depends on neither the moment nor the spacing
    ref = window_endpoints(1.0, 1.0)
    other = window_endpoints(2.3, 0.7)
    assert abs(ref[0] - other[0]) <= 1e-11
    assert abs(ref[1] - other[1]) <= 1e-11


def test_window_endpoints_no_window():
    with pytest.raises(ValueError):
        window_endpoints(1.0, 1.0, sigma=-1)
    with pytest.raises(ValueError):
        dipoletron_window(1.0, 1.0, _body(), sigma=2)


def test_window_endpoints_clip_to_ratio_range():
    lo, hi = window_endpoints(1.0, 1.0)
    assert window_endpoints(1.0, 1.0, ratio_range=(0.3, 0.8)) == (lo, 0.8)
    assert window_endpoints(1.0, 1.0, ratio_range=(0.7, 2.0)) == (0.7, hi)
    assert window_endpoints(1.0, 1.0, ratio_range=(0.7, 0.8)) == (0.7, 0.8)
    for ratio_range in ((0.3, 0.5), (1.0, 1.5), (0.8, 0.7), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            window_endpoints(1.0, 1.0, ratio_range=ratio_range)
    with pytest.raises(ValueError):
        window_endpoints(1.0, 1.0, sigma=2)
    with pytest.raises(ValueError):
        window_endpoints(0.0, 1.0)


def test_window_endpoints_window_narrower_than_old_grid_step():
    # a 601-point grid over this range steps by 0.5 and has no point inside
    # the window, whose width is 0.378
    assert window_endpoints(1.0, 1.0, ratio_range=(0.55, 300.55)) == window_endpoints(1.0, 1.0)


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
    with pytest.raises(BadSign):
        levitation_sweep(_lev_model(), _body(), [1.001], 0.5)


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


def test_stability_map_single_cell_matches_certificate():
    b = _body()
    model = DipolePair(1.0, 1.0)
    spec = ScanSpec(axis1=ScanAxis("r0", 0.8, 0.8, 1), axis2=ScanAxis("pi0", 10.0, 10.0, 1))
    rows = stability_map(spec, model, b)
    assert len(rows) == 1
    row = rows[0]
    eq = solve_orbitron_equatorial(model, b, 0.8, 10.0)
    blocks = hessian_blocks(np.array([0.8, 0.0, 0.0]), eq.nu0, model, b)
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


OUTPUTS = ("verdict", "margin", "A", "B", "C", "lambda_ok", "abc_ok", "failed_condition", "pivots")


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
                blocks = hessian_blocks(np.array([eq.r0, 0.0, 0.0]), eq.nu0, model, b)
                cert = closed_form_conditions(eq, b, blocks)
            except OrbitronError as exc:
                rows.append({"error": type(exc).__name__})
            else:
                rows.append(dict(cert.to_record(), abc_ok=cert.abc_ok, error=""))
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
        for key in ("verdict", "lambda_ok", "abc_ok", "failed_condition"):
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
    omega, jet = equatorial_rate(pair, b, 0.8, 1)
    pi0 = (b.I_perp * omega**2 - b.mu * jet.Bz) / omega
    zero = ScanSpec(ScanAxis("r0", 0.8, 0.8, 1), ScanAxis("pi0", pi0, pi0, 1))
    assert [row["error"] for row in _assert_map_matches_cells(zero, pair, b)] == ["ZeroPivot"]
    # arguments outside the domain abort the whole call, as they do cell by cell
    for bad_spec, bad_b in ((spec, replace(b, g=1.0)), (replace(spec, fixed={"sigma": 0.5}), b)):
        with pytest.raises(ValueError):
            stability_map(bad_spec, pair, bad_b)
        with pytest.raises(ValueError):
            _per_cell(bad_spec, pair, bad_b)


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
    ],
    ids=["1x1", "2x6", "40x40"],
)
def test_stability_map_makes_one_jet_call(monkeypatch, spec):
    from orbitron import equilibrium, fields, potential, stability
    from orbitron import scan as scan_module

    calls = {"eval_jet": 0, "hessian_blocks": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (fields, potential, equilibrium, stability, scan_module):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    rows = stability_map(spec, Composite((DipolePair(1.0, 1.0), DipolePair(0.3, 1.6))), _body())
    assert len(rows) == spec.axis1.n * spec.axis2.n
    assert calls == {"eval_jet": 1, "hessian_blocks": 0}


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
    ],
    ids=["one_pair", "two_pairs"],
)
@pytest.mark.parametrize("beta", [-0.05, -0.3, -0.75, -0.9, -1.05])
def test_radius_for_beta_matches_pointwise_search(model, beta):
    expected, h = _radius_for_beta_reference(model, beta)
    assert abs(radius_for_beta(model, beta) - expected) <= 1e-14 * h


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


def test_window_rejects_nonpositive_ratios():
    with pytest.raises(ValueError, match="r0 / h > 0"):
        dipoletron_window(1.0, 1.0, _body(), ratio_range=(0.0, 1.5))
    with pytest.raises(ValueError, match="r0 / h > 0"):
        dipoletron_window(1.0, 1.0, _body(), ratio_range=(-1.0, 1.5), n=11)
