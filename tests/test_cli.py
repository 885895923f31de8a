"""End-to-end tests of the command line interface."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import orbitron
from orbitron.cli import main
from orbitron.errors import OrbitronError

BODY = {"M": 1.0, "I_perp": 0.1, "I3": 0.05, "mu": 1.0, "g": 0.0}
PAIR = {"type": "dipole_pair", "q": 1.0, "h": 1.0}
LEV_FIELD = {
    "type": "composite",
    "parts": [{"type": "linear", "B0": 1.0, "Bprime": 3.0}, PAIR],
}
LEV_BODY = {"M": 1.0, "I_perp": 0.1, "I3": 0.05, "mu": 1.0, "g": 3.003}

CSV_HEADER = [
    "t",
    "x1",
    "x2",
    "x3",
    "p1",
    "p2",
    "p3",
    "nu1",
    "nu2",
    "nu3",
    "pi1",
    "pi2",
    "pi3",
    "h",
    "J3",
    "C1",
    "C2",
]

TILTED_STATE = {
    "x": [0.9, 0.1, 0.2],
    "p": [0.3, 1.4, -0.2],
    "nu": [0.6, 0.0, 0.8],
    "pi": [0.5, -0.3, 2.0],
}


def _cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_from_equilibrium_one_period(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "simulate": {
                "from_equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
                "steps": 2000,
                "record_every": 100,
            },
        },
    )
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 21
    assert float(rows[0][1]) == 0.8
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary["steps"] == 2000
    # default dt resolves one period with 2000 steps, so the trajectory closes
    omega2 = 3.568922026299016
    assert math.isclose(
        summary["dt"], 2.0 * math.pi / math.sqrt(omega2) / 2000.0, rel_tol=1e-12
    )
    assert summary["final_state_deviation"] < 1e-6
    drift = summary["max_drift"]
    assert drift["h"] < 1e-10
    assert drift["J3"] < 1e-10
    assert drift["C1"] < 1e-12
    assert drift["C2"] < 1e-12


def test_simulate_state_default_dt(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "simulate": {"state": TILTED_STATE, "steps": 10},
        },
    )
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header == CSV_HEADER
    assert len(rows) == 11
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary["dt"] == 1e-3
    assert "final_state_deviation" not in summary


def test_simulate_casimir_energy_flag(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "simulate": {"state": TILTED_STATE, "steps": 4, "dt": 1e-3},
        },
    )
    plain = str(tmp_path / "plain.csv")
    shifted = str(tmp_path / "shifted.csv")
    assert main(["simulate", "--config", cfg, "--out", plain]) == 0
    assert main(["simulate", "--config", cfg, "--out", shifted, "--include-casimir-energy"]) == 0
    _, rows_p = _read_csv(plain)
    _, rows_s = _read_csv(shifted)
    nu = TILTED_STATE["nu"]
    pi = TILTED_STATE["pi"]
    c2 = sum(a * b for a, b in zip(nu, pi))
    expected = (0.5 / BODY["I3"] - 0.5 / BODY["I_perp"]) * c2 * c2
    h_col = CSV_HEADER.index("h")
    for rp, rs in zip(rows_p, rows_s):
        assert math.isclose(float(rs[h_col]) - float(rp[h_col]), expected, rel_tol=1e-9)
        assert rp[CSV_HEADER.index("J3")] == rs[CSV_HEADER.index("J3")]


def test_simulate_nonfinite_exit_code(tmp_path):
    state = dict(TILTED_STATE, p=[1e308, 0.0, 0.0])
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "simulate": {"state": state, "steps": 50, "dt": 1.0},
        },
    )
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 3


def test_equilibrium_picks_admissible_sigma(tmp_path):
    out = str(tmp_path / "eq.json")
    for r0, sigma in ((0.8, 1), (3.0, -1)):
        cfg = _cfg(
            tmp_path,
            {
                "body": BODY,
                "field": PAIR,
                "equilibrium": {"solver": "orbitron", "r0": r0, "pi0": 10.0},
            },
        )
        assert main(["equilibrium", "--config", cfg, "--out", out]) == 0
        doc = json.loads((tmp_path / "eq.json").read_text())
        assert len(doc["equilibria"]) == 1
        rec = doc["equilibria"][0]
        assert rec["sigma"] == sigma
        assert rec["r0"] == r0
        assert rec["residual"] < 1e-10


def test_equilibrium_no_solution_reports_reason(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "equilibrium": {"solver": "orbitron", "r0": 2.0, "pi0": 10.0},
        },
    )
    out = str(tmp_path / "eq.json")
    assert main(["equilibrium", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "eq.json").read_text())
    assert doc["equilibria"] == []
    assert doc["reason"] == "WrongFieldSign"


def test_equilibrium_levitation_r0_and_beta_agree(tmp_path):
    out_r = str(tmp_path / "eq_r.json")
    out_b = str(tmp_path / "eq_b.json")
    cfg_r = _cfg(
        tmp_path,
        {
            "body": LEV_BODY,
            "field": LEV_FIELD,
            "equilibrium": {"solver": "levitation", "r0": 0.8},
        },
        "r.json",
    )
    cfg_b = _cfg(
        tmp_path,
        {
            "body": LEV_BODY,
            "field": LEV_FIELD,
            "equilibrium": {"solver": "levitation", "beta": -0.9517125403464043},
        },
        "b.json",
    )
    assert main(["equilibrium", "--config", cfg_r, "--out", out_r]) == 0
    assert main(["equilibrium", "--config", cfg_b, "--out", out_b]) == 0
    rec_r = json.loads((tmp_path / "eq_r.json").read_text())["equilibria"][0]
    rec_b = json.loads((tmp_path / "eq_b.json").read_text())["equilibria"][0]
    assert abs(rec_r["r0"] - rec_b["r0"]) <= 1e-10
    assert abs(rec_r["omega"] - rec_b["omega"]) <= 1e-10
    assert rec_r["residual"] < 1e-10
    # the axis is nearly vertical just above the levitation threshold
    assert abs(rec_r["nu0"][2] - 1.0) < 1e-5


def test_certify_closed_form_with_oracle(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "method": "closed_form",
                "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
            },
        },
    )
    out = str(tmp_path / "cert.json")
    assert main(["certify", "--config", cfg, "--out", out, "--oracle"]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text())
    cert = doc["certificate"]
    assert cert["verdict"] == "stable"
    assert cert["failed_condition"] is None
    assert cert["B"] == 0.0
    assert doc["eigen"]["agrees"] is True
    assert doc["eigen"]["lambda_min"] > 0.0


def test_certify_orbitron_names_failed_condition(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "method": "orbitron",
                "equilibrium": {"solver": "orbitron", "r0": 1.2, "pi0": 10.0, "sigma": 1},
            },
        },
    )
    out = str(tmp_path / "cert.json")
    assert main(["certify", "--config", cfg, "--out", out, "--oracle"]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text())
    assert doc["certificate"]["verdict"] == "not_certified"
    assert doc["certificate"]["failed_condition"] == "radial"
    assert doc["eigen"]["agrees"] is True


def test_certify_orbitron_lambda_failure_keeps_exact_b(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "method": "orbitron",
                "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": -10.0, "sigma": 1},
            },
        },
    )
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", cfg, "--out", str(out), "--oracle"]) == 0
    text = out.read_text()
    assert '"B": 0,' in text
    cert = json.loads(text)["certificate"]
    assert cert["failed_condition"] == "lambda"
    assert cert["margin"] == -1.0
    assert cert["C"] is None


@pytest.mark.parametrize(
    "field, equilibrium",
    [
        (PAIR, {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}),
        (LEV_FIELD, {"solver": "dipole", "r0": 0.8, "C2": 1.0}),
    ],
    ids=["no_linear_part", "no_gravity"],
)
def test_certify_levitation_method_needs_a_levitation_setup(tmp_path, capsys, field, equilibrium):
    cfg = _cfg(
        tmp_path,
        {"body": BODY, "field": field, "certify": {"method": "levitation", "equilibrium": equilibrium}},
    )
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "cert.json").exists()


def test_certify_levitation_matches_closed_form(tmp_path):
    out_l = str(tmp_path / "lev.json")
    out_c = str(tmp_path / "cf.json")
    eq_spec = {"solver": "levitation", "r0": 0.8}
    cfg_l = _cfg(
        tmp_path,
        {"body": LEV_BODY, "field": LEV_FIELD, "certify": {"method": "levitation", "equilibrium": eq_spec}},
        "l.json",
    )
    cfg_c = _cfg(
        tmp_path,
        {"body": LEV_BODY, "field": LEV_FIELD, "certify": {"method": "closed_form", "equilibrium": eq_spec}},
        "c.json",
    )
    assert main(["certify", "--config", cfg_l, "--out", out_l]) == 0
    assert main(["certify", "--config", cfg_c, "--out", out_c]) == 0
    cert_l = json.loads((tmp_path / "lev.json").read_text())["certificate"]
    cert_c = json.loads((tmp_path / "cf.json").read_text())["certificate"]
    assert cert_l["verdict"] == cert_c["verdict"] == "stable"
    for key in ("A", "B", "C"):
        assert abs(cert_l[key] - cert_c[key]) <= 1e-10 * max(1.0, abs(cert_c[key]))


def test_certify_no_solution(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": -1}
            },
        },
    )
    out = str(tmp_path / "cert.json")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    doc = json.loads((tmp_path / "cert.json").read_text())
    assert doc["certificate"] is None
    assert doc["reason"] == "WrongFieldSign"


def test_scan_window_with_refined_endpoints(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "scan": {"kind": "dipoletron_window", "q": 1.0, "h": 1.0, "n": 25},
        },
    )
    out = str(tmp_path / "win.csv")
    assert main(["scan", "--config", cfg, "--out", out, "--refine"]) == 0
    header, rows = _read_csv(out)
    assert header == ["ratio", "r0", "axial", "radial", "omega2", "in_window"]
    assert len(rows) == 25
    assert {r[-1] for r in rows} == {"true", "false"}
    side = json.loads((tmp_path / "win.csv.endpoints.json").read_text())
    assert abs(side["lower"] - math.sqrt(4.0 - 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(side["upper"] - math.sqrt(9.0 - math.sqrt(65.0))) <= 5e-12
    # byte-identical rerun
    first_csv = (tmp_path / "win.csv").read_bytes()
    first_side = (tmp_path / "win.csv.endpoints.json").read_bytes()
    assert main(["scan", "--config", cfg, "--out", out, "--refine"]) == 0
    assert (tmp_path / "win.csv").read_bytes() == first_csv
    assert (tmp_path / "win.csv.endpoints.json").read_bytes() == first_side


def test_scan_levitation_sweep(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": LEV_FIELD,
            "scan": {
                "kind": "levitation_sweep",
                "kappa_values": [1.001, 1.2, 1.5],
                "beta": -0.9517125403464043,
            },
        },
    )
    out = str(tmp_path / "sweep.csv")
    assert main(["scan", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header[:3] == ["kappa", "beta", "r0"]
    assert len(rows) == 3
    verdicts = [row[header.index("verdict")] for row in rows]
    errors = [row[header.index("error")] for row in rows]
    assert verdicts[0] == "stable"
    assert errors[2] == "NoRealSolution"


def test_scan_stability_map(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "scan": {
                "kind": "stability_map",
                "axis1": {"name": "r0", "lo": 0.5, "hi": 1.2, "n": 3},
                "axis2": {"name": "pi0", "lo": 10.0, "hi": 10.0, "n": 1},
            },
        },
    )
    out = str(tmp_path / "map.csv")
    assert main(["scan", "--config", cfg, "--out", out]) == 0
    header, rows = _read_csv(out)
    assert header[:2] == ["r0", "pi0"]
    assert [row[header.index("verdict")] for row in rows] == [
        "not_certified",
        "stable",
        "not_certified",
    ]
    # byte-identical rerun
    first = (tmp_path / "map.csv").read_bytes()
    assert main(["scan", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "map.csv").read_bytes() == first


def test_config_error_exit_codes(tmp_path):
    out = str(tmp_path / "o")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["equilibrium", "--config", str(bad_json), "--out", out]) == 2

    missing_body = _cfg(
        tmp_path, {"field": PAIR, "equilibrium": {"solver": "orbitron"}}, "m.json"
    )
    assert main(["equilibrium", "--config", missing_body, "--out", out]) == 2

    two_tasks = _cfg(
        tmp_path,
        {"body": BODY, "field": PAIR, "equilibrium": {}, "certify": {}},
        "two.json",
    )
    assert main(["equilibrium", "--config", two_tasks, "--out", out]) == 2

    mismatch = _cfg(
        tmp_path,
        {"body": BODY, "field": PAIR, "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0}},
        "mm.json",
    )
    assert main(["certify", "--config", mismatch, "--out", out]) == 2

    bad_solver = _cfg(
        tmp_path,
        {"body": BODY, "field": PAIR, "equilibrium": {"solver": "bogus"}},
        "bs.json",
    )
    assert main(["equilibrium", "--config", bad_solver, "--out", out]) == 2

    bad_method = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "method": "bogus",
                "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
            },
        },
        "bm.json",
    )
    assert main(["certify", "--config", bad_method, "--out", out]) == 2

    bad_kind = _cfg(
        tmp_path, {"body": BODY, "field": PAIR, "scan": {"kind": "bogus"}}, "bk.json"
    )
    assert main(["scan", "--config", bad_kind, "--out", out]) == 2

    no_state = _cfg(
        tmp_path, {"body": BODY, "field": PAIR, "simulate": {"steps": 5}}, "ns.json"
    )
    assert main(["simulate", "--config", no_state, "--out", out]) == 2

    bad_field = _cfg(
        tmp_path,
        {"body": BODY, "field": {"type": "hexapole"}, "equilibrium": {"solver": "orbitron"}},
        "bf.json",
    )
    assert main(["equilibrium", "--config", bad_field, "--out", out]) == 2


def test_module_entry_point(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
        },
    )
    out = str(tmp_path / "eq.json")
    # the child process imports the package the tests import, also when
    # only pytest's pythonpath setting put it on sys.path
    src = str(Path(orbitron.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "orbitron.cli", "equilibrium", "--config", cfg, "--out", out],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "eq.json").read_text())
    assert doc["equilibria"][0]["sigma"] == 1


def test_branch_index_out_of_range(tmp_path, capsys):
    out = str(tmp_path / "o.json")
    spec = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}
    for branch in (2, -1):
        sections = (
            ("certify", {"method": "closed_form", "equilibrium": dict(spec, branch=branch)}),
            ("simulate", {"from_equilibrium": dict(spec, branch=branch), "steps": 5}),
        )
        for command, section in sections:
            cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: section})
            assert main([command, "--config", cfg, "--out", out]) == 2
            err = capsys.readouterr().err
            assert f"branch = {branch} is out of range" in err
            assert "found 1 branch" in err
            assert "Traceback" not in err


def test_nonfinite_config_values_rejected(tmp_path, capsys):
    out = tmp_path / "o.json"
    eq = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}
    linear = {"type": "linear", "B0": 1.0, "Bprime": 0.0}
    cases = [
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": dict(eq, r0=math.nan)}),
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": dict(eq, r0=math.inf)}),
        ("equilibrium", {"body": dict(BODY, M=math.nan), "field": PAIR, "equilibrium": eq}),
        (
            "certify",
            {
                "body": BODY,
                "field": {"type": "composite", "parts": [PAIR, dict(linear, B0=math.inf)]},
                "certify": {"equilibrium": eq},
            },
        ),
        (
            "scan",
            {
                "body": BODY,
                "field": PAIR,
                "scan": {
                    "kind": "stability_map",
                    "axis1": {"name": "r0", "lo": 0.5, "hi": 1.2, "n": 3},
                    "axis2": {"name": "sigma", "lo": 1.0, "hi": 1.0, "n": 1},
                    "fixed": {"pi0": -math.inf},
                },
            },
        ),
        (
            "simulate",
            {
                "body": BODY,
                "field": PAIR,
                "simulate": {"state": dict(TILTED_STATE, x=[math.nan, 0.0, 0.0]), "steps": 2},
            },
        ),
    ]
    for command, doc in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # writes the NaN / Infinity tokens json.load accepts
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()


def test_negative_zero_prints_as_zero(tmp_path):
    from orbitron.cli import fmt17

    assert fmt17(-0.0) == fmt17(0.0) == "0"
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "certify": {
                "method": "closed_form",
                "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
            },
        },
    )
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert '"B": 0,' in text
    assert "-0," not in text and "-0\n" not in text


WINDOW_SCAN = {"kind": "dipoletron_window", "q": 1.0, "h": 1.0}
ORBIT = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}


@pytest.mark.parametrize(
    "command, section, field",
    [
        ("equilibrium", dict(ORBIT, sigma=1.7), "equilibrium.sigma"),
        ("scan", dict(WINDOW_SCAN, n=40.5), "scan.n"),
        ("scan", dict(WINDOW_SCAN, sigma=1.7), "scan.sigma"),
        ("simulate", {"from_equilibrium": ORBIT, "steps": 4, "record_every": 2.5}, "simulate.record_every"),
    ],
)
def test_integer_fields_reject_non_integers(tmp_path, capsys, command, section, field):
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: section})
    out = tmp_path / "o.dat"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{field} must be of type int" in err
    assert not out.exists()


MAP_SCAN = {
    "kind": "stability_map",
    "axis1": {"name": "r0", "lo": 0.6, "hi": 0.9, "n": 2},
    "axis2": {"name": "pi0", "lo": 5.0, "hi": 10.0, "n": 2},
}
SWEEP_SCAN = {"kind": "levitation_sweep", "kappa_values": [1.001, 1.2], "beta": -0.9517125403464043}


@pytest.mark.parametrize(
    "command, doc, field",
    [
        ("equilibrium", {"body": dict(BODY, M="2"), "field": PAIR, "equilibrium": ORBIT}, "body.M"),
        ("equilibrium", {"body": dict(BODY, M=True), "field": PAIR, "equilibrium": ORBIT}, "body.M"),
        ("equilibrium", {"body": BODY, "field": dict(PAIR, h=True), "equilibrium": ORBIT}, "h must be a number"),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"from_equilibrium": ORBIT, "steps": 2, "dt": "0.001"}},
            "simulate.dt",
        ),
        (
            "scan",
            {"body": LEV_BODY, "field": LEV_FIELD, "scan": dict(SWEEP_SCAN, kappa_values=["1.01", True])},
            "scan.kappa_values",
        ),
        ("scan", {"body": BODY, "field": PAIR, "scan": dict(MAP_SCAN, fixed={"sigma": "1"})}, "scan.fixed.sigma"),
        ("scan", {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=["0.3", "1.5"])}, "scan.ratio_range"),
    ],
)
def test_config_numbers_reject_strings_and_booleans(tmp_path, capsys, command, doc, field):
    # float() takes "2" and True; a config number must be a JSON int or float
    cfg = _cfg(tmp_path, doc)
    out = tmp_path / "o.dat"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, code, sign", [("false", 2, None), ("no", 2, None), (0, 2, None), (False, 0, 1.0), (True, 0, -1.0)]
)
def test_negative_omega_must_be_boolean(tmp_path, capsys, flag, code, sign):
    # "false" is a true string, so reading it with bool() picked the retrograde branch
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "equilibrium": dict(ORBIT, negative_omega=flag)})
    out = tmp_path / "eq.json"
    assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == code
    if code:
        assert "equilibrium.negative_omega must be of type bool" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert math.copysign(1.0, json.loads(out.read_text())["equilibria"][0]["omega"]) == sign


def test_stability_map_rejects_non_unit_sigma(tmp_path, capsys):
    scan = {
        "kind": "stability_map",
        "axis1": {"name": "r0", "lo": 0.6, "hi": 0.9, "n": 2},
        "axis2": {"name": "pi0", "lo": 10.0, "hi": 10.0, "n": 1},
        "fixed": {"sigma": 1.7},
    }
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "scan": scan})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "map.csv")]) == 2
    assert "sigma must be +1 or -1" in capsys.readouterr().err


def test_simulate_no_solution_reports_reason(tmp_path):
    # the unit dipole pair pulls outward beyond r0 = 2h, so r0 = 3 has no sigma = +1 orbit
    section = {"from_equilibrium": dict(ORBIT, r0=3.0), "steps": 10}
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "simulate": section})
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text() == ",".join(CSV_HEADER) + "\n"
    summary = json.loads((tmp_path / "traj.csv.summary.json").read_text())
    assert summary == {"reason": "WrongFieldSign"}


# r0 = 3 has no sigma = +1 orbit on the unit pair, so these configs would
# exit 0 with a reason if the task section were checked only after the solve.
NO_ORBIT = dict(ORBIT, r0=3.0)


@pytest.mark.parametrize(
    "section, message",
    [
        ({"steps": "many"}, "simulate.steps must be of type int"),
        ({"steps": 10, "scheme": "euler"}, "scheme must be one of"),
        ({"steps": 0}, "steps must be at least 1"),
        ({"steps": 10, "record_every": 0}, "record_every must be at least 1"),
        ({"steps": 10, "dt": -1.0}, "dt must be positive"),
    ],
)
def test_simulate_checks_integrator_before_solving(tmp_path, capsys, section, message):
    section = dict(section, from_equilibrium=NO_ORBIT)
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "simulate": section})
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


def test_certify_checks_method_before_solving(tmp_path, capsys):
    section = {"method": "eigen", "equilibrium": NO_ORBIT}
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "certify": section})
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 2
    assert "unknown certify method 'eigen'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["closed_form", "orbitron"])
def test_certify_oracle_solves_hessian_once(tmp_path, monkeypatch, method):
    from orbitron import cli

    calls = []

    def counted(*args):
        calls.append(args)
        return hessian_blocks(*args)

    hessian_blocks = cli.hessian_blocks
    monkeypatch.setattr(cli, "hessian_blocks", counted)
    section = {"method": method, "equilibrium": ORBIT}
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "certify": section})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "c.json"), "--oracle"]) == 0
    assert len(calls) == 1


def test_scan_window_rejects_nonpositive_ratio(tmp_path, capsys):
    cfg = _cfg(tmp_path, {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=[0.0, 1.5])})
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "w.csv")]) == 2
    assert "r0 / h > 0" in capsys.readouterr().err


def test_levitation_precision_loss_is_a_numerical_failure(tmp_path, capsys):
    # a gradient of 1e-150 makes beta and kappa about 1e150, and the axis
    # direction of the levitation closed form loses its normalization
    weak = {"type": "linear", "B0": 1.0, "Bprime": 1e-150}
    field = {"type": "composite", "parts": [weak, PAIR]}
    section = {"solver": "levitation", "r0": 0.8}
    cfg = _cfg(tmp_path, {"body": dict(BODY, g=1.0), "field": field, "equilibrium": section})
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ArithmeticError")


def test_compute_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the config is valid; the jet overflows only at the tiny scale of the orbit
    field = {"type": "dipole_pair", "q": 1, "h": 1e-40}
    section = {"method": "orbitron", "equilibrium": {"solver": "orbitron", "r0": 0.8e-40, "pi0": 10, "sigma": 1}}
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, "certify": section})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: OverflowError")


@pytest.mark.parametrize("doc", [{"equilibrium": dict(ORBIT, r0=10**400)}, {"field": dict(PAIR, h=10**400)}])
def test_out_of_range_config_integer_is_a_config_error(tmp_path, capsys, doc):
    cfg = _cfg(tmp_path, dict({"body": BODY, "field": PAIR, "equilibrium": ORBIT}, **doc))
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def _map(n1, n2):
    return dict(MAP_SCAN, axis1=dict(MAP_SCAN["axis1"], n=n1), axis2=dict(MAP_SCAN["axis2"], n=n2))


# Each sized section at its limit and above it: the scan size of a window,
# a map and a sweep is capped at 10**6, and a run at 10**7 steps.
_SIZED = {
    "window_n": ("scan", "dipoletron_window", lambda n: dict(WINDOW_SCAN, n=n), "scan.n must be at most 1000000"),
    "map_cells": ("scan", "stability_map", lambda n: _map(*n), "scan.axis1.n * scan.axis2.n must be at most 1000000"),
    "kappa_values": (
        "scan",
        "levitation_sweep",
        lambda n: dict(SWEEP_SCAN, kappa_values=[1.2] * n),
        "the length of scan.kappa_values must be at most 1000000",
    ),
    "steps": (
        "simulate",
        "integrate",
        lambda n: {"from_equilibrium": ORBIT, "steps": n},
        "simulate.steps must be at most 10000000",
    ),
}


@pytest.mark.parametrize(
    "case, size, accepted",
    [
        ("window_n", 10**6, True),
        ("window_n", 10**15, False),
        ("map_cells", (1000, 1000), True),
        ("map_cells", (101, 9901), False),
        ("kappa_values", 10**6, True),
        ("kappa_values", 10**6 + 1, False),
        ("steps", 10**7, True),
        ("steps", 10**7 + 1, False),
        ("steps", 10**400, False),
    ],
    ids=lambda v: "10**400" if v == 10**400 else None,
)
def test_scan_sizes_and_steps_are_bounded(tmp_path, capsys, monkeypatch, case, size, accepted):
    from orbitron import cli

    command, compute, section, message = _SIZED[case]
    reached = []

    def stub(*args, **kwargs):
        # stands in for the scan or the run, so no array is allocated and no step is run
        reached.append(args)
        raise OrbitronError("compute stage reached")

    monkeypatch.setattr(cli, compute, stub)
    field = LEV_FIELD if case == "kappa_values" else PAIR
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, command: section(size)})
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o.dat")])
    err = capsys.readouterr().err
    if accepted:
        assert code == 3 and len(reached) == 1
    else:
        assert code == 2 and not reached
        assert err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "command, doc, flags, code",
    [
        # the radius_for_beta grid overflows near the tiny pair before the levitation solve fails
        (
            "certify",
            {
                "body": dict(BODY, g=3.0),
                "field": {
                    "type": "composite",
                    "parts": [{"type": "linear", "B0": -10, "Bprime": 3}, {"type": "dipole_pair", "q": 1, "h": 1e-40}],
                },
                "certify": {"method": "levitation", "equilibrium": {"solver": "levitation", "beta": -0.9}},
            },
            ["--oracle"],
            3,
        ),
        # the window jet overflows at every ratio of a pair this small: NonFinite
        ("scan", {"body": BODY, "scan": dict(WINDOW_SCAN, h=1e-110, n=3)}, [], 3),
        # p . p overflows in the energy of the first sample: NonFinite at step 0
        (
            "simulate",
            {
                "body": BODY,
                "field": PAIR,
                "simulate": {
                    "state": {"x": [0.8, 0, 0], "p": [1e155, 1.2, 0], "nu": [0, 0, 1], "pi": [0, 0, 10]},
                    "steps": 3,
                    "dt": 1e-300,
                },
            },
            [],
            3,
        ),
        # a zero axis cannot be projected onto the unit sphere: NonFinite at step 0
        (
            "simulate",
            {
                "body": BODY,
                "field": PAIR,
                "simulate": {"state": dict(TILTED_STATE, nu=[0, 0, 0]), "steps": 3, "scheme": "rk4_projected"},
            },
            [],
            3,
        ),
        # the axis width hi - lo overflows: a configuration error before any linspace
        (
            "scan",
            {
                "body": BODY,
                "field": PAIR,
                "scan": {
                    "kind": "stability_map",
                    "axis1": {"name": "r0", "lo": 0.7, "hi": 0.9, "n": 3},
                    "axis2": {"name": "pi0", "lo": -1e308, "hi": 1e308, "n": 3},
                },
            },
            [],
            2,
        ),
    ],
    ids=["radius_for_beta", "dipoletron_window", "simulate_energy", "simulate_zero_axis", "scan_axis_width"],
)
def test_jet_overflow_prints_no_runtime_warning(tmp_path, command, doc, flags, code):
    cfg = _cfg(tmp_path, doc)
    runs = []
    for _ in range(2):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o.dat"), *flags]) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        runs.append(err.getvalue())
    assert runs[0] == runs[1]
    assert "RuntimeWarning" not in runs[0]


# Valid configs that reach every solver and certificate route; the fuzz
# mutates up to two of their entries.
_BASES = [
    (BODY, PAIR, ORBIT),
    (BODY, PAIR, dict(ORBIT, negative_omega=True, branch=0)),
    (LEV_BODY, LEV_FIELD, {"solver": "dipole", "r0": 0.8, "C2": 1.0}),
    (LEV_BODY, LEV_FIELD, {"solver": "levitation", "r0": 0.8}),
    (LEV_BODY, LEV_FIELD, {"solver": "levitation", "beta": -0.9}),
]
_METHODS = ("closed_form", "orbitron", "levitation")
# Config values the contract must survive: plausible, extreme and
# non-finite numbers, zeros, wrong types, nested lists, and a missing key.
_NUMBERS = st.sampled_from(
    [0.5, 1.2, -10.0, 1e-40, 1e40, 1, -1, 2, 0, 0.0, -0.0]
    + [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 10**400]
)
_JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none())
_NESTED = st.recursive(_NUMBERS | _JUNK, lambda inner: st.lists(inner, max_size=2), max_leaves=3)
_MISSING = object()
_VALUE = st.one_of(_NUMBERS, _NUMBERS, _JUNK, _NESTED, st.just(_MISSING))


def _paths(obj, prefix=()):
    """Paths of every leaf and record of a config, in a fixed order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    out = [prefix] if prefix else []
    for key, value in items:
        out += _paths(value, prefix + (key,))
    return out


@st.composite
def _configs(draw):
    body, field, spec = draw(st.sampled_from(_BASES))
    command = draw(st.sampled_from(["equilibrium", "certify"]))
    if command == "certify":
        spec = {"method": draw(st.sampled_from(_METHODS)), "equilibrium": spec}
    doc = json.loads(json.dumps({"body": body, "field": field, command: spec}))
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        path = draw(st.sampled_from(_paths(doc)))
        value = draw(_VALUE)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is not _MISSING:
            parent[path[-1]] = value
        elif isinstance(parent, dict):
            del parent[path[-1]]
    flags = ["--oracle"] if command == "certify" and draw(st.booleans()) else []
    return command, flags, doc


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_configs())
def test_cli_contract_fuzz(case):
    command, flags, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity tokens, which json.load accepts
        runs = []
        for _ in range(2):
            out = Path(tmp) / "out.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(out), *flags])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            text = out.read_text() if out.exists() else None
            if code == 0:
                json.loads(text, parse_constant=_reject_constant)
            runs.append((code, text))
            out.unlink(missing_ok=True)
        assert runs[0] == runs[1]
        event(f"{command} exit {code}")
