"""End-to-end tests of the command line interface."""

import ast
import contextlib
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import orbitron
from orbitron.cli import main
from orbitron.errors import OrbitronError
from test_fields import count_pair_jets

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


def _read_csv(data):
    rows = list(csv.reader(data.decode().splitlines()))
    return rows[0], rows[1:]


def _child_env():
    """The environment of a child process that imports the package the tests import, also when only
    pytest's pythonpath setting put it on sys.path."""
    src = str(Path(orbitron.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def in_process(argv):
    """Exit code, stdout and stderr of ``main(argv)``; a warning, which the installed script would print, fails."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, stdout.getvalue(), stderr.getvalue()


def child_process(*command, **env):
    """A runner like in_process that runs ``command`` in a child process, importing the package under test,
    with the variables ``env`` added to the child's environment."""
    def run(argv):
        proc = subprocess.run([*command, *argv], capture_output=True, text=True, env=dict(_child_env(), **env))
        return proc.returncode, proc.stdout, proc.stderr
    return run


installed_script = child_process("orbitron")
EXIT_CODES = {"config error": 2, "numerical failure": 3}


def _snapshot(directory):
    """Every path under ``directory``, relative to it, with its bytes (None for a directory)."""
    return {p.relative_to(directory).as_posix(): None if p.is_dir() else p.read_bytes() for p in directory.rglob("*")}


def check_run(argv, directory, expect="", run=in_process):
    """Run the CLI on ``argv`` by ``run`` and check the output contract on the outputs under ``directory``.

    Every run prints nothing to stdout.  A run exits 0 with empty stderr, or fails: it exits 2 or 3 as the
    prefix of its one stderr line says ("config error: ", "numerical failure: ") and leaves every path under
    ``directory`` as it was, names and bytes.  ``expect`` is the exact stderr: "" for a run that must exit 0,
    the one line of a run that must fail, or None for either.  Returns the files the run added or changed.
    """
    before = _snapshot(directory)
    code, stdout, err = run(argv)
    after = _snapshot(directory)
    assert stdout == ""
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n") and EXIT_CODES.get(err.split(": ")[0]) == code, err
        assert after == before
    assert expect is None or err == expect, (code, err)
    return dict(after.items() - before.items())


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
    files = check_run(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")], tmp_path)
    header, rows = _read_csv(files["traj.csv"])
    assert header == CSV_HEADER
    assert len(rows) == 21
    assert float(rows[0][1]) == 0.8
    summary = json.loads(files["traj.csv.summary.json"])
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
    files = check_run(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")], tmp_path)
    header, rows = _read_csv(files["traj.csv"])
    assert header == CSV_HEADER
    assert len(rows) == 11
    summary = json.loads(files["traj.csv.summary.json"])
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
    plain = check_run(["simulate", "--config", cfg, "--out", str(tmp_path / "p.csv")], tmp_path)
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "s.csv"), "--include-casimir-energy"]
    shifted = check_run(argv, tmp_path)
    _, rows_p = _read_csv(plain["p.csv"])
    _, rows_s = _read_csv(shifted["s.csv"])
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
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "t.csv")]
    check_run(argv, tmp_path, "numerical failure: NonFinite: non-finite sample at step 0\n")


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
        doc = json.loads(check_run(["equilibrium", "--config", cfg, "--out", out], tmp_path)["eq.json"])
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
    argv = ["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")]
    doc = json.loads(check_run(argv, tmp_path)["eq.json"])
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
    argv = ["equilibrium", "--config", cfg_r, "--out", out_r]
    rec_r = json.loads(check_run(argv, tmp_path)["eq_r.json"])["equilibria"][0]
    argv = ["equilibrium", "--config", cfg_b, "--out", out_b]
    rec_b = json.loads(check_run(argv, tmp_path)["eq_b.json"])["equilibria"][0]
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
    argv = ["certify", "--config", cfg, "--out", str(tmp_path / "cert.json"), "--oracle"]
    doc = json.loads(check_run(argv, tmp_path)["cert.json"])
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
    argv = ["certify", "--config", cfg, "--out", str(tmp_path / "cert.json"), "--oracle"]
    doc = json.loads(check_run(argv, tmp_path)["cert.json"])
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
    argv = ["certify", "--config", cfg, "--out", str(tmp_path / "cert.json"), "--oracle"]
    text = check_run(argv, tmp_path)["cert.json"]
    assert b'"B": 0,' in text
    cert = json.loads(text)["certificate"]
    assert cert["failed_condition"] == "lambda"
    assert cert["margin"] == -1.0
    assert cert["C"] is None


# The config errors of a levitation certify on a field without a linear part, and on a body with g = 0.
NO_LINEAR_PART = (
    "config error: levitation needs a composite field with exactly one linear part and at least one"
    " mirror-symmetric part\n"
)
NO_GRAVITY = "config error: levitation requires g > 0 in the body record\n"


@pytest.mark.parametrize(
    "field, equilibrium, line",
    [
        (PAIR, {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}, NO_LINEAR_PART),
        (LEV_FIELD, {"solver": "dipole", "r0": 0.8, "C2": 1.0}, NO_GRAVITY),
    ],
    ids=["no_linear_part", "no_gravity"],
)
def test_certify_levitation_method_needs_a_levitation_setup(tmp_path, field, equilibrium, line):
    cfg = _cfg(
        tmp_path,
        {"body": BODY, "field": field, "certify": {"method": "levitation", "equilibrium": equilibrium}},
    )
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")], tmp_path, line)


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
    cert_l = json.loads(check_run(["certify", "--config", cfg_l, "--out", out_l], tmp_path)["lev.json"])["certificate"]
    cert_c = json.loads(check_run(["certify", "--config", cfg_c, "--out", out_c], tmp_path)["cf.json"])["certificate"]
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
    argv = ["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")]
    doc = json.loads(check_run(argv, tmp_path)["cert.json"])
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
    argv = ["scan", "--config", cfg, "--out", str(tmp_path / "win.csv"), "--refine"]
    files = check_run(argv, tmp_path)
    header, rows = _read_csv(files["win.csv"])
    assert header == ["ratio", "r0", "axial", "radial", "omega2", "in_window"]
    assert len(rows) == 25
    assert {r[-1] for r in rows} == {"true", "false"}
    side = json.loads(files["win.csv.endpoints.json"])
    assert abs(side["lower"] - math.sqrt(4.0 - 2.0 * math.sqrt(30.0) / 3.0)) <= 5e-12
    assert abs(side["upper"] - math.sqrt(9.0 - math.sqrt(65.0))) <= 5e-12
    # byte-identical rerun: it changes no file
    assert check_run(argv, tmp_path) == {}


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
    argv = ["scan", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]
    header, rows = _read_csv(check_run(argv, tmp_path)["sweep.csv"])
    assert header[:3] == ["kappa", "beta", "r0"]
    assert len(rows) == 3
    verdicts = [row[header.index("verdict")] for row in rows]
    errors = [row[header.index("error")] for row in rows]
    assert verdicts[0] == "stable"
    assert errors[2] == "NoRealSolution"


def test_scan_levitation_sweep_survives_an_arithmetic_error(tmp_path):
    # one kappa whose closed form fails its normalization check: its row carries ArithmeticError, exit 0
    field = {"type": "composite", "parts": [{"type": "linear", "B0": 1.0, "Bprime": 1e-5}, PAIR]}
    body = {"M": 1.0, "I_perp": 1.0, "I3": 1.0, "mu": 1.0, "g": 0.0}
    section = {"kind": "levitation_sweep", "kappa_values": [1.2, 50000.0000025, 2.0], "beta": -1e5}
    cfg = _cfg(tmp_path, {"body": body, "field": field, "scan": section})
    argv = ["scan", "--config", cfg, "--out", str(tmp_path / "sweep.csv")]
    header, rows = _read_csv(check_run(argv, tmp_path)["sweep.csv"])
    assert [row[header.index("error")] for row in rows] == ["", "ArithmeticError", ""]
    assert [row[header.index("verdict")] for row in rows] == ["not_certified", "", "not_certified"]


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
    argv = ["scan", "--config", cfg, "--out", str(tmp_path / "map.csv")]
    header, rows = _read_csv(check_run(argv, tmp_path)["map.csv"])
    assert header[:2] == ["r0", "pi0"]
    assert [row[header.index("verdict")] for row in rows] == [
        "not_certified",
        "stable",
        "not_certified",
    ]
    # byte-identical rerun: it changes no file
    assert check_run(argv, tmp_path) == {}


def test_config_error_exit_codes(tmp_path):
    out = str(tmp_path / "o")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    line = f"config error: config {bad_json} is not valid JSON: Expecting property name enclosed in double quotes: "
    check_run(["equilibrium", "--config", str(bad_json), "--out", out], tmp_path, line + "line 1 column 2 (char 1)\n")
    orbit = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0}
    runs = [
        ("equilibrium", {"field": PAIR, "equilibrium": {"solver": "orbitron"}}, "missing 'body' in config"),
        (
            "equilibrium",
            {"body": BODY, "field": PAIR, "equilibrium": {}, "certify": {}},
            "config needs exactly one of 'simulate', 'equilibrium', 'certify', 'scan'",
        ),
        (
            "certify",
            {"body": BODY, "field": PAIR, "equilibrium": orbit},
            "config has a 'equilibrium' section but the 'certify' command was invoked",
        ),
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": {"solver": "bogus"}}, "unknown solver 'bogus'"),
        (
            "certify",
            {"body": BODY, "field": PAIR, "certify": {"method": "bogus", "equilibrium": dict(orbit, sigma=1)}},
            "unknown certify method 'bogus'",
        ),
        ("scan", {"body": BODY, "field": PAIR, "scan": {"kind": "bogus"}}, "unknown scan kind 'bogus'"),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"steps": 5}},
            "simulate needs exactly one of 'state', 'from_equilibrium'",
        ),
        (
            "equilibrium",
            {"body": BODY, "field": {"type": "hexapole"}, "equilibrium": {"solver": "orbitron"}},
            "unknown field type 'hexapole'",
        ),
    ]
    for command, doc, message in runs:
        check_run([command, "--config", _cfg(tmp_path, doc), "--out", out], tmp_path, f"config error: {message}\n")


def test_module_entry_point(tmp_path):
    cfg = _cfg(
        tmp_path,
        {
            "body": BODY,
            "field": PAIR,
            "equilibrium": {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1},
        },
    )
    module = child_process(sys.executable, "-m", "orbitron.cli")
    files = check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")], tmp_path, run=module)
    assert json.loads(files["eq.json"])["equilibria"][0]["sigma"] == 1


def test_branch_index_out_of_range(tmp_path):
    out = str(tmp_path / "o.json")
    spec = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}
    for branch in (2, -1):
        sections = (
            ("certify", "certify.equilibrium", {"method": "closed_form", "equilibrium": dict(spec, branch=branch)}),
            ("simulate", "simulate.from_equilibrium", {"from_equilibrium": dict(spec, branch=branch), "steps": 5}),
        )
        for command, where, section in sections:
            cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: section})
            line = f"config error: {where}.branch = {branch} is out of range: the solver found 1 branch(es)\n"
            check_run([command, "--config", cfg, "--out", out], tmp_path, line)


def test_nonfinite_config_values_rejected(tmp_path):
    out = tmp_path / "o.json"
    eq = {"solver": "orbitron", "r0": 0.8, "pi0": 10.0, "sigma": 1}
    linear = {"type": "linear", "B0": 1.0, "Bprime": 0.0}
    cases = [
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": dict(eq, r0=math.nan)}, "equilibrium.r0", "nan"),
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": dict(eq, r0=math.inf)}, "equilibrium.r0", "inf"),
        ("equilibrium", {"body": dict(BODY, M=math.nan), "field": PAIR, "equilibrium": eq}, "body.M", "nan"),
        (
            "certify",
            {
                "body": BODY,
                "field": {"type": "composite", "parts": [PAIR, dict(linear, B0=math.inf)]},
                "certify": {"equilibrium": eq},
            },
            "field.B0",
            "inf",
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
            "scan.fixed.pi0",
            "-inf",
        ),
        (
            "simulate",
            {
                "body": BODY,
                "field": PAIR,
                "simulate": {"state": dict(TILTED_STATE, x=[math.nan, 0.0, 0.0]), "steps": 2},
            },
            "state.x",
            "nan",
        ),
    ]
    for command, doc, name, value in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # writes the NaN / Infinity tokens json.load accepts
        line = f"config error: {name} must be finite, got {value}\n"
        check_run([command, "--config", str(path), "--out", str(out)], tmp_path, line)


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
    text = check_run(["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")], tmp_path)["cert.json"].decode()
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
def test_integer_fields_reject_non_integers(tmp_path, command, section, field):
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: section})
    line = f"config error: {field} must be of type int\n"
    check_run([command, "--config", cfg, "--out", str(tmp_path / "o.dat")], tmp_path, line)


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {
                "body": LEV_BODY,
                "field": {"type": "composite", "parts": [LEV_FIELD["parts"][0], dict(PAIR, h=1e308)]},
                "equilibrium": {"solver": "levitation", "beta": -0.9},
            },
            "Br_z of the mirror part is nan on the radius grid for beta = -0.9",
        ),
        (
            {"body": BODY, "scan": dict(WINDOW_SCAN, h=1e308, ratio_range=[0.3, 2.0])},
            "window conditions are not finite at r0 / h = 0.3, r0 = 3e+307",
        ),
    ],
    ids=["radius_grid", "window_radii"],
)
def test_overflowing_grids_warn_nothing(tmp_path, doc, message):
    # the grid of radii overflows: a numerical failure, and no RuntimeWarning on the way (in_process fails on one)
    command = "equilibrium" if "equilibrium" in doc else "scan"
    argv = [command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")]
    check_run(argv, tmp_path, f"numerical failure: NonFinite: {message}\n")


MAP_SCAN = {
    "kind": "stability_map",
    "axis1": {"name": "r0", "lo": 0.6, "hi": 0.9, "n": 2},
    "axis2": {"name": "pi0", "lo": 5.0, "hi": 10.0, "n": 2},
}
SWEEP_SCAN = {"kind": "levitation_sweep", "kappa_values": [1.001, 1.2], "beta": -0.9517125403464043}


@pytest.mark.parametrize(
    "command, doc, field, kind",
    [
        ("equilibrium", {"body": dict(BODY, M="2"), "field": PAIR, "equilibrium": ORBIT}, "body.M", "float"),
        ("equilibrium", {"body": dict(BODY, M=True), "field": PAIR, "equilibrium": ORBIT}, "body.M", "float"),
        ("equilibrium", {"body": BODY, "field": dict(PAIR, h=True), "equilibrium": ORBIT}, "field.h", "float"),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"from_equilibrium": ORBIT, "steps": 2, "dt": "0.001"}},
            "simulate.dt",
            "float",
        ),
        (
            "scan",
            {"body": LEV_BODY, "field": LEV_FIELD, "scan": dict(SWEEP_SCAN, kappa_values=["1.01", True])},
            "scan.kappa_values",
            "float",
        ),
        (
            "scan",
            {"body": BODY, "field": PAIR, "scan": dict(MAP_SCAN, fixed={"sigma": "1"})},
            "scan.fixed.sigma",
            "float",
        ),
        ("scan", {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=["0.3", "1.5"])}, "scan.ratio_range", "float"),
        # true and false are not integers either: a true sigma or steps ran as 1, a false branch as 0
        (
            "certify",
            {"body": BODY, "field": PAIR, "certify": {"equilibrium": dict(ORBIT, sigma=True)}},
            "equilibrium.sigma",
            "int",
        ),
        ("scan", {"body": BODY, "scan": dict(WINDOW_SCAN, sigma=True)}, "scan.sigma", "int"),
        (
            "certify",
            {"body": BODY, "field": PAIR, "certify": {"equilibrium": dict(ORBIT, branch=False)}},
            "certify.equilibrium.branch",
            "int",
        ),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"from_equilibrium": ORBIT, "steps": True}},
            "simulate.steps",
            "int",
        ),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"from_equilibrium": ORBIT, "steps": 4, "record_every": True}},
            "simulate.record_every",
            "int",
        ),
        ("scan", {"body": BODY, "scan": dict(WINDOW_SCAN, n=True)}, "scan.n", "int"),
        (
            "scan",
            {"body": BODY, "field": PAIR, "scan": dict(MAP_SCAN, axis1=dict(MAP_SCAN["axis1"], n=True))},
            "scan.axis1.n",
            "int",
        ),
        # null is not an absent key: "dt": null ran with the default dt
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"from_equilibrium": ORBIT, "steps": 4, "dt": None}},
            "simulate.dt",
            "float",
        ),
        (
            "equilibrium",
            {"body": BODY, "field": PAIR, "equilibrium": dict(ORBIT, sigma=None)},
            "equilibrium.sigma",
            "int",
        ),
    ],
    ids=[
        "equilibrium-doc0-body.M", "equilibrium-doc1-body.M", "equilibrium-doc2-field.h", "simulate-doc3-simulate.dt",
        "scan-doc4-scan.kappa_values", "scan-doc5-scan.fixed.sigma", "scan-doc6-scan.ratio_range",
        "certify-doc7-equilibrium.sigma must be of type int", "scan-doc8-scan.sigma must be of type int",
        "certify-doc9-certify.equilibrium.branch must be of type int",
        "simulate-doc10-simulate.steps must be of type int", "simulate-doc11-simulate.record_every must be of type int",
        "scan-doc12-scan.n must be of type int", "scan-doc13-scan.axis1.n must be of type int",
        "simulate-doc14-simulate.dt must be of type float", "equilibrium-doc15-equilibrium.sigma",
    ],
)
def test_config_numbers_reject_strings_and_booleans(tmp_path, command, doc, field, kind):
    # float() takes "2" and True; a config number must be a JSON int or float
    line = f"config error: {field} must be of type {kind}\n"
    check_run([command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")], tmp_path, line)


@pytest.mark.parametrize(
    "field, key",
    [
        ({"type": "dipole_pair", "q": 1.0}, "h"),
        ({"type": "linear", "B0": 1.0}, "Bprime"),
        ({"type": "composite"}, "parts"),
    ],
    ids=["dipole_pair", "linear", "composite"],
)
def test_missing_field_key_is_named(tmp_path, field, key):
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, "equilibrium": ORBIT})
    line = f"config error: missing {key!r} in field\n"
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "o.json")], tmp_path, line)


def test_nested_composite_gives_the_flat_fields_output(tmp_path):
    # a levitation certify used to find no linear part one level down and exit 2
    nested = {"type": "composite", "parts": [{"type": "composite", "parts": LEV_FIELD["parts"]}]}
    section = {"method": "levitation", "equilibrium": {"solver": "levitation", "r0": 0.8}}
    outputs = []
    for field in (LEV_FIELD, nested):
        cfg = _cfg(tmp_path, {"body": LEV_BODY, "field": field, "certify": section})
        out = tmp_path / "cert.json"
        check_run(["certify", "--config", cfg, "--out", str(out), "--oracle"], tmp_path)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"agrees": true' in outputs[1]


@pytest.mark.parametrize(
    "flag, code, sign", [("false", 2, None), ("no", 2, None), (0, 2, None), (False, 0, 1.0), (True, 0, -1.0)]
)
def test_negative_omega_must_be_boolean(tmp_path, flag, code, sign):
    # "false" is a true string, so reading it with bool() picked the retrograde branch
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "equilibrium": dict(ORBIT, negative_omega=flag)})
    out = tmp_path / "eq.json"
    line = "config error: equilibrium.negative_omega must be of type bool\n" if code else ""
    check_run(["equilibrium", "--config", cfg, "--out", str(out)], tmp_path, line)
    if not code:
        assert math.copysign(1.0, json.loads(out.read_text())["equilibria"][0]["omega"]) == sign


def test_stability_map_rejects_non_unit_sigma(tmp_path):
    scan = {
        "kind": "stability_map",
        "axis1": {"name": "r0", "lo": 0.6, "hi": 0.9, "n": 2},
        "axis2": {"name": "pi0", "lo": 10.0, "hi": 10.0, "n": 1},
        "fixed": {"sigma": 1.7},
    }
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "scan": scan})
    line = "config error: sigma must be +1 or -1\n"
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "map.csv")], tmp_path, line)


def test_simulate_no_solution_reports_reason(tmp_path):
    # the unit dipole pair pulls outward beyond r0 = 2h, so r0 = 3 has no sigma = +1 orbit
    section = {"from_equilibrium": dict(ORBIT, r0=3.0), "steps": 10}
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "simulate": section})
    files = check_run(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")], tmp_path)
    assert files["traj.csv"].decode() == ",".join(CSV_HEADER) + "\n"
    assert json.loads(files["traj.csv.summary.json"]) == {"reason": "WrongFieldSign"}


# r0 = 3 has no sigma = +1 orbit on the unit pair, so these configs would
# exit 0 with a reason if the task section were checked only after the solve.
NO_ORBIT = dict(ORBIT, r0=3.0)


@pytest.mark.parametrize(
    "section, message",
    [
        ({"steps": "many"}, "simulate.steps must be of type int"),
        ({"steps": 10, "scheme": "euler"}, "scheme must be one of ('rk4', 'rk4_projected')"),
        ({"steps": 0}, "simulate.steps must be at least 1"),
        ({"steps": 10, "record_every": 0}, "record_every must be at least 1"),
        ({"steps": 10, "dt": -1.0}, "dt must be positive"),
    ],
    ids=[
        "section0-simulate.steps must be of type int", "section1-scheme must be one of",
        "section2-steps must be at least 1", "section3-record_every must be at least 1", "section4-dt must be positive",
    ],
)
def test_simulate_checks_integrator_before_solving(tmp_path, section, message):
    section = dict(section, from_equilibrium=NO_ORBIT)
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "simulate": section})
    line = f"config error: {message}\n"
    check_run(["simulate", "--config", cfg, "--out", str(tmp_path / "traj.csv")], tmp_path, line)


def test_certify_checks_method_before_solving(tmp_path):
    section = {"method": "eigen", "equilibrium": NO_ORBIT}
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "certify": section})
    line = "config error: unknown certify method 'eigen'\n"
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")], tmp_path, line)


@pytest.mark.parametrize(
    "field, line", [(PAIR, NO_LINEAR_PART), (LEV_FIELD, NO_GRAVITY)], ids=["no_linear_part", "no_gravity"]
)
def test_certify_checks_levitation_setup_before_solving(tmp_path, field, line):
    # the failed solve (WrongFieldSign, NotMirrorSymmetric) does not get to answer first
    section = {"method": "levitation", "equilibrium": NO_ORBIT}
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, "certify": section})
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "cert.json")], tmp_path, line)


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_branch_type_is_checked_before_solving(tmp_path, command):
    spec = dict(NO_ORBIT, branch="x")
    section, where = {
        "certify": ({"equilibrium": spec}, "certify.equilibrium"),
        "simulate": ({"from_equilibrium": spec, "steps": 5}, "simulate.from_equilibrium"),
    }[command]
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: section})
    line = f"config error: {where}.branch must be of type int\n"
    check_run([command, "--config", cfg, "--out", str(tmp_path / "o.dat")], tmp_path, line)


def test_levitation_solver_takes_r0_or_beta_not_both(tmp_path):
    spec = {"solver": "levitation", "r0": 0.8, "beta": -0.3}
    cfg = _cfg(tmp_path, {"body": LEV_BODY, "field": LEV_FIELD, "equilibrium": spec})
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")], tmp_path, ONE_OF["levitation"])


ONE_OF = {
    "config": "config error: config needs exactly one of 'simulate', 'equilibrium', 'certify', 'scan'\n",
    "levitation": "config error: equilibrium needs exactly one of 'r0', 'beta'\n",
    "simulate": "config error: simulate needs exactly one of 'state', 'from_equilibrium'\n",
}


@pytest.mark.parametrize(
    "command, doc, rule",
    [
        ("equilibrium", {"body": BODY, "field": PAIR}, "config"),
        ("equilibrium", {"body": BODY, "field": PAIR, "equilibrium": ORBIT, "certify": {}}, "config"),
        # both r0 and beta: test_levitation_solver_takes_r0_or_beta_not_both
        ("equilibrium", {"body": LEV_BODY, "field": LEV_FIELD, "equilibrium": {"solver": "levitation"}}, "levitation"),
        ("simulate", {"body": BODY, "field": PAIR, "simulate": {"steps": 5}}, "simulate"),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"state": TILTED_STATE, "from_equilibrium": ORBIT, "steps": 5}},
            "simulate",
        ),
    ],
)
def test_exactly_one_of_is_one_rule(tmp_path, command, doc, rule):
    # none and both exit 2 with the one message naming the section and its keys
    check_run([command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")], tmp_path, ONE_OF[rule])


@pytest.mark.parametrize("r0", [0.0, -0.8, -3.0])
@pytest.mark.parametrize("command", ["equilibrium", "certify", "simulate"])
def test_levitation_r0_must_be_positive(tmp_path, command, r0):
    # beta is read off the jet at r0, so r0 is checked first, as the other solvers check it
    spec = {"solver": "levitation", "r0": r0}
    section = {"equilibrium": spec, "certify": {"equilibrium": spec}, "simulate": {"from_equilibrium": spec, "steps": 5}}
    cfg = _cfg(tmp_path, {"body": LEV_BODY, "field": LEV_FIELD, command: section[command]})
    line = "config error: orbit radius must be positive\n"
    check_run([command, "--config", cfg, "--out", str(tmp_path / "o.dat")], tmp_path, line)


@pytest.mark.parametrize(
    "body, key",
    [
        ({}, "M"),
        ({"mu": 1.0}, "M"),
        ({k: v for k, v in BODY.items() if k != "I3"}, "I3"),
        ({k: v for k, v in BODY.items() if k != "g"}, "g"),
        # a missing M comes before a g of the wrong type
        ({"g": "x", **{k: v for k, v in BODY.items() if k not in ("M", "g")}}, "M"),
    ],
)
def test_every_body_key_is_required(tmp_path, body, key):
    # the first missing key in the order M, I_perp, I3, mu, g is named, as a field record's is
    cfg = _cfg(tmp_path, {"body": body, "field": PAIR, "equilibrium": ORBIT})
    line = f"config error: missing {key!r} in body\n"
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")], tmp_path, line)


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
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "c.json"), "--oracle"], tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["certify_closed_form", "certify_orbitron", "certify_levitation"])
def test_certify_oracle_builds_one_reduced_form(tmp_path, monkeypatch, name):
    # the closed-form sweep eliminates a copy of the Q that the oracle then reads
    from orbitron import stability

    calls = []
    reduced_forms = stability._reduced_forms

    def counted(*args):
        calls.append(args)
        return reduced_forms(*args)

    monkeypatch.setattr(stability, "_reduced_forms", counted)
    out = f"{name}.out.json"
    argv = ["certify", "--oracle", "--config", str(CASE_DIR / f"{name}.config.json"), "--out", str(tmp_path / out)]
    assert check_run(argv, tmp_path) == {out: (CASE_DIR / out).read_bytes()}
    assert len(calls) == 1


@pytest.mark.parametrize("method", ["orbitron", "levitation"])
def test_certify_builds_no_hessian_blocks_it_does_not_read(tmp_path, monkeypatch, method):
    from orbitron import cli

    calls = []
    monkeypatch.setattr(cli, "hessian_blocks", lambda *args: calls.append(args))
    levitation = (LEV_BODY, LEV_FIELD, {"solver": "levitation", "r0": 0.8})
    body, field, spec = levitation if method == "levitation" else (BODY, PAIR, ORBIT)
    cfg = _cfg(tmp_path, {"body": body, "field": field, "certify": {"method": method, "equilibrium": spec}})
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "c.json")], tmp_path)
    assert calls == []


@pytest.mark.parametrize("name, searches", [("certify_levitation", 0), ("equilibrium_levitation_beta", 1)])
def test_levitation_spec_solves_one_orbit(tmp_path, monkeypatch, name, searches):
    # the r0 and beta routes each solve and build one orbit; only the beta route searches for its radius
    from orbitron import cli, equilibrium

    calls = []
    for module, fn in ((equilibrium, "solve_levitation"), (equilibrium, "build_levitation_equilibrium"),
                       (cli, "radius_for_beta")):
        def counted(*args, fn=fn, original=getattr(module, fn)):
            calls.append(fn)
            return original(*args)

        monkeypatch.setattr(module, fn, counted)
    out = f"{name}.out.json"
    flags = ["--oracle"] if name.startswith("certify") else []
    argv = [name.split("_")[0], *flags, "--config", str(CASE_DIR / f"{name}.config.json"), "--out", str(tmp_path / out)]
    assert check_run(argv, tmp_path) == {out: (CASE_DIR / out).read_bytes()}
    assert sorted(calls) == sorted(["solve_levitation", "build_levitation_equilibrium"] + ["radius_for_beta"] * searches)


def test_cli_imports_no_private_library_name():
    # the CLI reads configs and writes files: what it computes comes from public library functions
    source = Path(__file__).resolve().parents[1] / "src" / "orbitron" / "cli.py"
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "orbitron")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("ratio_range", [[0.3], [0.3, 1.5, 2.0]], ids=["one", "three"])
def test_scan_window_ratio_range_takes_two_numbers(tmp_path, ratio_range):
    cfg = _cfg(tmp_path, {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=ratio_range)})
    line = "config error: scan.ratio_range must be a list of exactly 2 numbers\n"
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "w.csv")], tmp_path, line)


@pytest.mark.parametrize("flags", [[], ["--refine"]], ids=["plain", "refine"])
@pytest.mark.parametrize("ratio_range", [[1.5, 0.3], [0.9, 0.9]], ids=["decreasing", "equal"])
def test_scan_window_ratio_range_must_increase(tmp_path, ratio_range, flags):
    # a decreasing range used to scan downwards and exit 0, and to exit 2 with --refine, finding no window
    cfg = _cfg(tmp_path, {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=ratio_range, n=3)})
    line = "config error: scan.ratio_range must be increasing\n"
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "w.csv"), *flags], tmp_path, line)


def test_scan_window_rejects_nonpositive_ratio(tmp_path):
    cfg = _cfg(tmp_path, {"body": BODY, "scan": dict(WINDOW_SCAN, ratio_range=[0.0, 1.5])})
    line = "config error: ratio_range (0.0, 1.5) must lie in r0 / h > 0\n"
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "w.csv")], tmp_path, line)


def test_levitation_precision_loss_is_a_numerical_failure(tmp_path):
    # a gradient of 1e-150 makes beta and kappa about 1e150, and the axis
    # direction of the levitation closed form loses its normalization
    weak = {"type": "linear", "B0": 1.0, "Bprime": 1e-150}
    field = {"type": "composite", "parts": [weak, PAIR]}
    section = {"solver": "levitation", "r0": 0.8}
    cfg = _cfg(tmp_path, {"body": dict(BODY, g=1.0), "field": field, "equilibrium": section})
    line = "numerical failure: ArithmeticError: axis direction failed to normalize: |nu|^2 - 1 = 0.877328\n"
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")], tmp_path, line)


def test_compute_overflow_is_a_numerical_failure(tmp_path):
    # the config is valid; the jet overflows only at the tiny scale of the orbit
    field = {"type": "dipole_pair", "q": 1, "h": 1e-40}
    section = {"method": "orbitron", "equilibrium": {"solver": "orbitron", "r0": 0.8e-40, "pi0": 10, "sigma": 1}}
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, "certify": section})
    line = "numerical failure: NonFinite: dipole jet overflows at squared distance 1.64e-80 from the source\n"
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "c.json")], tmp_path, line)


@pytest.mark.parametrize(
    "doc, name",
    [({"equilibrium": dict(ORBIT, r0=10**400)}, "equilibrium.r0"), ({"field": dict(PAIR, h=10**400)}, "field.h")],
    ids=["doc0", "doc1"],
)
def test_out_of_range_config_integer_is_a_config_error(tmp_path, doc, name):
    cfg = _cfg(tmp_path, dict({"body": BODY, "field": PAIR, "equilibrium": ORBIT}, **doc))
    line = f"config error: {name} is out of the float range\n"
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")], tmp_path, line)


def test_orbitron_spin_overflow_is_a_numerical_failure(tmp_path):
    # with q = 1e200 the spin threshold squares an overflowing Bz_r, and C overflows
    section = {"method": "orbitron", "equilibrium": ORBIT}
    cfg = _cfg(tmp_path, {"body": BODY, "field": dict(PAIR, q=1e200), "certify": section})
    line = "numerical failure: NonFinite: orbitron spin threshold is inf\n"
    check_run(["certify", "--config", cfg, "--out", str(tmp_path / "c.json")], tmp_path, line)


# Each command flag and the one command it belongs to.
_FLAGS = {"--include-casimir-energy": "simulate", "--oracle": "certify", "--refine": "scan"}


def _argv_code(argv):
    """main's exit code for argv, also when argparse exits; output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv), sink.getvalue()
        except SystemExit as exc:
            return exc.code, sink.getvalue()


@pytest.mark.parametrize(
    "command, flag",
    [("certify", "--refine"), ("scan", "--oracle"), ("equilibrium", "--include-casimir-energy")],
)
def test_flag_of_another_command_is_a_usage_error(tmp_path, command, flag):
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, command: {}})
    code, _ = _argv_code([command, "--config", cfg, "--out", str(tmp_path / "o"), flag])
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--out", "o.json"],
        ["equilibrium", "--config", "c.json"],
        ["bogus", "--config", "c.json", "--out", "o.json"],
        ["equilibrium", "extra", "--config", "c.json", "--out", "o.json"],
        [],
    ],
    ids=["no_config", "no_out", "unknown_command", "extra_positional", "empty"],
)
def test_malformed_argv_is_a_usage_error(argv):
    assert _argv_code(argv)[0] == 2


def test_help_names_every_command_and_flag():
    code, text = _argv_code(["-h"])
    assert code == 0
    for command in ("simulate", "equilibrium", "certify", "scan"):
        assert command in text
    for flag, command in _FLAGS.items():
        code, text = _argv_code([command, "-h"])
        assert code == 0 and flag in text


def test_main_builds_one_argument_parser(tmp_path, monkeypatch):
    # the module builds its one parser at import; a call builds none, subparsers included
    import argparse

    from orbitron import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "equilibrium": ORBIT})
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.json")]) == 0
    assert built == []
    parsers = [v for v in vars(cli).values() if isinstance(v, argparse.ArgumentParser)]
    assert len(parsers) == 1 and parsers[0]._subparsers is None


def test_usage_error_leaves_the_next_call_unchanged(tmp_path):
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "certify": {"equilibrium": ORBIT}})

    def run(out):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = main(["certify", "--oracle", "--config", cfg, "--out", str(out)])
        return code, sink.getvalue(), out.read_bytes()

    alone = run(tmp_path / "alone.json")
    code, _ = _argv_code(["equilibrium", "--oracle", "--config", cfg, "--out", str(tmp_path / "bad.json")])
    assert code == 2 and not (tmp_path / "bad.json").exists()
    assert run(tmp_path / "after.json") == alone


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
def test_scan_sizes_and_steps_are_bounded(tmp_path, monkeypatch, case, size, accepted):
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
    line = "numerical failure: OrbitronError: compute stage reached\n" if accepted else f"config error: {message}\n"
    check_run([command, "--config", cfg, "--out", str(tmp_path / "o.dat")], tmp_path, line)
    assert len(reached) == int(accepted)


@pytest.mark.parametrize(
    "value, as_json, as_csv",
    [
        (True, "true", "true"),
        (np.bool_(False), "false", "false"),
        (3, "3", "3"),
        (np.int64(-7), "-7", "-7"),
        (0.8, "0.80000000000000004", "0.80000000000000004"),
        (np.float64(1.0 / 3.0), "0.33333333333333331", "0.33333333333333331"),
        (0.0, "0", "0"),
        (-0.0, "0", "0"),
        (math.inf, "null", "nan"),
        (-math.inf, "null", "nan"),
        (math.nan, "null", "nan"),
        ('say "stable"', '"say \\"stable\\""', 'say "stable"'),
    ],
    ids=repr,
)
def test_scalar_text_of_json_and_csv(value, as_json, as_csv):
    from orbitron.cli import _csv_cell, _json_scalar

    assert _json_scalar(value) == as_json
    assert _csv_cell(value) == as_csv


def _fmt17_before(x) -> str:
    """fmt17 as it read before the one-step float rule: zero compared out, then formatted."""
    x = float(x)
    return format(0.0 if x == 0.0 else x, ".17g")


def _scalar_text_before(x, nonfinite: str) -> str:
    """_scalar_text as it read before the one-step float rule, for every scalar type."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt17_before(x) if math.isfinite(x) else nonfinite
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _float_bit_patterns(per_exponent=50, seed=32):
    """Seeded float64 bit patterns: per_exponent random signs and mantissas for each of the
    2048 biased exponents (0 gives zeros and subnormals, 2047 infinities and NaN payloads),
    then the zeros, infinities and quiet and signalling NaNs of both signs by name."""
    rng = np.random.default_rng(seed)
    n = 2048 * per_exponent
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), per_exponent)
    mantissa = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    named = [0, 1, 2**52 - 1, 0x7FF << 52, (0x7FF << 52) | 1, (0x7FF << 52) | (1 << 51), (0x7FF << 52) | 2**52 - 1]
    named += [b | (1 << 63) for b in named]
    return np.concatenate([bits, np.array(named, dtype=np.uint64)]).view(np.float64)


def test_float_text_is_the_earlier_rule_on_every_exponent():
    from orbitron.cli import _csv_cell, dumps17, fmt17

    values = _float_bit_patterns()
    floats = values.tolist()
    assert len(floats) >= 100_000 and all(type(x) is float for x in floats)
    finite = np.isfinite(values)
    assert (values[finite] == 0.0).any() and (np.abs(values[finite]) < 2.0**-1022).sum() > 40
    assert np.isinf(values).sum() == 2 and np.isnan(values).sum() > 50
    for x in floats:
        assert _csv_cell(x) == _scalar_text_before(x, "nan"), x.hex()
        assert dumps17(x) == _scalar_text_before(x, "null"), x.hex()
    for x in values[finite].tolist():
        assert fmt17(x) == _fmt17_before(x), x.hex()


def test_float_text_of_other_scalars_is_the_earlier_rule():
    from orbitron.cli import _csv_cell, dumps17

    values = _float_bit_patterns(per_exponent=2)
    with np.errstate(over="ignore", invalid="ignore"):
        numpy_floats = [*values, *values.astype(np.float32)]
    scalars = [*numpy_floats, True, False, np.bool_(True), np.bool_(False), 0, -1, 2**70, -(2**70)]
    scalars += [np.int64(-7), np.int32(2**31 - 1), np.uint64(2**64 - 1), np.uint8(255)]
    assert {type(x) for x in numpy_floats} == {np.float64, np.float32}
    for x in scalars:
        assert _csv_cell(x) == _scalar_text_before(x, "nan"), repr(x)
        assert dumps17(x) == _scalar_text_before(x, "null"), repr(x)


def test_scalar_text_of_none_and_unknown_types():
    from orbitron.cli import _json_scalar

    assert _json_scalar(None) == "null"
    with pytest.raises(TypeError, match="cannot serialize list"):
        _json_scalar([1.0])


def test_dumps17_of_empty_containers():
    from orbitron.cli import dumps17

    assert dumps17({}) == "{}"
    assert dumps17({"equilibria": [], "max_drift": {}}, 1) == '{\n    "equilibria": [],\n    "max_drift": {}\n  }'


def test_dumps17_lays_out_containers_as_json_dumps_does():
    from orbitron.cli import dumps17

    # Without floats, the layout and escapes are those of json.dumps at indent 2.
    obj = {
        "a": [1, True, None, "x\"\\\n\u00e9\u2603"],
        "\u00fcber \t": {"nested": [[], {}, [False, -3]], "t": (1, "two")},
        "empty": "",
    }
    assert dumps17(obj) == json.dumps(obj, indent=2)
    assert dumps17([obj, [obj]]) == json.dumps([obj, [obj]], indent=2)
    # Floats and numpy scalars take fmt17, and a float that is not finite is null.
    values = [0.1, -0.0, float("inf"), float("nan"), np.float64(2.5), np.int64(7), np.bool_(True)]
    assert dumps17(values) == "[\n  0.10000000000000001,\n  0,\n  null,\n  null,\n  2.5,\n  7,\n  true\n]"


def test_an_out_path_that_cannot_be_written_exits_2_and_writes_nothing(tmp_path):
    config = str(CASE_DIR / "equilibrium_readme.config.json")
    missing = tmp_path / "missing" / "x.json"
    line = f"config error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    check_run(["equilibrium", "--config", config, "--out", str(missing)], tmp_path, line)
    # A directory as the out path of a refined scan: the CSV fails first, so no sidecar is left behind.
    config = str(CASE_DIR / "scan_window_refined.config.json")
    directory = tmp_path / "dir"
    directory.mkdir()
    line = f"config error: cannot write {directory}: [Errno 21] Is a directory: '{directory}'\n"
    check_run(["scan", "--refine", "--config", config, "--out", str(directory)], tmp_path, line)
    # A directory at a sidecar path: every path is opened before any is written, so an --out that was
    # absent stays absent and one that held bytes keeps them.
    for name, sidecar in [
        ("scan_window_refined", ".endpoints.json"),
        ("simulate_readme_rk4", ".summary.json"),
        ("simulate_no_orbit", ".summary.json"),  # a header-only CSV and a reason
    ]:
        command = name.split("_")[0]
        for before in (None, b"an earlier run\n"):
            run = tmp_path / f"{name}-{before is None}"
            out = run / "o.csv"
            (run / f"o.csv{sidecar}").mkdir(parents=True)
            if before is not None:
                out.write_bytes(before)
            argv = [command, *CASE_FLAGS.get(command, []), "--config", str(CASE_DIR / f"{name}.config.json")]
            line = f"config error: cannot write {out}{sidecar}: [Errno 21] Is a directory: '{out}{sidecar}'\n"
            check_run([*argv, "--out", str(out)], run, line)


@pytest.mark.parametrize(
    "field, section, message",
    [
        (PAIR, dict(WINDOW_SCAN, n=0), "scan.n must be at least 1"),
        (PAIR, dict(WINDOW_SCAN, n=-1), "scan.n must be at least 1"),
        (LEV_FIELD, dict(SWEEP_SCAN, kappa_values=[]), "the length of scan.kappa_values must be at least 1"),
    ],
    ids=["window_n_0", "window_n_-1", "no_kappa_values"],
)
def test_empty_scans_exit_2_before_writing(tmp_path, field, section, message):
    cfg = _cfg(tmp_path, {"body": BODY, "field": field, "scan": section})
    line = f"config error: {message}\n"
    check_run(["scan", "--refine", "--config", cfg, "--out", str(tmp_path / "scan.csv")], tmp_path, line)


def test_sweep_beta_follows_the_equilibrium_beta_route(tmp_path):
    # radius_for_beta owns the range of beta: a sweep and the levitation solver exit alike
    line = "config error: beta Bprime = 1.5 is outside the reachable Br_z range [-5.4856, 0) of the mirror part\n"
    cfg = _cfg(tmp_path, {"body": LEV_BODY, "field": LEV_FIELD, "scan": dict(SWEEP_SCAN, beta=0.5)})
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "sweep.csv")], tmp_path, line)
    section = {"solver": "levitation", "beta": 0.5}
    cfg = _cfg(tmp_path, {"body": LEV_BODY, "field": LEV_FIELD, "equilibrium": section}, "eq.json")
    check_run(["equilibrium", "--config", cfg, "--out", str(tmp_path / "eq.out.json")], tmp_path, line)


def test_map_axis_also_fixed_is_a_config_error(tmp_path):
    cfg = _cfg(tmp_path, {"body": BODY, "field": PAIR, "scan": dict(MAP_SCAN, fixed={"r0": 1.2})})
    line = "config error: scan parameters ['r0'] are both an axis and fixed\n"
    check_run(["scan", "--config", cfg, "--out", str(tmp_path / "map.csv")], tmp_path, line)


_HUGE_PAIR_FIELD = {"type": "composite", "parts": [{"type": "linear", "B0": 1, "Bprime": 3}, dict(PAIR, q=1e300)]}


def _huge_pair_certify(method):
    return {
        "body": dict(BODY, g=3.3),
        "field": _HUGE_PAIR_FIELD,
        "certify": {"method": method, "equilibrium": {"solver": "dipole", "r0": 0.8, "C2": 1}},
    }


@pytest.mark.parametrize(
    "command, doc, flags, line",
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
            "numerical failure: NonFinite: dipole jet overflows at squared distance 6.5e-79 from the source\n",
        ),
        # the window jet overflows at every ratio of a pair this small: NonFinite
        (
            "scan",
            {"body": BODY, "scan": dict(WINDOW_SCAN, h=1e-110, n=3)},
            [],
            "numerical failure: NonFinite: window conditions are not finite at r0 / h = 0.3, r0 = 3e-111\n",
        ),
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
            "numerical failure: NonFinite: non-finite sample at step 0\n",
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
            "numerical failure: NonFinite: non-finite sample at step 0\n",
        ),
        # nu . nu overflows, or underflows to 0: no unit axis either, NonFinite at step 0
        *(
            (
                "simulate",
                {
                    "body": BODY,
                    "field": PAIR,
                    "simulate": {"state": dict(TILTED_STATE, nu=[0, 0, nu3]), "steps": 3, "scheme": "rk4_projected"},
                },
                [],
                "numerical failure: NonFinite: non-finite sample at step 0\n",
            )
            for nu3 in (1e160, 1e-200)
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
            "config error: axis 'pi0' range width must be finite\n",
        ),
        # with q = 1e300 the closed form's products overflow: a sweep of NonFinite rows
        (
            "scan",
            {
                "body": dict(BODY, g=3.3),
                "field": _HUGE_PAIR_FIELD,
                "scan": {"kind": "levitation_sweep", "kappa_values": [1.001, 1.2], "beta": -0.95},
            },
            [],
            "",
        ),
        # the same products on one tilted cell: a zero pivot in the closed form
        (
            "certify",
            _huge_pair_certify("closed_form"),
            [],
            "numerical failure: ZeroPivot: pivot 1 for variable 0 is zero to working precision\n",
        ),
        # the levitation route's margin is nan there: NonFinite, before the oracle runs
        ("certify", _huge_pair_certify("levitation"), [], "numerical failure: NonFinite: certificate margin is nan\n"),
        (
            "certify",
            _huge_pair_certify("levitation"),
            ["--oracle"],
            "numerical failure: NonFinite: certificate margin is nan\n",
        ),
        # lambda2 I_perp nu0 is inf times 0 in the assembled spin: NonFinite names pi0
        (
            "equilibrium",
            {"body": dict(BODY, I_perp=1e300, mu=1e300), "field": PAIR, "equilibrium": ORBIT},
            [],
            "numerical failure: NonFinite: equilibrium pi0 is not finite at r0 = 0.8\n",
        ),
        # omega = inf: NonFinite from the equilibrium, before the support blocks
        (
            "certify",
            {
                "body": dict(BODY, mu=1e300),
                "field": dict(PAIR, q=1e300),
                "certify": {"method": "closed_form", "equilibrium": ORBIT},
            },
            [],
            "numerical failure: NonFinite: equilibrium omega is not finite at r0 = 0.8\n",
        ),
    ],
    ids=[
        "radius_for_beta",
        "dipoletron_window",
        "simulate_energy",
        "simulate_zero_axis",
        "simulate_axis_overflow",
        "simulate_axis_underflow",
        "scan_axis_width",
        "sweep_closed_form",
        "certify_closed_form",
        "certify_levitation",
        "certify_levitation_oracle",
        "equilibrium_spin",
        "certify_support_blocks",
    ],
)
def test_jet_overflow_prints_no_runtime_warning(tmp_path, command, doc, flags, line):
    # in_process fails on any warning, and a rerun prints the same line
    argv = [command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat"), *flags]
    for _ in range(2):
        check_run(argv, tmp_path, line)


# Configs whose float quotients divide by a product that underflows to 0.
_TINY_SPIN_BODY = {"M": 1.0, "I_perp": 1e-300, "I3": 1.0, "mu": 1e-310, "g": 3.003e-310}
_WEAK_GRADIENT = {"type": "linear", "B0": 1.0, "Bprime": 1e-20}
_TINY_LEVITATION = {
    "body": {"M": 1e-200, "I_perp": 1e-240, "I3": 1.0, "mu": 1e-200, "g": 1.05e-110},
    "field": {
        "type": "composite",
        "parts": [{"type": "linear", "B0": 1.0, "Bprime": 1e-110}, {"type": "dipole_pair", "q": 1e-190, "h": 1e-20}],
    },
}


@pytest.mark.parametrize(
    "command, doc, name",
    [
        (
            "equilibrium",
            {"body": _TINY_SPIN_BODY, "field": LEV_FIELD, "equilibrium": {"solver": "levitation", "beta": -0.9}},
            "multiplier lambda2",
        ),
        (
            "certify",
            {
                "body": _TINY_SPIN_BODY,
                "field": LEV_FIELD,
                "certify": {"method": "levitation", "equilibrium": {"solver": "levitation", "beta": -0.9}},
            },
            "multiplier lambda2",
        ),
        (
            "equilibrium",
            {
                "body": dict(BODY, mu=1e-310, g=1.0),
                "field": {"type": "composite", "parts": [_WEAK_GRADIENT, dict(PAIR, q=1e-20)]},
                "equilibrium": {"solver": "dipole", "r0": 0.8, "C2": 1.0},
            },
            "axis line offset M g / (mu |(Br_z, Bz_z)|)",
        ),
        (
            "equilibrium",
            {"body": dict(BODY, M=1e-200), "field": PAIR, "equilibrium": {"solver": "dipole", "r0": 1e-200, "C2": 1.0}},
            "orbit rate scale mu Bz_r / (M r0)",
        ),
        (
            "equilibrium",
            {
                "body": dict(BODY, mu=1e-310, g=1.0),
                "field": {"type": "composite", "parts": [_WEAK_GRADIENT, PAIR]},
                "equilibrium": {"solver": "levitation", "r0": 0.8},
            },
            "kappa = M g / (mu B')",
        ),
        (
            "certify",
            dict(_TINY_LEVITATION, certify={"method": "levitation", "equilibrium": {"solver": "levitation", "r0": 8e-21}}),
            "lambda / (M g r0)",
        ),
    ],
    ids=["levitation_lambda2", "certify_lambda2", "dipole_line", "dipole_rate", "levitation_kappa", "levitation_details"],
)
def test_underflowing_divisor_exits_3_naming_the_quantity(tmp_path, command, doc, name):
    line = f"numerical failure: NonFinite: {name} is not finite: its divisor underflows to 0\n"
    check_run([command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")], tmp_path, line)


# A pair with h ~ 1e-125 whose jet overflows to nan on the radius_for_beta grid.
_NAN_GRID_BODY = {"M": 1.4434428086787037e75, "I_perp": 2.168308883824848e33, "I3": 1.0, "mu": 5.578410614715407e-88, "g": 1.0}
_NAN_GRID_FIELD = {
    "type": "composite",
    "parts": [
        {"type": "linear", "B0": 1.0, "Bprime": 9.156433322374691e77},
        {"type": "dipole_pair", "q": 6.000270929523628e-76, "h": 4.693746126707849e-125},
    ],
}
_NAN_GRID_BETA = -0.9461822473612319


@pytest.mark.parametrize(
    "command, section",
    [
        ("scan", {"kind": "levitation_sweep", "kappa_values": [0.9, 1.0, 1.2], "beta": _NAN_GRID_BETA}),
        ("equilibrium", {"solver": "levitation", "beta": _NAN_GRID_BETA}),
    ],
    ids=["sweep", "equilibrium"],
)
def test_non_finite_radius_grid_exits_3_naming_beta(tmp_path, command, section):
    # np.argmin picks the grid's first nan; this used to exit 2 as an unreachable beta
    doc = {"body": _NAN_GRID_BODY, "field": _NAN_GRID_FIELD, command: section}
    line = f"numerical failure: NonFinite: Br_z of the mirror part is nan on the radius grid for beta = {_NAN_GRID_BETA:g}\n"
    check_run([command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")], tmp_path, line)


# A pair whose single-point jet overflows to Br_z = -inf at r = h and to +inf
# at the end of the radius_for_beta range: the bisection followed the sign of
# the infinities to r = 2h, whatever beta was.
_INF_JET_FIELD = {
    "type": "composite",
    "parts": [
        {"type": "linear", "B0": 1.0, "Bprime": 1.66e-267},
        {"type": "dipole_pair", "q": 9.757063688382695e269, "h": 3.9709145912385545e39},
    ],
}


def test_infinite_bisection_value_exits_3_naming_beta(tmp_path):
    section = {"kind": "levitation_sweep", "kappa_values": [0.9, 1.2], "beta": -0.363}
    doc = {"body": LEV_BODY, "field": _INF_JET_FIELD, "scan": section}
    line = "numerical failure: NonFinite: Br_z of the mirror part is inf at r = 3.1767316729908436e+40 for beta = -0.363\n"
    check_run(["scan", "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "sweep.csv")], tmp_path, line)


# Valid configs that reach every solver and certificate route, and every
# command's outputs; the fuzz mutates up to two of their entries.
_BASES = [
    (BODY, PAIR, ORBIT),
    (BODY, PAIR, dict(ORBIT, negative_omega=True, branch=0)),
    (LEV_BODY, LEV_FIELD, {"solver": "dipole", "r0": 0.8, "C2": 1.0}),
    (LEV_BODY, LEV_FIELD, {"solver": "levitation", "r0": 0.8}),
    (LEV_BODY, LEV_FIELD, {"solver": "levitation", "beta": -0.9}),
]
_METHODS = ("closed_form", "orbitron", "levitation")
# A sweep base whose rows hit lambda, NoEquilibrium, stable, A and NoRealSolution.
_SWEEP = {"kind": "levitation_sweep", "kappa_values": [0.9, 1.0, 1.001, 1.2, 1.5], "beta": -0.95}
# The header line of each CSV the fuzz can write, by command or scan kind.
_CSV_HEADERS = {
    "levitation_sweep": "kappa,beta,r0,nu_r,nu_z,xi2,verdict,margin,A,B,C,error",
    "dipoletron_window": "ratio,r0,axial,radial,omega2,in_window",
    "simulate": ",".join(CSV_HEADER),
}
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
    command = draw(st.sampled_from(["equilibrium", "certify", "scan", "simulate"]))
    if command == "scan":
        body, field, spec = draw(st.sampled_from([(LEV_BODY, LEV_FIELD, _SWEEP), (BODY, PAIR, dict(WINDOW_SCAN, n=5))]))
    if command == "certify":
        spec = {"method": draw(st.sampled_from(_METHODS)), "equilibrium": spec}
    if command == "simulate":
        spec = {"from_equilibrium": spec, "steps": 3}
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
    flags = CASE_FLAGS.get(command, []) if draw(st.booleans()) else []
    return command, flags, doc


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_configs())
def test_cli_contract_fuzz(case):
    command, flags, doc = case
    outcomes = []

    def run(argv):
        outcomes.append(in_process(argv))
        return outcomes[-1]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(doc))  # NaN and Infinity tokens, which json.load accepts
        out = tmp / ("out.csv" if command in ("scan", "simulate") else "out.json")
        runs = []
        for _ in range(2):
            files = check_run([command, "--config", str(cfg), "--out", str(out), *flags], tmp, None, run)
            code, _, err = outcomes[-1]
            assert code != 0 or out.name in files
            for name, data in files.items():
                if name.endswith(".json"):
                    json.loads(data, parse_constant=_reject_constant)
                else:
                    assert data.decode().startswith(_CSV_HEADERS[doc[command].get("kind", command)] + "\n")
            runs.append((code, err, files))
            for name in files:
                (tmp / name).unlink()
        assert runs[0] == runs[1]
        event(f"{command} exit {code}")


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "config error: cannot read config {0}: [Errno 21] Is a directory: '{0}'\n"),
        ("[1, 2]", "config error: config root must be a JSON object\n"),
        ("3", "config error: config root must be a JSON object\n"),
    ],
    ids=["unreadable", "list", "number"],
)
def test_unreadable_or_non_object_config_exits_2(tmp_path, text, message):
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()  # a path that exists but cannot be read as a file
    else:
        path.write_text(text)
    check_run(["equilibrium", "--config", str(path), "--out", str(tmp_path / "o.dat")], tmp_path, message.format(path))


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "equilibrium",
            {"body": dict(BODY, spin=1.0), "field": PAIR, "equilibrium": ORBIT},
            "unknown body keys ['spin']; known: ['I3', 'I_perp', 'M', 'g', 'mu']",
        ),
        (
            "simulate",
            {"body": BODY, "field": PAIR, "simulate": {"state": dict(TILTED_STATE, x=[0.9, 0.1]), "steps": 5}},
            "state.x must be a list of 3 numbers",
        ),
        (
            "equilibrium",
            {"body": BODY, "field": PAIR, "equilibrium": {"solver": "dipole", "r0": -0.8, "C2": 10.0}},
            "orbit radius must be positive",
        ),
    ],
    ids=["body-key", "state-length", "dipole-r0"],
)
def test_config_contract_paths_exit_2(tmp_path, command, doc, message):
    line = f"config error: {message}\n"
    check_run([command, "--config", _cfg(tmp_path, doc), "--out", str(tmp_path / "o.dat")], tmp_path, line)


# Contract cases: tests/data/<command>_<case>.config.json is run as `orbitron <command>`, a certify with
# --oracle and a scan with --refine.  Beside it lies one expectation: the files <command>_<case>.out.<ext>
# (its --out) and <command>_<case>.out.<ext>.<sidecar> that a run exiting 0 writes, exactly and byte for
# byte; or <command>_<case>.err, the one stderr line of a run that fails.  check_case finds a case's config
# and expectation, and check_run, which every CLI run in this file goes through, checks the rest of the rule.
CASE_DIR = Path(__file__).parent / "data"
CASE_NAMES = sorted(p.name.removesuffix(".config.json") for p in CASE_DIR.glob("*.config.json"))
CASE_FLAGS = {"certify": ["--oracle"], "scan": ["--refine"]}


def contract_cases(directory):
    """Each case name with its expectation files, the `.out.<ext>` or `.err` first.

    Raises AssertionError on a config with no expectation or two, and on a file without its config.
    """
    suffixes = {}
    for path in sorted(directory.iterdir()):
        name, _, suffix = path.name.partition(".")
        suffixes.setdefault(name, set()).add(suffix)
    cases = {}
    for name, found in suffixes.items():
        assert "config.json" in found, f"{name}: {sorted(found)} without a config"
        found.discard("config.json")
        heads = sorted(s for s in found if s == "err" or (s.startswith("out.") and s.count(".") == 1))
        assert len(heads) == 1, f"{name}: expectations {heads}, not one"
        sidecars = sorted(found - set(heads))
        assert all(s.startswith(f"{heads[0]}.") and heads[0] != "err" for s in sidecars), f"{name}: stray {sidecars}"
        cases[name] = [f"{name}.{s}" for s in heads + sidecars]
    return cases


def test_every_golden_output_has_its_config():
    assert sorted(contract_cases(CASE_DIR)) == CASE_NAMES
    assert len(CASE_NAMES) >= 29


@pytest.mark.parametrize(
    "files",
    [
        ["a_b.config.json"],
        ["a_b.config.json", "a_b.out.json", "a_b.err"],
        ["a_b.config.json", "a_b.out.csv", "a_b.out.json"],
        ["a_b.config.json", "a_b.out.csv.summary.json"],
        ["a_b.config.json", "a_b.err", "a_b.err.summary.json"],
        ["a_b.config.json", "a_b.out.csv", "a_b.out.json.summary.json"],
        ["a_b.config.json", "a_b.out.csv", "a_c.out.csv"],
        ["a_b.config.json", "a_b.out.csv", "a_c.err"],
    ],
    ids=["none", "golden-and-err", "two-goldens", "sidecar-alone", "sidecar-of-err", "stray-sidecar",
         "orphan-golden", "orphan-err"],
)
def test_case_pairing_rejects_a_config_without_one_expectation(tmp_path, files):
    for name in files:
        (tmp_path / name).write_text("")
    with pytest.raises(AssertionError):
        contract_cases(tmp_path)


def check_case(run, name, tmp_path):
    """Run the contract case ``name`` by ``run`` with its outputs in the empty ``tmp_path``, and check its expectation."""
    expected = contract_cases(CASE_DIR)[name]
    command = name.split("_")[0]
    err_case = expected == [f"{name}.err"]
    out = tmp_path / (f"{name}.out" if err_case else expected[0])
    argv = [command, *CASE_FLAGS.get(command, []), "--config", str(CASE_DIR / f"{name}.config.json"), "--out", str(out)]
    files = check_run(argv, tmp_path, (CASE_DIR / expected[0]).read_text() if err_case else "", run)
    assert files == {file: (CASE_DIR / file).read_bytes() for file in expected if not err_case}, name


@pytest.mark.parametrize("name", CASE_NAMES)
def test_golden_config_writes_its_golden_bytes(tmp_path, name):
    check_case(in_process, name, tmp_path)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_golden_config_takes_every_pair_jet_on_the_midplane_path(tmp_path, monkeypatch, name):
    # every solver, certificate route, scan and on-orbit trajectory evaluates the field at z = 0.0, where a
    # pair's jet computes its top source alone; only a start state off the midplane leaves that path
    counts = count_pair_jets(monkeypatch)
    check_case(in_process, name, tmp_path)
    if name == "simulate_tilted_projected":
        assert counts["midplane"] < counts["pair"]
    else:
        assert counts["midplane"] == counts["pair"]
    if not contract_cases(CASE_DIR)[name][0].endswith(".err"):
        assert counts["pair"] > 0


@pytest.mark.skipif(shutil.which("orbitron") is None, reason="the orbitron console script is not on PATH")
def test_installed_script_writes_every_golden(tmp_path):
    for name in CASE_NAMES:
        (tmp_path / name).mkdir()
        check_case(installed_script, name, tmp_path / name)


@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_projected_trajectory_golden_under_another_blas_kernel(tmp_path, kernel):
    # OpenBLAS picks its kernels for the CPU at run time, and the summation order of a dot is the kernel's;
    # a tilted rk4_projected run sums every 3-vector product in one written order, so it writes the same bytes
    module = child_process(sys.executable, "-m", "orbitron.cli", OPENBLAS_CORETYPE=kernel)
    check_case(module, "simulate_tilted_projected", tmp_path)


def test_reversed_readme_golden_negates_exactly_the_time_odd_values():
    # negative_omega prints omega, lambda2, p0, C2 and pi0 negated, digit for digit, and the rest unchanged
    fwd, rev = (
        json.loads((CASE_DIR / f"{name}.out.json").read_text(), parse_float=str, parse_int=str)["equilibria"][0]
        for name in ("equilibrium_readme", "equilibrium_readme_reversed")
    )

    def neg(t):
        return t if t == "0" else t[1:] if t.startswith("-") else "-" + t

    assert rev.keys() == fwd.keys()
    for key, value in fwd.items():
        if key == "pi0":
            value = [neg(t) for t in value]
        elif key in ("omega", "lambda2", "p0", "C2"):
            value = neg(value)
        assert rev[key] == value, key
