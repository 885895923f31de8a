"""Command-line interface: simulate, equilibrium, certify, scan.

Each command reads a JSON run configuration holding a ``body`` record, a
``field`` record, and exactly one task section named after the command.
``main`` reads the body and the task section once, and writes the files a command
returns.  Floats are written with 17 significant digits, so runs are bitwise reproducible.

Exit codes: 0 on success (including "no solution found"), 2 for a configuration
error, 3 for a numerical failure; either leaves every output path as it was and
prints one stderr line, starting ``config error:`` or ``numerical failure:``.  A
usage error is the one exception to that line: argparse prints its usage text and
exits 2.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .core import BodyParams, ReducedState
from .dynamics import IntegratorConfig, integrate, relative_equilibrium_orbit
from .equilibrium import (
    Equilibrium,
    build_support_state,
    solve_dipole_equilibrium,
    solve_levitation_equilibrium,
    solve_orbitron_equatorial,
    split_levitation_model,
)
from .errors import (
    BadSign,
    ConfigError,
    NegativeCentrifugal,
    NoEquilibrium,
    NoRealSolution,
    OrbitronError,
    WrongFieldSign,
    finite_float,
    require,
)
from .fields import AxiFieldModel, model_from_config
from .potential import DipolePotential, hessian_blocks
from .scan import (
    ScanAxis,
    ScanSpec,
    dipoletron_window,
    levitation_sweep,
    radius_for_beta,
    stability_map,
    window_endpoints,
)
from .stability import (
    closed_form_conditions,
    eigen_certificate,
    levitation_conditions,
    orbitron_conditions,
    reduced_hessian,
)

__all__ = ["main"]

COMMANDS = {
    "simulate": "integrate the reduced equations and write a trajectory CSV",
    "equilibrium": "solve for relative equilibria and write them as JSON",
    "certify": "run a stability certificate for one equilibrium",
    "scan": "sweep a parameter grid and write a CSV of certificates",
}
# Each flag belongs to one command and is parsed into an attribute named after that command.
FLAGS = {
    "--include-casimir-energy": (
        "simulate", "add the constant axial spin energy to reported energies"
    ),
    "--oracle": ("certify", "cross-check the verdict against the eigenvalue oracle"),
    "--refine": ("scan", "write a dipoletron_window's endpoints to <out>.endpoints.json; other kinds, only the CSV"),
}
CERTIFY_METHODS = ("closed_form", "orbitron", "levitation")

# Largest scans and runs a config may ask for; larger ones exhaust memory or never end.
MAX_SCAN_POINTS = 10**6
MAX_STEPS = 10**7

# Domain errors that mean "the requested solution does not exist" rather
# than a broken computation; they exit 0 with a reason field.
NO_SOLUTION_ERRORS = (
    NoEquilibrium,
    NoRealSolution,
    NegativeCentrifugal,
    BadSign,
    WrongFieldSign,
)


def fmt17(x: float, nonfinite: str = "nan") -> str:
    """The text of a Python float: 17 significant digits (shortest round-trip superset), in one step.

    Adding 0.0 turns -0 into 0, so the sign of a zero never shows.  inf and
    nan, where x - x is not 0, print as ``nonfinite``: "nan" in CSV, "null" in JSON.
    """
    return format(x + 0.0, ".17g") if x - x == 0.0 else nonfinite


def _scalar_text(x, nonfinite: str) -> str:
    """JSON and CSV text of a bool, int or float, numpy scalars too: fmt17, ``nonfinite`` for inf and nan."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt17(float(x), nonfinite)
    raise TypeError(f"cannot serialize {type(x).__name__}")


_json_str = json.encoder.encode_basestring_ascii  # what json.dumps writes for a str


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    return _json_str(x) if isinstance(x, str) else _scalar_text(x, "null")


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with all floats at 17 significant digits."""
    kind = type(obj)
    if kind is float:
        return fmt17(obj, "null")
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        sep = ",\n" + "  " * (indent + 1)
        if kind is dict:
            items = sep.join(f"{_json_str(str(k))}: {dumps17(v, indent + 1)}" for k, v in obj.items())
            return "{" + sep[1:] + items + "\n" + "  " * indent + "}"
        items = sep.join(dumps17(v, indent + 1) for v in obj)
        return "[" + sep[1:] + items + "\n" + "  " * indent + "]"
    return _json_scalar(obj)


def _csv_cell(v) -> str:
    if type(v) is float:  # most cells
        return fmt17(v)
    return v if isinstance(v, str) else _scalar_text(v, "nan")


def _csv_lines(header: list[str], rows):
    return (",".join(map(_csv_cell, row)) for row in itertools.chain([header], rows))


def _write_files(out: str, files: dict) -> None:
    """Write the lines of each file, each with a newline, to ``out`` + its suffix, once every path is open.

    A path that cannot be opened is a ConfigError, and removes the files this run created: every path is as it was.
    """
    opened = []  # (file, whether this run created it), --out first
    try:
        for suffix in files:
            try:
                opened.append((open(out + suffix, "x", encoding="utf-8", newline="\n"), True))
            except FileExistsError:  # opened to append, so it keeps its bytes until every path is open
                opened.append((open(out + suffix, "a", encoding="utf-8", newline="\n"), False))
    except OSError as exc:
        for fh, created in opened:
            fh.close()
            if created:
                os.remove(fh.name)
        raise ConfigError(f"cannot write {exc.filename}: {exc}") from exc
    for (fh, created), lines in zip(opened, files.values()):
        with fh:
            if not created and os.fstat(fh.fileno()).st_size:  # a pipe cannot be truncated, nor need it be
                fh.truncate(0)
            for line in lines:
                fh.write(line + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _size(value: int, limit: int, what: str) -> int:
    """A count the config asks for, which must lie in [1, limit]."""
    if value < 1:
        raise ConfigError(f"{what} must be at least 1")
    if value > limit:
        raise ConfigError(f"{what} must be at most {limit}")
    return value


def _one_of(sec: dict, keys: tuple, where: str) -> str:
    """The one key of ``keys`` that ``sec`` holds; none or more than one is a ConfigError."""
    present = [k for k in keys if k in sec]
    if len(present) != 1:
        raise ConfigError(f"{where} needs exactly one of {', '.join(map(repr, keys))}")
    return present[0]


def _body_from_config(cfg: dict) -> BodyParams:
    rec = require(cfg, "body", dict, "config")
    known = ("M", "I_perp", "I3", "mu", "g")
    unknown = set(rec) - set(known)
    if unknown:
        raise ConfigError(f"unknown body keys {sorted(unknown)}; known: {sorted(known)}")
    try:
        return BodyParams(**{k: require(rec, k, float, "body") for k in known})
    except ValueError as exc:
        raise ConfigError(f"bad body record: {exc}") from exc


def _model_from_config(cfg: dict) -> AxiFieldModel:
    return model_from_config(require(cfg, "field", dict, "config"))


def _vector(rec, key: str, where: str) -> np.ndarray:
    v = require(rec, key, list, where)
    if len(v) != 3:
        raise ConfigError(f"{where}.{key} must be a list of 3 numbers")
    return np.array([finite_float(c, f"{where}.{key}") for c in v])


def _solve_branch(spec: dict, model: AxiFieldModel, b: BodyParams, where: str) -> Equilibrium:
    """The solved branch at index ``spec["branch"]`` (default 0), which is read before the solve."""
    branch = require(spec, "branch", int, where, 0)
    eqs = _solve_from_spec(spec, model, b)
    if not 0 <= branch < len(eqs):
        raise ConfigError(
            f"{where}.branch = {branch} is out of range: the solver found {len(eqs)} branch(es)"
        )
    return eqs[branch]


def _levitation_setup(model: AxiFieldModel, b: BodyParams) -> None:
    """Raises ConfigError unless the field has exactly one linear part and g > 0."""
    split_levitation_model(model)
    if b.g <= 0.0:
        raise ConfigError("levitation requires g > 0 in the body record")


def _solve_from_spec(spec: dict, model: AxiFieldModel, b: BodyParams) -> list[Equilibrium]:
    """The branches the spec's solver finds, each time-reversed when ``negative_omega`` is true."""
    solver = require(spec, "solver", str, "equilibrium")
    negative_omega = require(spec, "negative_omega", bool, "equilibrium", False)
    if solver == "orbitron":
        r0 = require(spec, "r0", float, "equilibrium")
        pi0 = require(spec, "pi0", float, "equilibrium")
        sigma = require(spec, "sigma", int, "equilibrium", None)
        # Without an explicit sigma, one branch per admissible sign.
        eqs, errors = [], []
        for s in (1, -1) if sigma is None else (sigma,):
            try:
                eqs.append(solve_orbitron_equatorial(model, b, r0, pi0, s))
            except NO_SOLUTION_ERRORS as exc:
                errors.append(exc)
        if not eqs:  # then every sign failed: raise the first one's error
            raise errors[0]
    elif solver == "dipole":
        r0 = require(spec, "r0", float, "equilibrium")
        eqs = solve_dipole_equilibrium(model, b, r0, require(spec, "C2", float, "equilibrium"))
    elif solver == "levitation":
        given = require(spec, _one_of(spec, ("r0", "beta"), "equilibrium"), float, "equilibrium")
        _levitation_setup(model, b)  # before beta's radius search: g <= 0 fails alike on both routes
        r0 = given if "r0" in spec else radius_for_beta(model, given)
        eqs = [solve_levitation_equilibrium(model, b, r0)]
    else:
        raise ConfigError(f"unknown solver {solver!r}")
    return [eq.time_reversed() for eq in eqs] if negative_omega else eqs


TRAJECTORY_HEADER = ["t", *(f"{v}{i}" for v in ("x", "p", "nu", "pi") for i in (1, 2, 3)), "h", "J3", "C1", "C2"]


def cmd_simulate(cfg: dict, b: BodyParams, sec: dict, include_casimir: bool) -> dict:
    model = _model_from_config(cfg)
    V = DipolePotential(model, b)
    # The integrator settings are checked before any solve, so a malformed
    # section exits 2 whether or not the equilibrium exists.  A missing dt
    # stands in as 1 until the orbit rate is known.
    dt = require(sec, "dt", float, "simulate", None)
    icfg = IntegratorConfig(
        dt=1.0 if dt is None else dt,
        steps=_size(require(sec, "steps", int, "simulate"), MAX_STEPS, "simulate.steps"),
        scheme=require(sec, "scheme", str, "simulate", "rk4"),
        record_every=require(sec, "record_every", int, "simulate", 1),
    )

    eq = None
    if _one_of(sec, ("state", "from_equilibrium"), "simulate") == "state":
        rec = require(sec, "state", dict, "simulate")
        s0 = ReducedState(
            x=_vector(rec, "x", "state"),
            p=_vector(rec, "p", "state"),
            nu=_vector(rec, "nu", "state"),
            pi=_vector(rec, "pi", "state"),
        )
    else:
        spec = require(sec, "from_equilibrium", dict, "simulate")
        try:
            eq = _solve_branch(spec, model, b, "simulate.from_equilibrium")
        except NO_SOLUTION_ERRORS as exc:
            return {"": _csv_lines(TRAJECTORY_HEADER, []), ".summary.json": [dumps17({"reason": type(exc).__name__})]}
        s0 = build_support_state(eq)

    if dt is None:
        # One period resolved by 2000 steps when the rotation rate is known,
        # otherwise a fixed 1 ms default.
        dt = 1e-3 if eq is None else (2.0 * math.pi / abs(eq.mult.omega)) / 2000.0
        icfg = replace(icfg, dt=finite_float(dt, "simulate.dt"))
    samples = integrate(s0, icfg, b, V, include_casimir=include_casimir)
    # Python floats, not numpy scalars, so that every cell takes _csv_cell's float path
    rows = ([s.t, *s.state.as_vector().tolist(), s.h, s.J3, s.C1, s.C2] for s in samples)

    q0 = {name: getattr(samples[0], name) for name in ("h", "J3", "C1", "C2")}
    drift = {name: max(abs(getattr(s, name) - q) for s in samples) / max(1.0, abs(q)) for name, q in q0.items()}
    summary = {"max_drift": drift, "steps": icfg.steps, "dt": icfg.dt}
    if eq is not None:
        last = samples[-1]
        ref = relative_equilibrium_orbit(eq, last.t).as_vector()
        got = last.state.as_vector()
        summary["final_state_deviation"] = float(
            max(abs(g - r) / max(1.0, abs(r)) for g, r in zip(got, ref))
        )
    return {"": _csv_lines(TRAJECTORY_HEADER, rows), ".summary.json": [dumps17(summary)]}


def cmd_equilibrium(cfg: dict, b: BodyParams, sec: dict, _flag: bool) -> dict:
    try:
        eqs = _solve_from_spec(sec, _model_from_config(cfg), b)
    except NO_SOLUTION_ERRORS as exc:
        return {"": [dumps17({"equilibria": [], "reason": type(exc).__name__})]}
    return {"": [dumps17({"equilibria": [eq.to_record() for eq in eqs]})]}


def cmd_certify(cfg: dict, b: BodyParams, sec: dict, oracle: bool) -> dict:
    model = _model_from_config(cfg)
    spec = require(sec, "equilibrium", dict, "certify")
    method = require(sec, "method", str, "certify", "closed_form")
    if method not in CERTIFY_METHODS:
        raise ConfigError(f"unknown certify method {method!r}")
    if method == "levitation":
        _levitation_setup(model, b)
    try:
        eq = _solve_branch(spec, model, b, "certify.equilibrium")
    except NO_SOLUTION_ERRORS as exc:
        return {"": [dumps17({"certificate": None, "reason": type(exc).__name__})]}

    blocks = hessian_blocks(eq.r0, eq.nu0, model, b) if method == "closed_form" or oracle else None
    Q = reduced_hessian(eq, b, blocks) if oracle else None  # built once, for the sweep and the oracle
    if method == "closed_form":
        cert = closed_form_conditions(eq, b, blocks, Q)
    elif method == "orbitron":
        cert = orbitron_conditions(eq, b, model)
    else:
        cert = levitation_conditions(eq, b, model)

    result = {"equilibrium": eq.to_record(), "certificate": cert.to_record()}
    if oracle:
        eig = eigen_certificate(Q)
        result["eigen"] = {
            "verdict": eig.verdict,
            "lambda_min": eig.eigenvalues[0],
            "margin": eig.margin,
            "agrees": eig.verdict == cert.verdict,
        }
    return {"": [dumps17(result)]}


def cmd_scan(cfg: dict, b: BodyParams, sec: dict, refine: bool) -> dict:
    kind = require(sec, "kind", str, "scan")
    sidecars = {}
    if kind == "dipoletron_window":
        q = require(sec, "q", float, "scan")
        h = require(sec, "h", float, "scan")
        ratio_range = require(sec, "ratio_range", list, "scan", [0.3, 1.5])
        if len(ratio_range) != 2:
            raise ConfigError("scan.ratio_range must be a list of exactly 2 numbers")
        ratio_range = tuple(finite_float(x, "scan.ratio_range") for x in ratio_range)
        if not ratio_range[0] < ratio_range[1]:
            raise ConfigError("scan.ratio_range must be increasing")
        n = _size(require(sec, "n", int, "scan", 121), MAX_SCAN_POINTS, "scan.n")
        sigma = require(sec, "sigma", int, "scan", 1)
        rows = dipoletron_window(q, h, b, ratio_range=ratio_range, n=n, sigma=sigma)
        if refine:
            sidecars[".endpoints.json"] = [dumps17(dict(zip(("lower", "upper"), window_endpoints(sigma, ratio_range))))]
    elif kind == "levitation_sweep":
        model = _model_from_config(cfg)
        kappas = require(sec, "kappa_values", list, "scan")
        _size(len(kappas), MAX_SCAN_POINTS, "the length of scan.kappa_values")
        kappas = [finite_float(k, "scan.kappa_values") for k in kappas]
        rows = levitation_sweep(model, b, kappas, require(sec, "beta", float, "scan"))
    elif kind == "stability_map":
        model = _model_from_config(cfg)

        def axis(rec: dict, where: str) -> ScanAxis:
            return ScanAxis(
                name=require(rec, "name", str, where),
                lo=require(rec, "lo", float, where),
                hi=require(rec, "hi", float, where),
                n=require(rec, "n", int, where),
            )

        fixed = require(sec, "fixed", dict, "scan", {})
        spec = ScanSpec(
            axis1=axis(require(sec, "axis1", dict, "scan"), "scan.axis1"),
            axis2=axis(require(sec, "axis2", dict, "scan"), "scan.axis2"),
            fixed={k: finite_float(v, f"scan.fixed.{k}") for k, v in fixed.items()},
        )
        _size(spec.axis1.n * spec.axis2.n, MAX_SCAN_POINTS, "scan.axis1.n * scan.axis2.n")
        rows = stability_map(spec, model, b)
    else:
        raise ConfigError(f"unknown scan kind {kind!r}")

    # Every row holds the same keys in the same order, so its values are the CSV cells.
    return {"": _csv_lines(list(rows[0]), (row.values() for row in rows)), **sidecars}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitron",
        description="Relative equilibria and stability certificates for a magnetized top",
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, help="\n".join(f"{c}: {h}" for c, h in COMMANDS.items())
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", required=True, help="output file path")
    for flag, (command, helptext) in FLAGS.items():
        parser.add_argument(flag, action="store_true", dest=command, help=f"{command}: {helptext}")
    return parser


# Built once per process: building costs more than parsing, and parsing leaves it unchanged.
_PARSER = _parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    for flag, (command, _) in FLAGS.items():
        if getattr(args, command) and command != args.command:
            _PARSER.error(f"{flag} belongs to the {command} command, not {args.command}")
    try:
        cfg = _load_config(args.config)
        task = _one_of(cfg, tuple(COMMANDS), "config")
        if task != args.command:
            raise ConfigError(
                f"config has a {task!r} section but the {args.command!r} command was invoked"
            )
        b = _body_from_config(cfg)
        sec = require(cfg, task, dict, "config")
        run = {"simulate": cmd_simulate, "equilibrium": cmd_equilibrium,
               "certify": cmd_certify, "scan": cmd_scan}[task]
        _write_files(args.out, run(cfg, b, sec, getattr(args, task, False)))
        return 0
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OrbitronError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
