"""The three benchmark workloads: input pools, seeded selection, calls, checks.

Each workload draws its inputs from a pool stored in ``pools/<name>.json.gz``.
A pool entry holds the generated input and the reference outcome that the
library produced for it when the pool was made (see ``make_refs.py``).  The
run's seed picks which entries are used and in what order; the library only
ever sees the generated inputs.

A workload is driven in blocks.  Every block has the same composition (the
same number of inputs of each kind), so different seeds load the layers in
the same proportions.  The blocks of one cycle run every pool entry; the
seed orders the entries, and a run repeats the cycle (see README.md).

Interface of a workload object:

- ``generate(rng)``: the pool inputs (used only by ``make_refs.py``);
- ``cycle(entries, seed)``: the blocks (lists of pool indices) of one cycle;
- ``prepare(inp)``: build the library objects or config files for one input;
- ``call(case)``: the timed call into the library;
- ``outcome(case, raw)``: the call's result in the reference's JSON form;
- ``compare(entry, got)``: ``(units attempted, units failed)``;
- ``work(case, got)``: scan cells, certified cells and RK4 steps the call did.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orbitron import cli, core, dynamics, equilibrium, fields, potential, scan

# Reference comparison: |got - ref| <= RTOL * max(|got|, |ref|) + ATOL.  The
# values compared are O(1e-4) to O(1e3); ATOL absorbs residuals and exact
# zeros that sit at the rounding floor.
RTOL = 1e-9
ATOL = 1e-12

# Criterion 4's bound on the relative drift of h, J3 and C2.
DRIFT_BOUND = 1e-8

BODY = {"M": 1.0, "I_perp": 0.1, "I3": 0.05, "mu": 1.0, "g": 0.0}


def _norm(x):
    """Recursively make a result JSON-safe: floats stay floats, non-finite
    floats become the strings 'nan', 'inf' and '-inf'."""
    if isinstance(x, dict):
        return {str(k): _norm(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_norm(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        return x if math.isfinite(x) else repr(x)
    return x


def close(got: float, ref: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(got - ref) <= rtol * max(abs(got), abs(ref)) + atol


def same(got, ref) -> bool:
    """Deep equality of two normalized results; floats compared by ``close``."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return got is ref
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return close(float(got), float(ref))
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(same(got[k], ref[k]) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(same(g, r) for g, r in zip(got, ref))
    return got == ref


def _model(parts: list[dict]) -> fields.AxiFieldModel:
    if len(parts) == 1:
        return fields.model_from_config(parts[0])
    return fields.model_from_config({"type": "composite", "parts": parts})


def _pair(q: float = 1.0, h: float = 1.0) -> dict:
    return {"type": "dipole_pair", "q": q, "h": h}


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# --------------------------------------------------------------------------
# map: repeated stability_map calls


@dataclass(frozen=True)
class MapCase:
    spec: scan.ScanSpec
    model: fields.AxiFieldModel
    body: core.BodyParams
    cells: int


class MapWorkload:
    """stability_map over (r0, pi0) grids at sigma = +1.

    Half the pool uses the unit dipole pair, half a dipole+dipole composite.
    r0 runs from inside the stability window, through the unstable band, to
    past the radius where Bz_r changes sign; the cells beyond it (20-25 %)
    end in WrongFieldSign.
    """

    name = "map"
    unit = "cell"
    N = 40  # grid points per axis: 1600 cells per call, the size ROADMAP.md measures

    def generate(self, rng: np.random.Generator) -> list[dict]:
        out = []
        for k in range(32):
            if k % 2 == 0:
                kind, parts = "pair", [_pair()]
            else:
                kind = "composite"
                parts = [_pair(), _pair(_u(rng, 0.2, 0.4), _u(rng, 1.4, 1.8))]
            edge = _existence_edge(_model(parts))
            lo = _u(rng, 0.55, 0.65)
            share = _u(rng, 0.2, 0.25)
            hi = (edge - share * lo) / (1.0 - share)
            out.append(
                {
                    "kind": kind,
                    "parts": parts,
                    "r0": [lo, hi, self.N],
                    "pi0": [_u(rng, 2.0, 4.0), _u(rng, 16.0, 24.0), self.N],
                    "sigma": 1,
                }
            )
        return out

    def cycle(self, entries: list[dict], seed: int) -> list[list[int]]:
        """Blocks of one dipole-pair and one composite grid, each kind in a
        seeded order."""
        rng = random.Random(seed)
        by_kind = []
        for kind in ("pair", "composite"):
            ids = [i for i, e in enumerate(entries) if e["input"]["kind"] == kind]
            by_kind.append(rng.sample(ids, len(ids)))
        return [list(b) for b in zip(*by_kind)]

    def prepare(self, inp: dict) -> MapCase:
        spec = scan.ScanSpec(
            axis1=scan.ScanAxis("r0", *inp["r0"]),
            axis2=scan.ScanAxis("pi0", *inp["pi0"]),
            fixed={"sigma": float(inp["sigma"])},
        )
        return MapCase(spec, _model(inp["parts"]), core.BodyParams(**BODY), inp["r0"][2] * inp["pi0"][2])

    def call(self, case: MapCase):
        return scan.stability_map(case.spec, case.model, case.body)

    def outcome(self, case: MapCase, rows) -> dict:
        cols = ("verdict", "error", "margin", "A", "B", "C")
        return _norm({c: [row[c] for row in rows] for c in cols})

    def compare(self, entry: dict, got: dict) -> tuple[int, int]:
        ref = entry["ref"]
        n = len(ref["verdict"])
        if any(len(got[c]) != n for c in ref):
            return n, n
        bad = sum(not all(same(got[c][i], ref[c][i]) for c in ref) for i in range(n))
        return n, bad

    def work(self, case: MapCase, got: dict) -> tuple[int, int, int]:
        return case.cells, sum(v != "" for v in got["verdict"]), 0


def _existence_edge(model) -> float:
    """Smallest r > 0.5 where Bz_r turns non-negative (end of the sigma=+1 branch)."""
    lo, hi = 0.5, 0.5
    while fields.eval_jet(model, hi, 0.0).Bz_r < 0.0:
        lo, hi = hi, hi + 0.25
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if fields.eval_jet(model, mid, 0.0).Bz_r < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# ensemble: perturbed equatorial orbits, one integrate call per trajectory


@dataclass(frozen=True)
class EnsembleCase:
    inp: dict
    model: fields.AxiFieldModel
    body: core.BodyParams
    dirs: tuple


class EnsembleWorkload:
    """Trajectories from seeded 1e-4 perturbations of equatorial dipole-pair orbits.

    Half start inside the stability window (0.65 <= r0 <= 0.92), half outside
    it (1.05 <= r0 <= 1.35); half use rk4, half rk4_projected.  The step is
    0.004-0.008 / omega, which keeps the spin precession (pi0 / I_perp, up to
    120 rad per unit time) below 1.6 rad per step.  Each call solves the
    equilibrium, integrates, and measures distance_to_orbit on every
    recorded sample, as acceptance criterion 8 does.
    """

    name = "ensemble"
    unit = "trajectory"
    STEPS = 200
    RECORD_EVERY = 10
    REL = 1e-4
    PER_GROUP = 2  # trajectories per (inside/outside, scheme) group in a block: K = 8

    def generate(self, rng: np.random.Generator) -> list[dict]:
        out = []
        for k in range(128):
            inside = k % 2 == 0
            dirs = rng.standard_normal((4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            out.append(
                {
                    "inside": inside,
                    "scheme": ("rk4", "rk4_projected")[(k // 2) % 2],
                    "r0": _u(rng, 0.65, 0.92) if inside else _u(rng, 1.05, 1.35),
                    "pi0": _u(rng, 8.0, 12.0),
                    "sigma": 1,
                    "dt_periods": _u(rng, 0.004, 0.008) / (2.0 * math.pi),
                    "steps": self.STEPS,
                    "record_every": self.RECORD_EVERY,
                    "rel": self.REL,
                    "dirs": dirs.tolist(),
                }
            )
        return out

    def cycle(self, entries: list[dict], seed: int) -> list[list[int]]:
        """Blocks of PER_GROUP trajectories from each (inside/outside, scheme)
        group, each group in a seeded order; the calls of a block are
        shuffled."""
        rng = random.Random(seed)
        groups = []
        for key in itertools.product((True, False), ("rk4", "rk4_projected")):
            ids = [i for i, e in enumerate(entries) if (e["input"]["inside"], e["input"]["scheme"]) == key]
            groups.append(rng.sample(ids, len(ids)))
        blocks = []
        for k in range(0, len(groups[0]), self.PER_GROUP):
            block = [i for ids in groups for i in ids[k : k + self.PER_GROUP]]
            rng.shuffle(block)
            blocks.append(block)
        return blocks

    def prepare(self, inp: dict) -> EnsembleCase:
        dirs = tuple(np.array(d) for d in inp["dirs"])
        return EnsembleCase(inp, _model([_pair()]), core.BodyParams(**BODY), dirs)

    def call(self, case: EnsembleCase):
        inp, b = case.inp, case.body
        eq = equilibrium.solve_orbitron_equatorial(case.model, b, inp["r0"], inp["pi0"], inp["sigma"])
        s = equilibrium.build_support_state(eq)
        parts = [
            v + inp["rel"] * max(float(np.linalg.norm(v)), 1.0) * d
            for v, d in zip((s.x, s.p, s.nu, s.pi), case.dirs)
        ]
        period = 2.0 * math.pi / abs(eq.mult.omega)
        cfg = dynamics.IntegratorConfig(
            dt=inp["dt_periods"] * period,
            steps=inp["steps"],
            scheme=inp["scheme"],
            record_every=inp["record_every"],
        )
        V = potential.DipolePotential(case.model, b)
        samples = dynamics.integrate(core.ReducedState(*parts), cfg, b, V)
        dmax = max(dynamics.distance_to_orbit(x.state, eq) for x in samples)
        return samples, dmax

    def outcome(self, case: EnsembleCase, raw) -> dict:
        samples, dmax = raw
        first = samples[0]
        drift = {
            n: max(abs(getattr(x, n) - getattr(first, n)) for x in samples) / max(1.0, abs(getattr(first, n)))
            for n in ("h", "J3", "C2")
        }
        return _norm(
            {
                "samples": len(samples),
                "final": samples[-1].state.as_vector().tolist(),
                "max_distance": dmax,
                "drift": drift,
            }
        )

    def compare(self, entry: dict, got: dict) -> tuple[int, int]:
        ref = entry["ref"]
        ok = (
            got["samples"] == ref["samples"]
            and same(got["final"], ref["final"])
            and close(got["max_distance"], ref["max_distance"], rtol=1e-7)
            and all(got["drift"][n] <= DRIFT_BOUND for n, r in ref["drift"].items() if r <= DRIFT_BOUND)
        )
        return 1, int(not ok)

    def work(self, case: EnsembleCase, got: dict) -> tuple[int, int, int]:
        return 0, 0, case.inp["steps"]


# --------------------------------------------------------------------------
# cli: single in-process orbitron.cli.main calls on JSON configs


@dataclass(frozen=True)
class CliCase:
    argv: list
    out: Path
    steps: int


# Slots of one 20-call round: (category, count).  Most calls are certify
# --oracle and equilibrium calls; scans and simulate runs are a minority;
# one call per round is a config outside the documented contract.
ROUND = (
    ("cert_orbitron_orbitron", 3),
    ("cert_orbitron_closed", 2),
    ("cert_dipole_closed", 2),
    ("cert_levitation_levitation", 2),
    ("cert_levitation_closed", 1),
    ("eq_orbitron", 2),
    ("eq_dipole", 2),
    ("eq_levitation_r0", 1),
    ("eq_levitation_beta", 1),
    ("scan_window", 1),
    ("scan_sweep", 1),
    ("simulate", 1),
    ("bad", 1),
)

# Out-of-contract configs and the exit code the documented contract gives
# them: 2, a configuration error.
BAD_KINDS = ("bad_field", "bad_nan_r0", "bad_branch")


class CliWorkload:
    """A seeded mix of configs run through in-process ``orbitron.cli.main``."""

    name = "cli"
    unit = "call"
    VARIANTS = 24  # pool configs per category, a third of them per kind for 'bad'

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, rng: np.random.Generator) -> list[dict]:
        out = []
        for cat, _ in ROUND:
            kinds = BAD_KINDS if cat == "bad" else (cat,)
            for kind in kinds:
                for _ in range(self.VARIANTS // len(kinds)):
                    out.append(dict(_cli_config(kind, rng), id=len(out)))
        return out

    def cycle(self, entries: list[dict], seed: int) -> list[list[int]]:
        """As many rounds of the ROUND composition as the pool has configs
        per category, so that a category with c slots per round meets each
        of its configs c times.  The seed orders the configs of each
        category, and the calls within each round."""
        by_cat: dict[str, list[int]] = {}
        for i, e in enumerate(entries):
            by_cat.setdefault(e["input"]["category"], []).append(i)
        by_cat["bad"] = [i for kind in BAD_KINDS for i in by_cat.get(kind, [])]
        n = len(by_cat["bad"])
        assert all(len(by_cat[cat]) == n for cat, _ in ROUND), "every category needs as many configs"
        rng = random.Random(seed)
        queues = {cat: [i for _ in range(count) for i in rng.sample(by_cat[cat], n)] for cat, count in ROUND}
        rounds = []
        for r in range(n):
            calls = [queues[cat][r * count + k] for cat, count in ROUND for k in range(count)]
            rng.shuffle(calls)
            rounds.append(calls)
        return rounds

    def prepare(self, inp: dict) -> CliCase:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"{inp['id']}.json"
        path.write_text(json.dumps(inp["config"]), encoding="utf-8")
        out = self.workdir / "out.dat"
        argv = [inp["command"], "--config", str(path), "--out", str(out), *inp["flags"]]
        return CliCase(argv, out, inp["config"].get("simulate", {}).get("steps", 0))

    def call(self, case: CliCase):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(case.argv)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # an escaped exception is a contract breach, not a crash of the run
                return f"exception:{type(exc).__name__}"

    def outcome(self, case: CliCase, code) -> dict:
        """Exit code and parsed output files; the files are removed so the
        next call starts without them."""
        files = {}
        for p in _outputs(case.out):
            text = p.read_text(encoding="utf-8")
            p.unlink()
            suffix = p.name[len(case.out.name):] or "out"
            files[suffix] = json.loads(text) if text.lstrip().startswith("{") else _csv_summary(text)
        return _norm({"exit": code, "files": files})

    def compare(self, entry: dict, got: dict) -> tuple[int, int]:
        ref = entry["ref"]
        if not entry["input"]["contract"]:
            return 1, int(got["exit"] != ref["exit"])
        return 1, int(not same(got, ref))

    def work(self, case: CliCase, got: dict) -> tuple[int, int, int]:
        return 0, 0, case.steps if got["exit"] == 0 else 0


def _outputs(out: Path) -> list[Path]:
    return [p for p in (out, Path(f"{out}.summary.json"), Path(f"{out}.endpoints.json")) if p.exists()]


def _csv_summary(text: str) -> dict:
    """A CSV output as header, row count and the parsed rows (the last row only
    for long trajectories)."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]

    def cell(v: str):
        try:
            return float(v)
        except ValueError:
            return v

    parsed = [[cell(v) for v in row] for row in (body if len(body) <= 64 else body[-1:])]
    return {"header": header, "n_rows": len(body), "rows": parsed}


def _cli_config(kind: str, rng: np.random.Generator) -> dict:
    """One generated CLI input: command, flags, config, and whether it is
    inside the documented contract."""
    lev_bp = 3.0
    kappa = _u(rng, 1.0005, 1.2)
    lev_field = {"type": "composite", "parts": [{"type": "linear", "B0": 1.0, "Bprime": lev_bp}, _pair()]}
    lev_body = dict(BODY, g=kappa * lev_bp)
    orbit = {"solver": "orbitron", "r0": _u(rng, 0.5, 1.5), "pi0": _u(rng, 5.0, 20.0), "sigma": 1}
    command, flags, body, field, contract = "certify", ["--oracle"], BODY, _pair(), True
    if kind == "cert_orbitron_orbitron":
        task = {"method": "orbitron", "equilibrium": orbit}
    elif kind == "cert_orbitron_closed":
        task = {"method": "closed_form", "equilibrium": orbit}
    elif kind == "cert_dipole_closed":
        body, field = lev_body, lev_field
        task = {"method": "closed_form", "equilibrium": {"solver": "dipole", "r0": _u(rng, 0.6, 1.0), "C2": _u(rng, 0.5, 2.0)}}
    elif kind.startswith("cert_levitation"):
        body, field = lev_body, lev_field
        method = "levitation" if kind.endswith("levitation") else "closed_form"
        task = {"method": method, "equilibrium": {"solver": "levitation", "r0": _u(rng, 0.7, 0.9)}}
    elif kind.startswith("eq_"):
        command, flags = "equilibrium", []
        if kind == "eq_orbitron":
            task = {k: v for k, v in orbit.items() if k != "sigma" or rng.random() < 0.5}
        elif kind == "eq_dipole":
            body, field = lev_body, lev_field
            task = {"solver": "dipole", "r0": _u(rng, 0.6, 1.0), "C2": _u(rng, 0.5, 2.0)}
        else:
            body, field = lev_body, lev_field
            spec = {"r0": _u(rng, 0.7, 0.9)} if kind == "eq_levitation_r0" else {"beta": _u(rng, -1.1, -0.7)}
            task = {"solver": "levitation", **spec}
    elif kind == "scan_window":
        command, flags = "scan", ["--refine"]
        task = {"kind": "dipoletron_window", "q": _u(rng, 0.8, 1.2), "h": _u(rng, 0.8, 1.2), "n": 41}
    elif kind == "scan_sweep":
        command, flags, body, field = "scan", [], lev_body, lev_field
        kappas = sorted(_u(rng, 1.0005, 1.5) for _ in range(4))
        task = {"kind": "levitation_sweep", "kappa_values": kappas, "beta": _u(rng, -1.0, -0.8)}
    elif kind == "simulate":
        command, flags = "simulate", []
        task = {
            "from_equilibrium": dict(orbit, r0=_u(rng, 0.6, 1.2)),
            "steps": 150,
            "record_every": 10,
            "scheme": ("rk4", "rk4_projected")[int(rng.integers(2))],
        }
    elif kind == "bad_field":
        contract, field = False, {"type": "quadrupole", "q": 1.0}
        task = {"method": "closed_form", "equilibrium": orbit}
    elif kind == "bad_nan_r0":
        command, flags, contract = "equilibrium", [], False
        task = dict(orbit, r0=math.nan)
    elif kind == "bad_branch":
        contract = False
        task = {"method": "closed_form", "equilibrium": dict(orbit, branch=int(rng.integers(2, 6)))}
    else:
        raise ValueError(kind)
    return {
        "category": kind,
        "command": command,
        "flags": flags,
        "contract": contract,
        "config": {"body": body, "field": field, command: task},
    }


def make(name: str, root: Path):
    """The workload object for ``name``; scratch files go under ``root``."""
    if name == "map":
        return MapWorkload()
    if name == "ensemble":
        return EnsembleWorkload()
    if name == "cli":
        return CliWorkload(root / ".bench_tmp" / "cli")
    raise KeyError(name)


WORKLOADS = ("map", "ensemble", "cli")
