"""Span tracing of orbitron's public functions, installed from outside the package.

``install`` rebinds each traced function wherever the package holds a
reference to it (the defining module, every module that imported the name,
and the package root) and each traced ``DipolePotential`` method on the
class.  The wrappers append one span per call to flat in-memory arrays: name,
start, end, parent span and the benchmark call the span belongs to.
``uninstall`` puts the originals back.

Self time is a span's duration minus the durations of its direct children,
so the self times of all spans add up to the total duration of the root
spans.  A recursive call of a function from inside itself (``eval_jet`` on a
composite field) stays inside the outer span rather than opening a new one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, function or Class.method) under orbitron; metric names are
# "<module>.<function>.calls" and "<module>.<function>.self_s".
TRACED = (
    ("fields", "eval_jet"),
    ("potential", "DipolePotential.grad_x"),
    ("potential", "DipolePotential.grad_nu"),
    ("potential", "hessian_blocks"),
    ("core", "hamiltonian"),
    ("dynamics", "integrate"),
    ("dynamics", "distance_to_orbit"),
    ("equilibrium", "solve_orbitron_equatorial"),
    ("equilibrium", "solve_dipole_equilibrium"),
    ("equilibrium", "solve_levitation"),
    ("equilibrium", "build_levitation_equilibrium"),
    ("stability", "reduced_hessian"),
    ("stability", "isolated_squares_reduce"),
    ("stability", "closed_form_conditions"),
    ("stability", "orbitron_conditions"),
    ("stability", "levitation_conditions"),
    ("stability", "eigen_certificate"),
    ("scan", "stability_map"),
    ("scan", "window_endpoints"),
    ("scan", "radius_for_beta"),
    ("scan", "dipoletron_window"),
    ("scan", "levitation_sweep"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.call_id = -1  # the benchmark call in progress, set by the run loop

    def wrap(self, nid: int, fn):
        name, parent, call, start, end, stack = (
            self.name,
            self.parent,
            self.call,
            self.start,
            self.end,
            self.stack,
        )
        tracer = self

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name[top] == nid:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(top)
            call.append(tracer.call_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return functools.wraps(fn)(traced)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "call": np.frombuffer(self.call, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(SPAN_NAMES), **self.arrays())


def install(tracer: Tracer) -> list:
    """Rebind every traced name to its wrapper; returns the undo list."""
    undo = []
    for nid, (mod_name, qual) in enumerate(TRACED):
        mod = importlib.import_module(f"orbitron.{mod_name}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(mod, cls_name)
            orig = owner.__dict__[attr]
            targets = [owner]
        else:
            attr = qual
            orig = getattr(mod, attr)
            targets = [
                m
                for key, m in list(sys.modules.items())
                if (key == "orbitron" or key.startswith("orbitron.")) and getattr(m, attr, None) is orig
            ]
        wrapped = tracer.wrap(nid, orig)
        for target in targets:
            undo.append((target, attr, orig))
            setattr(target, attr, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for target, attr, orig in reversed(undo):
        setattr(target, attr, orig)


def layer_metrics(tracer: Tracer, wall_s: float, cells: int, steps: int, certified: int) -> dict:
    """Per-layer counts, self times and ratios from the recorded spans.

    ``wall_s`` is the summed duration of the traced benchmark calls; the
    part of it outside every span is reported as ``bench.other_s``.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    k = len(SPAN_NAMES)
    calls = np.bincount(name, minlength=k)
    self_tot = np.bincount(name, weights=self_s, minlength=k)

    out: dict[str, tuple[float, str]] = {}
    for nid, span in enumerate(SPAN_NAMES):
        out[f"{span}.calls"] = (int(calls[nid]), "count")
        out[f"{span}.self_s"] = (float(self_tot[nid]), "s")
    out["bench.traced_wall_s"] = (wall_s, "s")
    out["bench.other_s"] = (wall_s - float(dur[~has_parent].sum()), "s")

    # Gradient evaluations (one field jet each) made by the RK4 loop, per step.
    under = _under(name, parent, SPAN_NAMES.index("dynamics.integrate"))
    grads = np.isin(name, [SPAN_NAMES.index(f"potential.DipolePotential.{g}") for g in ("grad_x", "grad_nu")])
    out["potential.jets_per_step"] = (_ratio(int(np.sum(grads & under)), steps), "jets/step")
    jets_in_map = np.sum((name == SPAN_NAMES.index("fields.eval_jet")) & _under(name, parent, SPAN_NAMES.index("scan.stability_map")))
    out["fields.eval_jet.calls_per_cell"] = (_ratio(int(jets_in_map), cells), "calls/cell")
    out["map.certified_frac"] = (_ratio(certified, cells), "frac")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _under(name: np.ndarray, parent: np.ndarray, ancestor: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    flag = np.zeros(len(name), dtype=bool)
    p = parent.copy()
    live = p >= 0
    while live.any():
        flag[live] |= name[p[live]] == ancestor
        p[live] = parent[p[live]]
        live = p >= 0
    return flag
