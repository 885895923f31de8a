"""Run one orbitron benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {map,ensemble,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; orbitron is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  The line before it gives the environment and the figures
behind the metrics; the same record goes to ``.bench_out/``.

The loop is closed: each call starts after the previous one returned and
was checked.  Calls run in blocks of fixed composition; a cycle of blocks
runs every input of the pool.  One block runs first, untimed, as a warm-up;
the timed run then stops at the first block boundary after ``--seconds``
once it has run a whole cycle.  A host-speed probe runs between calls, and
each call's time is scaled by the probes around it.  See README.md for the
workloads, the metrics and how the timings are reduced.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 11  # fresh-interpreter setups per run, spread over the run; the median counts
PROBE_EVERY_S = 0.2  # least time between two host-speed probes
TRACE_UNTRACED_SHARE = 0.4  # of --seconds, for the untraced half of a traced run


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("map", "ensemble", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pool", type=Path, help="pool file to use instead of pools/<workload>.json.gz")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import orbitron, load the pool and build the run's inputs.

    Returns the workload, the pool entries, the prepared cases, the blocks
    of one cycle and the times of the steps: ``import_s`` (orbitron and
    numpy) and ``prepare_s`` (building the library objects and config files
    of the inputs) are the program's set-up; ``decode_s`` (reading the pool
    and its references) is the benchmark's own.
    """
    t0 = time.perf_counter()
    env.import_orbitron()
    import workloads

    t1 = time.perf_counter()
    wl = workloads.make(args.workload, ROOT)
    with gzip.open(args.pool or HERE / "pools" / f"{args.workload}.json.gz", "rt", encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    cycle = wl.cycle(entries, args.seed)
    t2 = time.perf_counter()
    cases = {i: wl.prepare(entries[i]["input"]) for block in cycle for i in block}
    t3 = time.perf_counter()
    # The pool's references are the benchmark's data, not the program's: keep
    # them out of the cyclic collector's reach so they add nothing to its work.
    gc.collect()
    gc.freeze()
    steps = {"import_s": t1 - t0, "decode_s": t2 - t1, "prepare_s": t3 - t2}
    return wl, entries, cases, cycle, steps


def time_setup(args) -> dict:
    """Set-up step times of a fresh interpreter that only runs ``setup``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    if args.pool:
        cmd += ["--pool", str(args.pool)]
    out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


class Tally:
    """Attempted and failed units per input, and the work done (scan cells,
    certified cells, RK4 steps) over all calls.

    Every call is checked, but each input counts once: its units are
    attempted once, and failed as often as its worst call failed them.  As
    every run covers the whole pool, ``attempted`` and ``failed`` do not
    depend on how many calls fitted in the run.
    """

    def __init__(self) -> None:
        self.calls = self.cells = self.certified = self.steps = 0
        self.units: dict[int, int] = {}
        self.bad: dict[int, int] = {}

    def check(self, idx: int, attempted: int, failed: int) -> None:
        self.units[idx] = attempted
        self.bad[idx] = max(self.bad.get(idx, 0), failed)

    def add(self, other: "Tally") -> None:
        for k in ("calls", "cells", "certified", "steps"):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        self.units.update(other.units)
        for idx, failed in other.bad.items():
            self.bad[idx] = max(self.bad.get(idx, 0), failed)

    @property
    def attempted(self) -> int:
        return sum(self.units.values())

    @property
    def failed(self) -> int:
        return sum(self.bad.values())

    def failed_inputs(self, entries, contract: bool) -> list[int]:
        return sorted(i for i, f in self.bad.items() if f and entries[i]["input"].get("contract", True) == contract)


def run_blocks(wl, entries, cases, cycle, tally, first=0, seconds=None, n_blocks=None, tracer=None, host=None,
               between=None):
    """Run the cycle's blocks in turn, from block ``first``, until ``n_blocks``
    ran, or until ``seconds`` have passed and the whole cycle ran.

    Returns ``(pool index, call number, duration)`` of every call, numbered
    by ``host`` when given, and the number of blocks run.  ``between()`` runs
    after each block, outside the timed calls.
    """
    calls: list[tuple[int, int, float]] = []
    t_start = time.perf_counter()
    n = 0
    while n_blocks is None or n < n_blocks:
        for idx in cycle[(first + n) % len(cycle)]:
            case = cases[idx]
            if tracer is not None:
                tracer.call_id += 1
            t0 = time.perf_counter()
            raw = wl.call(case)
            t1 = time.perf_counter()
            calls.append((idx, host.call_done() if host is not None else len(calls), t1 - t0))
            got = wl.outcome(case, raw)
            tally.calls += 1
            tally.check(idx, *wl.compare(entries[idx], got))
            cells, certified, steps = wl.work(case, got)
            tally.cells += cells
            tally.certified += certified
            tally.steps += steps
        n += 1
        if between is not None:
            between()
        if seconds is not None and n >= len(cycle) and time.perf_counter() - t_start >= seconds:
            break
    return calls, n


def quantile(values: list[float], q: float) -> float:
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class HostSpeed:
    """Probe times taken between calls, at most PROBE_EVERY_S apart, and the
    scale of each call's time: ``probe.REF_S`` over the mean of the two
    probes that bracket the call."""

    def __init__(self) -> None:
        import probe

        self.probe = probe
        self.n = 0  # calls done
        self.samples: list[tuple[int, float]] = []  # (calls done before it, seconds)
        self.sample()

    def sample(self) -> float:
        t = self.probe.sample()
        self.samples.append((self.n, t))
        self.last = time.perf_counter()
        return t

    def call_done(self) -> int:
        """Count a call, probe if it is time, and return the call's number."""
        self.n += 1
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()
        return self.n - 1

    def scale(self, call: int) -> float:
        before = [t for n, t in self.samples if n <= call][-1]
        after = next((t for n, t in self.samples if n > call), before)
        return self.probe.REF_S / (0.5 * (before + after))

    def time_setup(self, args) -> float:
        """``import_s + prepare_s`` of a fresh interpreter, scaled by the
        probes just before and after it."""
        before = self.probe.sample()
        t = time_setup(args)
        after = self.sample()
        return (t["import_s"] + t["prepare_s"]) * self.probe.REF_S / (0.5 * (before + after))


def end_to_end(args, wl, entries, cases, cycle) -> tuple[Tally, dict, dict]:
    tally = Tally()
    run_blocks(wl, entries, cases, cycle, tally, n_blocks=1)  # warm-up: checked, not timed

    host = HostSpeed()
    setup_s: list[float] = []

    def between() -> None:
        if len(setup_s) < SETUP_REPS and time.perf_counter() - t_start >= len(setup_s) * args.seconds / SETUP_REPS:
            setup_s.append(host.time_setup(args))

    t_start = time.perf_counter()
    calls, n_blocks = run_blocks(wl, entries, cases, cycle, tally, first=1, seconds=args.seconds, host=host,
                                 between=between)
    host.sample()
    while len(setup_s) < SETUP_REPS:
        setup_s.append(host.time_setup(args))

    times = [d * host.scale(n) for _, n, d in calls]
    raw = [d for _, _, d in calls]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "calls_per_s": (len(times) / sum(times), "1/s"),
        "call_ms_p50": (1e3 * quantile(times, 0.5), "ms"),
        "call_ms_p90": (1e3 * quantile(times, 0.9), "ms"),
    }
    rate = metrics["calls_per_s"][0]
    detail = {
        "calls": len(calls),
        "blocks": n_blocks,
        "cycle_blocks": len(cycle),
        "inputs": len(cases),
        "cells_per_s": rate * tally.cells / tally.calls,
        "steps_per_s": rate * tally.steps / tally.calls,
        "failed_frac": tally.failed / tally.attempted,
        "raw_calls_per_s": len(raw) / sum(raw),
        "raw_call_ms_p50": 1e3 * quantile(raw, 0.5),
        "raw_call_ms_p90": 1e3 * quantile(raw, 0.9),
        "probes": len(host.samples),
        "probe_ms_min_median": [1e3 * f(t for _, t in host.samples) for f in (min, statistics.median)],
    }
    return tally, metrics, detail


def traced(args, wl, entries, cases, cycle) -> tuple[Tally, dict, dict]:
    import tracing

    tally = Tally()
    run_blocks(wl, entries, cases, cycle, tally, n_blocks=1)  # warm-up: checked, not timed
    host = HostSpeed()
    plain, n_blocks = run_blocks(wl, entries, cases, cycle, tally, first=1, seconds=TRACE_UNTRACED_SHARE * args.seconds,
                                 host=host)

    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        work = Tally()
        spans, _ = run_blocks(wl, entries, cases, cycle, work, first=1, n_blocks=n_blocks, tracer=tracer, host=host)
    finally:
        tracing.uninstall(undo)
    host.sample()
    tracer.save(OUT / f"spans-{args.workload}.npz")
    tally.add(work)

    wall = sum(d for _, _, d in spans)
    layer = tracing.layer_metrics(tracer, wall, work.cells, work.steps, work.certified)
    # Both halves at the reference host speed, so that a change of the host's
    # speed between them does not show as overhead.
    plain_s = sum(d * host.scale(n) for _, n, d in plain)
    traced_s = sum(d * host.scale(n) for _, n, d in spans)
    layer["trace_overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    detail = {"calls": len(spans), "spans": len(tracer.name)}
    return tally, layer, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin()
    if args.setup_only:
        print(json.dumps(setup(args)[-1]))
        return 0
    try:
        wl, entries, cases, cycle, _ = setup(args)
        run = traced if args.trace else end_to_end
        tally, metrics, detail = run(args, wl, entries, cases, cycle)
    finally:
        shutil.rmtree(ROOT / ".bench_tmp", ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit": wl.unit,
        "env": env.describe(),
        "detail": detail,
        "failed_inputs_in_contract": tally.failed_inputs(entries, True),
        "failed_inputs_out_of_contract": tally.failed_inputs(entries, False),
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print("#", json.dumps(record))
    result = {
        "correct": not tally.failed_inputs(entries, True),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
