"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on a small slice of its pool for half a second,
untraced and traced, and checks that the result line has the contract's
keys, that every metric named in
BENCHMARK.json appears with its unit, that map and ensemble have no failed
operations, and that traced self times plus ``bench.other_s`` add up to the
traced wall time.  It then checks that a corrupted reference value is caught
(``failed`` > 0 and ``correct`` false), and that the benchmark refuses to
run in a copy that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check holds.
"""

from __future__ import annotations

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "smoke"
SECONDS = "0.5"


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res


def check_metrics(res: dict, wanted: list[dict]) -> None:
    got = res["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        value = got[m["name"]]["value"]
        assert got[m["name"]]["unit"] == m["unit"], m
        assert isinstance(value, (int, float)) and math.isfinite(value), m


def small_pool(workload: str, per_kind: int) -> Path:
    """A slice of the workload's pool with ``per_kind`` entries of each kind
    (one of each cli out-of-contract kind, which share a slot), written
    under SCRATCH."""
    with gzip.open(HERE / "pools" / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        pool = json.load(fh)
    taken: dict[tuple, int] = {}
    entries = []
    for entry in pool["entries"]:
        inp = entry["input"]
        kind = (inp.get("kind"), inp.get("category"), inp.get("inside"), inp.get("scheme"))
        if taken.get(kind, 0) < (1 if inp.get("contract") is False else per_kind):
            taken[kind] = taken.get(kind, 0) + 1
            entries.append(entry)
    return write_pool(dict(pool, entries=entries), SCRATCH / f"{workload}-small.json.gz")


def write_pool(pool: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(pool, fh)
    return path


def corrupted(path: Path) -> Path:
    """The map pool at ``path`` with one certified cell's margin of every
    entry off by 1e-6."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        pool = json.load(fh)
    for entry in pool["entries"]:
        ref = entry["ref"]
        i = ref["error"].index("")
        ref["margin"][i] *= 1.0 + 1e-6
    return write_pool(pool, path.with_name("map-corrupted.json.gz"))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pools = {}
    for w in (w["name"] for w in bench["workloads"]):
        pools[w] = small_pool(w, 3 if w == "cli" else 2)  # cli: 3, one per out-of-contract kind
        res = result(run(w, 0, "--pool", str(pools[w])))
        check_metrics(res, bench["end_to_end"])
        assert res["correct"], (w, res)
        assert w == "cli" or res["failed"] == 0, (w, res)
        print(f"{w} untraced: ok ({res['attempted']} attempted, {res['failed']} failed)")

        res = result(run(w, 1, "--pool", str(pools[w])))
        check_metrics(res, bench["per_layer"])
        assert res["correct"], (w, res)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        total = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["bench.other_s"]
        assert math.isclose(total, m["bench.traced_wall_s"], rel_tol=1e-9), (total, m["bench.traced_wall_s"])
        print(f"{w} traced: ok ({sum(1 for k in m if k.endswith('.calls') and m[k])} functions called)")

    res = result(run("map", 0, "--pool", str(corrupted(pools["map"]))))
    assert res["failed"] > 0 and not res["correct"], res
    print(f"corrupted reference: caught ({res['failed']} cells failed)")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("map", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print(f"bare copy: refused (exit {proc.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
