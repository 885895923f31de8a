"""Regenerate the input pools and their reference outcomes.

    python3 perfbench/make_refs.py [map|ensemble|cli ...]

Each pool's inputs come from a fixed pool seed, so rerunning this at the
same commit rewrites byte-identical files.  The references are the outcomes
of the library at the commit where it is run; an out-of-contract CLI input
instead expects the exit code the documented contract gives it, and keeps
the observed outcome as ``observed`` for the record.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import env

env.pin()
env.import_orbitron()

import numpy as np  # noqa: E402

import workloads  # noqa: E402

POOL_SEEDS = {"map": 1101, "ensemble": 2202, "cli": 3303}
POOL_DIR = Path(__file__).resolve().parent / "pools"
CONTRACT_EXIT = 2  # configuration error


def build(name: str) -> dict:
    wl = workloads.make(name, Path(__file__).resolve().parent.parent)
    entries = []
    for inp in wl.generate(np.random.default_rng(POOL_SEEDS[name])):
        case = wl.prepare(inp)
        got = wl.outcome(case, wl.call(case))
        ref = got if inp.get("contract", True) else {"exit": CONTRACT_EXIT, "observed": got}
        entries.append({"input": inp, "ref": ref})
    return {"workload": name, "pool_seed": POOL_SEEDS[name], "entries": entries}


def write(pool: dict, path: Path) -> None:
    data = json.dumps(pool, separators=(",", ":"), sort_keys=True).encode()
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, filename="") as fh:
        fh.write(data)


def main(names: list[str]) -> int:
    POOL_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        pool = build(name)
        write(pool, POOL_DIR / f"{name}.json.gz")
        print(f"{name}: {len(pool['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
