"""Print the outcome of every perfbench pool entry at one checkout, or count the outcomes that differ.

    python3 tools/pool_outcomes.py run CHECKOUT > outcomes.txt
    python3 tools/pool_outcomes.py diff BASE.txt HEAD.txt

``run`` imports orbitron from CHECKOUT/src and the workloads from
CHECKOUT/perfbench/workloads.py, as they are, and calls every entry of the
pools next to this script (``perfbench/pools``) once, so two checkouts see
the same inputs.  It prints one line per entry:
``<workload> <index> <repr of the outcome>``.  ``diff`` prints a Markdown
table of the entries per workload and of those whose lines differ, that is
whose outcomes differ by repr.  A change that keeps every output's bits
shows 0 differing on every row; the benchmark's own check compares within
a tolerance and would not see a change of one ulp.
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
from pathlib import Path

POOLS = Path(__file__).resolve().parent.parent / "perfbench" / "pools"


def run(checkout: Path) -> None:
    sys.path.insert(0, str(checkout / "perfbench"))
    import env

    env.pin()
    env.import_orbitron()  # from CHECKOUT/src, the checkout of that env.py
    import workloads

    for name in workloads.WORKLOADS:
        wl = workloads.make(name, checkout)
        with gzip.open(POOLS / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for i, entry in enumerate(entries):
            case = wl.prepare(entry["input"])
            print(name, i, repr(wl.outcome(case, wl.call(case))))


def diff(base: Path, head: Path) -> None:
    counts: dict[str, list[int]] = {}
    lines = itertools.zip_longest(base.read_text().splitlines(), head.read_text().splitlines(), fillvalue="")
    for a, b in lines:
        entries_differ = counts.setdefault((a or b).split(" ", 1)[0], [0, 0])
        entries_differ[0] += 1
        entries_differ[1] += a != b
    print("| workload | entries | outcomes that differ by repr |")
    print("|---|---|---|")
    for name, (entries, differ) in counts.items():
        print(f"| {name} | {entries} | {differ} |")


if __name__ == "__main__":
    command, *args = sys.argv[1:] or ["help"]
    if command == "run" and len(args) == 1:
        run(Path(args[0]).resolve())
    elif command == "diff" and len(args) == 2:
        diff(Path(args[0]), Path(args[1]))
    else:
        sys.exit(__doc__)
