"""Pin the process environment the benchmark measures in, and describe it.

``pin`` must run before numpy is imported: the BLAS and OpenMP pools read
their thread counts once, at load time.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin() -> None:
    """One BLAS/OpenMP thread, and orbitron's scan thread pool left unset."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ORBITRON_THREADS", None)


def src_dir() -> Path:
    """The ``src`` directory of the checkout this benchmark sits in."""
    return Path(__file__).resolve().parent.parent / "src"


def import_orbitron():
    """Import orbitron from this checkout's ``src``, never from elsewhere."""
    src = src_dir()
    if not (src / "orbitron" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orbitron sources at {src}")
    sys.path.insert(0, str(src))
    import orbitron

    if Path(orbitron.__file__).resolve().parent != (src / "orbitron").resolve():
        raise SystemExit(f"perfbench: imported orbitron from {orbitron.__file__}, not {src}")
    return orbitron


def describe() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "ORBITRON_THREADS": os.environ.get("ORBITRON_THREADS"),
    }
