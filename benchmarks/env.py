"""Paths, thread pinning and machine description shared by the benchmark scripts."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Every workload runs in a fresh single-threaded process: one BLAS/OpenMP
# thread keeps timings independent of what else shares the machine's cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
THREADS = 1


def child_env() -> dict[str, str]:
    """Environment for workload and set-up processes."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(min(THREADS, os.cpu_count() or 1))
    env["PYTHONHASHSEED"] = "0"
    return env


def import_kdcollide():
    """Import kdcollide from this checkout's sources, never from site-packages."""
    init = SRC / "kdcollide" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: no kdcollide sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kdcollide

    if Path(kdcollide.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported kdcollide from {kdcollide.__file__}, expected {init}")
    return kdcollide


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe_machine() -> dict:
    env = child_env()
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }
