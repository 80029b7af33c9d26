"""Process set-up shared by the benchmark scripts.

Import this module before numpy: it fixes the BLAS thread count for this
process and puts the checkout's own ``src/`` first on ``sys.path``, so the
code measured is the code in the checkout and never a copy installed
elsewhere.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(CHECKOUT, "src")

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread (the cap is nproc): all work then runs on the calling
# thread, so the process's CPU time is the cost of the work and holds no
# BLAS spin-waits. On desk sizes a second thread gave no speed-up.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

clock = time.process_time

# Speed probe. On a 2-vCPU KVM guest (Xeon, numpy 2.4.6, OpenBLAS 0.3.31)
# shared with other tenants, wall time of identical work varied by 15-30%
# between runs and even its CPU time by up to 1.8x over minutes, and a fixed
# pure-Python loop slowed down with it. Workloads run the probe between
# pieces of work and rescale each piece's CPU time by PROBE_NOMINAL_S over
# the probe times around it: times are given at the speed where the probe
# loop takes PROBE_NOMINAL_S, about the fastest seen on that guest.
PROBE_LOOP = 100_000
PROBE_NOMINAL_S = 0.007


def probe() -> float:
    """Median CPU seconds of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        times.append(clock() - t0)
    return sorted(times)[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or data)."""


def import_normmatch():
    """Import ``normmatch`` from the checkout's ``src/`` and nowhere else."""
    package_dir = os.path.join(SRC_DIR, "normmatch")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        raise SetupError(f"no normmatch sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import normmatch

    found = os.path.realpath(os.path.dirname(normmatch.__file__))
    if found != os.path.realpath(package_dir):
        raise SetupError(f"normmatch imported from {found}, not from {package_dir}")
    return normmatch


def _git_commit() -> str:
    if not os.path.exists(os.path.join(CHECKOUT, ".git")):
        return "unknown"  # not a git checkout; do not report an enclosing repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> dict:
    """Machine, toolchain and thread settings that the numbers depend on."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }
