"""Load the expdelay sources of this checkout and describe the environment.

The benchmark must measure the code next to it, never an installed copy, so
:func:`import_library` puts ``<root>/src`` first on ``sys.path`` and stops
the process when the sources are missing.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: thread pools of the numerical libraries, pinned to one thread so a run
#: uses one core for compute and timings do not depend on the host's count
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def single_thread_env() -> dict:
    """A copy of this process's environment with every pool at one thread."""
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


def import_library():
    """Pin thread pools, then import ``expdelay`` from this checkout's ``src``.

    Must run before anything imports numpy, because the pools read their
    size once, at load time.
    """
    os.environ.update({var: "1" for var in THREAD_VARS})
    init = SRC / "expdelay" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"benchmark: library sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import expdelay

    if Path(expdelay.__file__).resolve() != init.resolve():
        raise SystemExit(f"benchmark: imported {expdelay.__file__}, not {init}")
    return expdelay


def _git_commit() -> str:
    # Read .git directly: the benchmark may run in a copy without git.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Versions, hardware and thread settings of this run."""
    import numpy as np
    import scipy

    import expdelay

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "expdelay": expdelay.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
