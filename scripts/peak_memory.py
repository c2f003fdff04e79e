"""Print the tracemalloc peak of each phase of the benchmark workloads: set-up,
``integrate`` and the answer check, next to the size of the final state.

    PYTHONPATH=src python scripts/peak_memory.py

For each workload of ``bench/workloads.py`` at seed 1, the phases are those
of one ``bench/run.py`` solve, run by its own code: set-up builds the
problem, the tableau and the initial state and takes the first step; the
solve integrates from that state to the horizon (recording and rendering the
trajectory, for a recorded workload); the answer check computes the
workload's errors of the final state.  Each figure is the peak of the memory
Python allocated during that phase alone, in MB (2**20 bytes), over what
was held when the phase began.  ``state_mb`` is the final state's
coefficient window.  The script exits with 1 if an answer fails its check.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import run  # noqa: E402  (bench/run.py: pins thread pools, imports this checkout's expdelay)
import workloads  # noqa: E402


def _peak(phase):
    """phase() and the peak of what it allocated, in MB."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    result = phase()
    return result, (tracemalloc.get_traced_memory()[1] - held) / 2**20


def measure(w, seed: int = 1):
    """(setup, integrate, check, state) in MB, and the reasons the answer
    fails its check (none when it passes), of one workload."""
    runner = run.Runner(w, seed)
    (_, (problem, tab, state0)), setup_mb = _peak(runner.setup)
    (final, _), solve_mb = _peak(lambda: runner.solve(problem, tab, state0, []))
    (_, reasons), check_mb = _peak(lambda: run.check_answer(w, problem, final))
    parts = final if isinstance(final, tuple) else (final,)
    state_mb = sum(part.coefficients().nbytes for part in parts) / 2**20
    return (setup_mb, solve_mb, check_mb, state_mb), reasons


def main() -> int:
    tracemalloc.start()
    print("workload          setup_mb  integrate_mb  check_mb  state_mb  answer")
    failed = False
    for name, w in workloads.WORKLOADS.items():
        (setup_mb, solve_mb, check_mb, state_mb), reasons = measure(w)
        failed |= bool(reasons)
        print(f"{name:16s}{setup_mb:10.2f}{solve_mb:14.2f}{check_mb:10.2f}{state_mb:10.2f}  "
              + ("; ".join(reasons) or "ok"))
    tracemalloc.stop()
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
