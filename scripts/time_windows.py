"""Time an expo3 step of the two window workloads, quadratic_re and daphnia,
at several mesh sizes n = tau/h.

    PYTHONPATH=src python scripts/time_windows.py [--sizes 3000 30000 300000]
                                                  [--steps 200] [--rounds 5]

Each figure is the fastest of ``--rounds`` runs of ``integrate`` over
``--steps`` steps, in µs per step, each run from a fresh initial state built
outside the timer, so it includes the first step's fill of the window's stored
sums.  The rounds are interleaved over every problem and size, so a slow
stretch of a shared machine hits all of them alike; the last column is the
step cost over that at the smallest size, the ratio that a step cost flat in
tau/h keeps near 1.  Each n must put both problems' window bounds on the mesh:
a multiple of 12.
"""

from __future__ import annotations

import argparse
import platform
import time

import numpy as np

from expdelay import builtin, daphnia, initial_state, integrate, quadratic_re


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3000, 30000, 300000])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    tab = builtin("expo3")
    problems = {"quadratic_re": quadratic_re(), "daphnia": daphnia()}
    best = {(name, n): float("inf") for name in problems for n in args.sizes}
    for _ in range(args.rounds):
        for (name, n) in best:
            prob = problems[name]
            h = prob.tau / n
            state = initial_state(prob, h)
            start = time.perf_counter()
            integrate(prob, tab, h, args.steps * h, state0=state)
            best[name, n] = min(best[name, n], (time.perf_counter() - start) / args.steps * 1e6)
    print(f"# numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}")
    print("problem       tau/h     step_us  ratio")
    for (name, n), us in best.items():
        print(f"{name:12s}  {n:8d}  {us:8.1f}  {us / best[name, args.sizes[0]]:5.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
