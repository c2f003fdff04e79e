"""Time one history lookup: a scalar offset (the point path) against a
one-element array (the array path), on a state and on a stage view.

    PYTHONPATH=src python scripts/time_lookups.py [--rounds 15] [--calls 20000]

Each figure is the fastest of ``--rounds`` interleaved rounds of ``--calls``
lookups, in µs per lookup, so a slow stretch of a shared machine hits both
paths alike.  The offset -0.55 lies inside a segment of the base state, and
the stage view's shift of h/2 keeps it there, so a view's lookup reads its
base.
"""

from __future__ import annotations

import argparse
import platform
import time

import numpy as np

from expdelay import HistoryState, StageView


def _targets(dim: int, tau: float = 1.0, h: float = 0.01):
    rng = np.random.default_rng(0)
    state = HistoryState("re", dim, tau, h, rng.normal(size=(round(tau / h), dim, 4)))
    return {"HistoryState": state, "StageView": StageView(state, 0.5 * h, rng.normal(size=(dim, 4)))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", type=int, default=20000)
    args = parser.parse_args(argv)
    theta, array = -0.55, np.array([-0.55])
    print(f"# numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}")
    print("dim  target        point_us  array_us  ratio")
    for dim in (1, 20):
        for name, target in _targets(dim).items():
            paths = {"point": lambda: target.eval(theta), "array": lambda: target.eval_many(array)}
            best = dict.fromkeys(paths, float("inf"))
            for _ in range(args.rounds):
                for path, lookup in paths.items():
                    start = time.perf_counter()
                    for _ in range(args.calls):
                        lookup()
                    best[path] = min(best[path], (time.perf_counter() - start) / args.calls * 1e6)
            print(f"{dim:3d}  {name:12s}  {best['point']:8.2f}  {best['array']:8.2f}  "
                  f"{best['array'] / best['point']:5.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
