"""Time the library's own cost per step: a dim-1 step whose rhs is a
constant, per kind of problem and per built-in method.

    PYTHONPATH=src python scripts/time_overhead.py [--n 1000] [--steps 200] [--rounds 5]

The problems have tau = 1 and h = 1/n, and their rhs returns one constant
array, so a step's time is the stepper's own work: stage views, overlay
rules, the update and the append.  The kinds are a DDE, an RE, a coupled
RE/DDE pair and a semilinear DDE with L = -1.  Each figure is the fastest
of ``--rounds`` runs of ``integrate`` over ``--steps`` steps, in µs per
step, each from a fresh initial state built outside the timer, after one
untimed run that builds every plan.  The rounds are interleaved over every
kind and method, so a slow stretch of a shared machine hits all of them
alike.
"""

from __future__ import annotations

import argparse
import platform
import time

import numpy as np

from expdelay import CoupledProblem, Problem, builtin, builtin_names, initial_state, integrate

#: the constant rhs value of every component
_VALUE = np.array([0.5])


def problems() -> dict:
    """The four kinds, each dim 1 with tau = 1 and a constant rhs."""
    ones = lambda th: np.ones(np.shape(th))  # noqa: E731
    constant = lambda t, v: _VALUE  # noqa: E731
    return {
        "dde": Problem(kind="dde", dim=1, tau=1.0, rhs=constant, phi0=ones, name="dde"),
        "re": Problem(kind="re", dim=1, tau=1.0, rhs=constant, phi0=ones, name="re"),
        "coupled": CoupledProblem(dim_re=1, dim_dde=1, tau=1.0, phi0_re=ones, phi0_dde=ones,
                                  rhs=lambda t, vb, vs: (_VALUE, _VALUE), name="coupled"),
        "semilinear": Problem(kind="semilinear_dde", dim=1, tau=1.0, rhs=constant, phi0=ones,
                              L=[[-1.0]], name="semilinear"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1000, help="tau/h")
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    h, probs = 1.0 / args.n, problems()
    best = {(kind, name): float("inf") for kind in probs for name in builtin_names()}
    for kind, name in best:  # builds every plan outside the timer
        integrate(probs[kind], builtin(name), h, h)
    for _ in range(args.rounds):
        for kind, name in best:
            prob, tab = probs[kind], builtin(name)
            state = initial_state(prob, h)
            start = time.perf_counter()
            integrate(prob, tab, h, args.steps * h, state0=state)
            best[kind, name] = min(best[kind, name],
                                   (time.perf_counter() - start) / args.steps * 1e6)
    print(f"# numpy {np.__version__}, Python {platform.python_version()}, {platform.machine()}")
    print(f"# tau/h = {args.n}, {args.steps} steps, best of {args.rounds}")
    print("kind        " + "".join(f"{name:>10s}" for name in builtin_names()) + "   (step_us)")
    for kind in probs:
        print(f"{kind:10s}  " + "".join(f"{best[kind, name]:10.1f}" for name in builtin_names()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
