"""Print one SHA-256 per pinned output, so two versions of the library can be
compared bit for bit.

    PYTHONPATH=src python scripts/digest.py

``expdelay`` is imported from ``PYTHONPATH``, so the same script run against
two source trees prints the same lines exactly when their outputs agree.
The outputs are:

* the final states (coefficients and heads) of the four benchmark workloads
  of ``bench/workloads.py`` at seed 1, under their method;
* the final states of the ``tests/test_regression.py`` cases under every
  shipped method;
* the ``converge`` and ``simulate`` CSVs that the CI's rerun step writes;
* the ``check`` report of every shipped method at its declared order and mode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "bench"), str(ROOT / "tests")]

import expdelay  # noqa: E402
from expdelay.cli import main as cli  # noqa: E402
from test_regression import CASES  # noqa: E402
import workloads  # noqa: E402

CLI_RUNS = {
    "simulate_daphnia": "simulate --problem daphnia --h 0.1 --T 5 --sample-every 10",
    "converge_belzen": "converge --problem belzen --h 0.1 --h 0.05 --T 1",
    "converge_quadratic_re": "converge --problem quadratic_re --h 0.1 --h 0.05 --T 4",
    **{f"check_{m}": f"check --method {m}" for m in expdelay.builtin_names()},
}


def _state_digest(state) -> str:
    sha = hashlib.sha256()
    for part in state if isinstance(state, tuple) else (state,):
        sha.update(part.coefficients().tobytes())
        if part.head is not None:
            sha.update(part.head.tobytes())
    return sha.hexdigest()


def _cli_digest(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli(argv.split() + (["--out", "-"] if "--problem" in argv else []))
    if code:
        raise SystemExit(f"expdelay {argv} exited with {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    for name, w in workloads.WORKLOADS.items():
        final = expdelay.integrate(w.build(1), expdelay.builtin(workloads.METHOD), w.h, w.T)
        print(f"workload_{name} {_state_digest(final)}")
    for case, (make, h, T) in CASES.items():
        for method in expdelay.builtin_names():
            final = expdelay.integrate(make(), expdelay.builtin(method), h, T)
            print(f"regression_{case}_{method} {_state_digest(final)}")
    for name, argv in CLI_RUNS.items():
        print(f"{name} {_cli_digest(argv)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
