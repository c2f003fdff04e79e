"""Print one SHA-256 per pinned output, so two versions of the library can be
compared bit for bit, or save the outputs and print how far each one moved.

    PYTHONPATH=src python scripts/digest.py
    PYTHONPATH=src python scripts/digest.py --dump outputs.npz
    PYTHONPATH=src python scripts/digest.py --against outputs.npz

``expdelay`` is imported from ``PYTHONPATH``, so the same script run against
two source trees prints the same lines exactly when their outputs agree.
The outputs are:

* the final states (coefficients and heads) of the four benchmark workloads
  of ``bench/workloads.py`` at seed 1, under their method;
* the final states of the ``tests/test_regression.py`` cases under every
  shipped method;
* the final state of a short expo3 run of a DDE whose rhs integrates the
  theta-dependent kernel exp(theta) x over a window with whole segments, so
  the window path of integrands other than ``Pointwise`` is pinned too;
* the ``converge`` and ``simulate`` CSVs that the CI's rerun step writes;
* the ``check`` report of every shipped method at its declared order and mode.

``--dump FILE.npz`` also saves each output's numbers: a state's coefficients
and heads, or the numeric fields of a CSV or report, with the text around
them.  ``--against FILE.npz`` prints, in place of the digests, one line per
output: ``same`` when its numbers are bit for bit those saved, else the
largest |difference| over the saved output's largest |value| (or what else
differs: the text around the numbers, or their count).  It exits with 1
unless every line reads ``same``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

import numpy as np

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

#: a number standing alone in a CSV or report, not a digit inside a name like expo3
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def _state_values(state) -> np.ndarray:
    """Coefficients and head of each component, flat, in state order."""
    parts = state if isinstance(state, tuple) else (state,)
    return np.concatenate([
        arr.ravel() for part in parts for arr in (part.coefficients(), part.head) if arr is not None
    ])


def _theta_window_state():
    """The final state of x' = -x(t) + int_{-1}^{-1/4} exp(theta) x(t + theta) dtheta,
    x = cos on [-1, 0], under expo3 at h = 0.05 to T = 1."""
    kernel = lambda theta, x: np.exp(theta)[:, None] * x  # noqa: E731
    problem = expdelay.Problem(
        kind="dde", dim=1, tau=1.0, phi0=np.cos, distributed_limits=(-1.0, -0.25),
        rhs=lambda t, v: -v.head + expdelay.integrate_view(v, -1.0, -0.25, kernel),
    )
    return expdelay.integrate(problem, expdelay.builtin("expo3"), 0.05, 1.0)


def _cli_text(argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli(argv.split() + (["--out", "-"] if "--problem" in argv else []))
    if code:
        raise SystemExit(f"expdelay {argv} exited with {code}")
    return out.getvalue()


def outputs():
    """(name, values, text) per pinned output: the values are its numbers,
    and the text is the CSV or report they were read from (None for a state)."""
    for name, w in workloads.WORKLOADS.items():
        final = expdelay.integrate(w.build(1), expdelay.builtin(workloads.METHOD), w.h, w.T)
        yield f"workload_{name}", _state_values(final), None
    for case, (make, h, T) in CASES.items():
        for method in expdelay.builtin_names():
            final = expdelay.integrate(make(), expdelay.builtin(method), h, T)
            yield f"regression_{case}_{method}", _state_values(final), None
    yield "theta_window_expo3", _state_values(_theta_window_state()), None
    for name, argv in CLI_RUNS.items():
        text = _cli_text(argv)
        values = np.array([float(x) for x in _NUMBER.findall(text)])
        yield name, values, text


def _digest(values, text) -> str:
    data = values.tobytes() if text is None else text.encode()
    return hashlib.sha256(data).hexdigest()


def _change(name, values, text, saved) -> str:
    """How far an output moved from its saved numbers and text."""
    if name not in saved:
        return "not saved"
    old = saved[name]
    if text is not None and _NUMBER.sub("#", text) != saved[f"{name}.text"]:
        return "text differs"
    if values.shape != old.shape:
        return f"{old.size} -> {values.size} values"
    if values.tobytes() == old.tobytes():
        return "same"
    unmoved = (values == old) | (np.isnan(values) & np.isnan(old))
    with np.errstate(invalid="ignore"):  # inf - inf: equal infinities moved by 0
        diff = np.where(unmoved, 0.0, np.abs(values - old))
    scale = np.abs(old[np.isfinite(old)]).max(initial=0.0)
    return f"{diff.max() / scale if scale else diff.max():.1e}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dump", metavar="FILE.npz", help="save every output's numbers and text")
    p.add_argument("--against", metavar="FILE.npz", help="print how far each output moved")
    args = p.parse_args(argv)
    saved = np.load(args.against) if args.against else None
    dump, moved = {}, False
    for name, values, text in outputs():
        dump[name] = values
        if text is not None:
            dump[f"{name}.text"] = np.array(_NUMBER.sub("#", text))
        if saved is None:
            print(f"{name} {_digest(values, text)}")
            continue
        change = _change(name, values, text, saved)
        moved |= change != "same"
        print(f"{name} {change}")
    if args.dump:
        np.savez(args.dump, **dump)
    return int(moved)


if __name__ == "__main__":
    raise SystemExit(main())
