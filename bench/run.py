"""Run one expdelay benchmark workload and print its metrics.

    python3 bench/run.py --workload dde_long --seed 1 --seconds 20 --trace 0

The library is imported from the ``src`` of the checkout this file sits in.
One run, on one core, first warms up (builds the workload and integrates a
few steps, so one-off costs such as the ~160 ms first ``expm`` call stay out
of the timings).  Then, until ``--seconds`` have passed, it repeats the
set-up (problem, tableau, ``initial_state`` and the first step) and solves
from the prepared initial state to the workload's horizon, checking every
answer (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates plain and traced solves and reports the per-layer
metrics of the traced ones, plus ``trace.overhead`` (fastest traced over
fastest plain solve) and ``trace.coverage`` (share of the traced solve time
that the layers' self times account for).

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A solve that raises
``IntegrationDiverged`` or ``MeshError``, ends non-finite, misses a
tolerance, or (``daphnia_sim``) renders a CSV that differs from the run's
first, counts as failed.  Details, the environment and the spans of a
traced run go to ``.bench_out/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import checkout
import spec

checkout.import_library()  # before anything loads numpy

import numpy as np  # noqa: E402

import expdelay  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: set-up repetitions before each solve; interleaved with the solves so the
#: set-ups sample the same stretches of machine time as the solves do
SETUP_REPS = 2

#: counts reported per step in a traced run
PER_STEP_COUNTS = (
    "history.lookup_calls",
    "history.lookup_points",
    "history.append_bytes",
    "quadrature.calls",
    "quadrature.nodes",
    "phi.expm_calls",
    "phi.action_calls",
    "stepper.rhs_calls",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_answer(workload, problem, final):
    """Errors of a final state, and the reasons it fails (empty if it passes)."""
    states = final if isinstance(final, tuple) else (final,)
    for s in states:
        values = [s.coefficients()] + ([] if s.head is None else [s.head])
        if not all(np.all(np.isfinite(v)) for v in values):
            return {}, ["non-finite final state"]
    errors = workload.errors(problem, final)
    reasons = [
        f"{name} = {value:.3e} > {tol:.1e}"
        for name, (value, tol) in errors.items()
        if not value <= tol
    ]
    return {name: value for name, (value, _) in errors.items()}, reasons


class Runner:
    """Set-up, solves and answer checks of one workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[dict] = []
        self.csv = None

    def setup(self):
        """Problem, tableau, initial state and the first step; returns the
        elapsed time and the prepared (problem, tableau, initial state)."""
        w = self.workload
        t0 = time.perf_counter()
        problem = w.build(self.seed)
        tab = expdelay.builtin(workloads.METHOD)
        state0 = expdelay.initial_state(problem, w.h)
        expdelay.integrate(problem, tab, w.h, w.h, state0=state0)
        return time.perf_counter() - t0, (problem, tab, state0)

    def solve(self, problem, tab, state0, stamps):
        """Integrate to the horizon, appending a ``perf_counter`` stamp before
        the first step and after each one.  Returns the final state and,
        for recorded workloads, the trajectory CSV."""
        w = self.workload
        recorder = workloads.recorder_for(w, state0)

        if recorder is None:
            def observer(t, values):
                stamps.append(time.perf_counter())
        else:
            def observer(t, values):
                recorder(t, values)
                stamps.append(time.perf_counter())

        stamps.append(time.perf_counter())
        final = expdelay.integrate(problem, tab, w.h, w.T, observer=observer, state0=state0)
        csv = None if recorder is None else workloads.render_csv(problem, recorder)
        return final, csv

    def checked_solve(self, solve, problem, tab, state0, stamps):
        """Run ``solve`` and check its answer; returns its wall time, or None
        when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            final, csv = solve(problem, tab, state0, stamps)
        except (expdelay.IntegrationDiverged, expdelay.MeshError) as exc:
            self.failures.append(f"solve {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        errors, reasons = check_answer(self.workload, problem, final)
        if csv is not None:
            self.csv = self.csv or csv
            if csv != self.csv:
                reasons.append("trajectory CSV differs from the run's first")
        self.errors.append(errors)
        if reasons:
            self.failures.append(f"solve {self.attempted}: " + "; ".join(reasons))
            return None
        return elapsed


def run_plain(runner, seconds):
    """End-to-end metrics: set-ups and plain solves, interleaved until time is up.

    On a shared host the same code alternates between a fast state and one
    up to ~1.8x slower, in stretches of a fraction of a second to several
    seconds, so a run's median tracks how much of it fell into slow
    stretches.  The run therefore reports minima, as ``timeit`` does, taken
    per step: the step profile holds each step's fastest time across the
    run's solves.  ``step_us`` and ``step_us_p90`` are its median and 90th
    percentile; ``solve_s`` is its sum plus the fastest time a solve spent
    outside its steps (recorder, CSV), so every per-step cost that recurs at
    the same steps in every solve, periodic or not, counts in full.
    ``setup_s`` is the fastest set-up.
    """
    start = time.perf_counter()
    setup_times, solve_times, outside, profile = [], [], [], None
    while runner.attempted == 0 or time.perf_counter() < start + seconds:
        for _ in range(SETUP_REPS):
            elapsed, (problem, tab, state0) = runner.setup()
            setup_times.append(elapsed)
        stamps = []
        elapsed = runner.checked_solve(runner.solve, problem, tab, state0, stamps)
        if elapsed is not None:
            solve_times.append(elapsed)
            outside.append(elapsed - (stamps[-1] - stamps[0]))
            steps = np.diff(stamps)
            profile = steps if profile is None else np.minimum(profile, steps)
    detail = {"setup_s": setup_times, "solve_s": solve_times}
    if not solve_times:
        return {}, detail
    metrics = {
        "solve_s": float(profile.sum()) + min(outside),
        "step_us": 1e6 * float(np.median(profile)),
        "step_us_p90": 1e6 * float(np.percentile(profile, 90)),
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, detail


def run_traced(runner, seconds, tracer):
    """Per-layer metrics: alternate plain and traced solves until time is up."""
    start = time.perf_counter()
    _, (problem, tab, state0) = runner.setup()
    traced_problem = tracer.traced_problem(problem)

    def traced_solve(*args):
        return tracer.solve(runner.solve, *args)

    plain_times, traced_times = [], []
    while runner.attempted == 0 or time.perf_counter() < start + seconds:
        elapsed = runner.checked_solve(runner.solve, problem, tab, state0, [])
        if elapsed is not None:
            plain_times.append(elapsed)
        elapsed = runner.checked_solve(traced_solve, traced_problem, tab, state0, [])
        if elapsed is not None:
            traced_times.append(elapsed)
    detail = {"plain_solve_s": plain_times, "traced_solve_s": traced_times}
    if not (plain_times and traced_times):
        return {}, detail

    steps = tracer.counts["stepper.steps"]
    us = {name: 1e6 * tracer.self_time[name] / steps for name in spans.LAYERS}
    covered = sum(tracer.self_time[name] for name in spans.LAYERS)
    metrics = {
        "history.lookup_us": us[spans.LOOKUP],
        "history.append_us": us[spans.APPEND],
        "history.breakpoints_us": us[spans.BREAKPOINTS],
        "quadrature.window_us": us[spans.WINDOW],
        "phi.expm_us": us[spans.EXPM],
        "phi.action_us": us[spans.ACTION],
        "stepper.self_us": us[spans.STEP],
        "problems.rhs_us": us[spans.RHS],
        "harness.record_us": us[spans.RECORD],
        "harness.csv_s": tracer.self_time[spans.CSV] / tracer.counts["solves"],
        "trace.coverage": covered / tracer.total_time[spans.SOLVE],
        "trace.overhead": min(traced_times) / min(plain_times),
    }
    metrics.update({name: tracer.counts[name] / steps for name in PER_STEP_COUNTS})
    detail.update(traced_steps=steps, uncovered_s=tracer.self_time[spans.SOLVE])
    return {name: metrics[name] for name, _, _ in spec.PER_LAYER}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    env = checkout.environment()
    print(json.dumps({"environment": env}))
    runner = Runner(workloads.WORKLOADS[args.workload], args.seed)

    # process-level warm-up: lazy tables, allocator, the first expm call
    w = runner.workload
    _, (problem, tab, state0) = runner.setup()
    expdelay.integrate(problem, tab, w.h, min(w.steps, 20) * w.h, state0=state0)

    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        metrics, detail = run_plain(runner, args.seconds)
    else:
        metrics, detail = run_traced(runner, args.seconds, tracer)

    out_dir = checkout.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "environment": env,
        "metrics": metrics,
        "detail": detail,
        "errors": runner.errors,
        "failures": runner.failures,
        "csv_sha256": runner.csv and hashlib.sha256(runner.csv.encode()).hexdigest(),
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(out_dir / f"{stem}-spans.npz")

    for line in runner.failures:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name:24s} {value:16.6g} {spec.UNITS[name]}")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": spec.UNITS[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
