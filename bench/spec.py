"""Names, units and bounds of the expdelay benchmark; source of BENCHMARK.json.

Run ``python3 bench/spec.py`` from the repository root to rewrite
``BENCHMARK.json`` from the tables below.  This module imports nothing
outside the standard library, so the tools that only start and compare runs
(``repeat.py``, ``smoke.py``) can read it without loading the library.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: length of the measured part of one run, in seconds
RUN_SECONDS = 20

#: (name, why).  Each workload exercises one of the planned optimisations
#: (append-only history, cached window integrals, precomputed matrix
#: functions) and bypasses the others, so a gain on one layer shows on one
#: workload and must leave the rest unchanged.
WORKLOADS = (
    (
        "dde_long",
        "belzen DDE at tau/h = 5e4: one discrete delay, so history lookup and "
        "the O(n) append dominate; no quadrature, no expm",
    ),
    (
        "re_window",
        "quadratic_re at h = 1e-3: every stage integrates over 2000 of 3000 "
        "segments, so window quadrature and bulk lookups dominate",
    ),
    (
        "semilinear_stiff",
        "seeded 20-dim semilinear DDE with stiff diagonal L and a short history: "
        "matrix exponentials take most of each step",
    ),
    (
        "daphnia_sim",
        "coupled RE/DDE daphnia run recorded as simulate does: the only "
        "step_coupled path, two appends per step, every layer mixed",
    ),
)

#: (name, unit, bound).  All are lower-is-better and measured with tracing off.
END_TO_END = (
    ("solve_s", "s", 0.25),
    ("step_us", "us", 0.25),
    ("step_us_p90", "us", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
)

#: (name, unit, better).  Per step of the traced solves unless the unit says
#: otherwise; counts are exact and repeat between runs.
PER_LAYER = (
    ("history.lookup_us", "us/step", "lower"),
    ("history.lookup_calls", "count/step", "lower"),
    ("history.lookup_points", "count/step", "lower"),
    ("history.append_us", "us/step", "lower"),
    ("history.append_bytes", "B/step", "lower"),
    ("history.breakpoints_us", "us/step", "lower"),
    ("quadrature.window_us", "us/step", "lower"),
    ("quadrature.calls", "count/step", "lower"),
    ("quadrature.nodes", "count/step", "lower"),
    ("phi.expm_us", "us/step", "lower"),
    ("phi.expm_calls", "count/step", "lower"),
    ("phi.action_us", "us/step", "lower"),
    ("phi.action_calls", "count/step", "lower"),
    ("stepper.self_us", "us/step", "lower"),
    ("stepper.rhs_calls", "count/step", "lower"),
    ("problems.rhs_us", "us/step", "lower"),
    ("harness.record_us", "us/step", "lower"),
    ("harness.csv_s", "s/solve", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The BENCHMARK.json document described by the tables above."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b}
            for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": better} for n, u, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
