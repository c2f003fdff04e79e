"""Short self-test of the benchmark; exits 0 when every check passes.

    python3 bench/smoke.py

Checks, in about a minute:

* ``BENCHMARK.json`` is what ``spec.py`` renders;
* every workload emits every named metric with its unit, in both modes, and
  every solve passes its answer check;
* the layers' self times cover at least 90% of a traced solve;
* the exact counts repeat between two traced runs: ``stepper.rhs_calls`` is 3
  per step, ``phi.expm_calls`` is 0 outside ``semilinear_stiff``,
  ``quadrature.calls`` is 0 on ``dde_long`` and ``semilinear_stiff``;
* ``history.append_bytes`` is n * dim * 32 bytes per step, summed over the
  histories a step appends to;
* two runs render byte-identical ``daphnia_sim`` CSVs;
* the answer check rejects a perturbed final state and a lower-order method;
* without the library sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checkout
import spec
from repeat import RUN, run_once

SECONDS = 1.0
#: added to every stored value of a final state; above every tolerance
PERTURBATION = 1e-5


class Checks:
    def __init__(self):
        self.failed = []

    def expect(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failed.append(what)


def check_runs(checks):
    """Run every workload once plain and twice traced; check metrics and counts."""
    import workloads
    from run import PER_STEP_COUNTS

    for name, _ in spec.WORKLOADS:
        plain = run_once(name, 1, SECONDS, trace=0)
        traced = [run_once(name, seed, SECONDS, trace=1) for seed in (1, 2)]
        for mode, result, wanted in [("plain", plain, spec.END_TO_END)] + [
                ("traced", t, spec.PER_LAYER) for t in traced]:
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            checks.expect(units == {n: u for n, u, _ in wanted},
                          f"{name} {mode}: every metric emitted with its unit")
            checks.expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                          f"{name} {mode}: {result['attempted']} solves, {result['failed']} failed")
        for t in traced:
            coverage = t["metrics"]["trace.coverage"]["value"]
            checks.expect(coverage >= 0.9, f"{name}: trace covers {coverage:.3f} of the solve")
        counts = [{n: t["metrics"][n]["value"] for n in PER_STEP_COUNTS} for t in traced]
        checks.expect(counts[0] == counts[1], f"{name}: counts repeat between runs")
        c = counts[0]
        checks.expect(c["stepper.rhs_calls"] == 3, f"{name}: 3 rhs calls per step")
        checks.expect((c["phi.expm_calls"] > 0) == (name == "semilinear_stiff"),
                      f"{name}: expm calls {c['phi.expm_calls']:g} per step")
        if name in ("dde_long", "semilinear_stiff"):
            checks.expect(c["quadrature.calls"] == 0, f"{name}: no quadrature")
        w = workloads.WORKLOADS[name]
        problem = w.build(1)
        dims = (problem.dim_re, problem.dim_dde) if problem.kind == "coupled" else (problem.dim,)
        n = round(problem.tau / w.h)
        checks.expect(c["history.append_bytes"] == sum(n * d * 32 for d in dims),
                      f"{name}: append copies {c['history.append_bytes']:g} B per step")
    records = [json.loads((checkout.ROOT / ".bench_out" / f"daphnia_sim-seed{s}-trace1.json")
                          .read_text()) for s in (1, 2)]
    sha = [r["csv_sha256"] for r in records]
    checks.expect(sha[0] is not None and sha[0] == sha[1], "daphnia_sim: CSV identical across runs")


def perturbed(state):
    """``state`` with PERTURBATION added to every stored value."""
    from expdelay import HistoryState

    if isinstance(state, tuple):
        return tuple(perturbed(s) for s in state)
    coeffs = state.coefficients().copy()
    coeffs[..., 0] += PERTURBATION
    head = None if state.head is None else state.head + PERTURBATION
    return HistoryState(state.kind, state.dim, state.tau, state.h, coeffs, head=head)


def check_answer_check(checks):
    """The answer check passes expo3, and rejects a perturbed state and heun."""
    import expdelay
    import workloads
    from run import check_answer

    for name, w in workloads.WORKLOADS.items():
        problem = w.build(1)
        finals = {m: expdelay.integrate(problem, expdelay.builtin(m), w.h, w.T)
                  for m in (workloads.METHOD, "heun")}
        good = finals[workloads.METHOD]
        checks.expect(not check_answer(w, problem, good)[1], f"{name}: expo3 answer accepted")
        checks.expect(bool(check_answer(w, problem, perturbed(good))[1]),
                      f"{name}: perturbed final state rejected")
        checks.expect(bool(check_answer(w, problem, finals["heun"])[1]),
                      f"{name}: heun (one order lower) rejected")


def check_bare(checks):
    """Without ``src`` the benchmark must fail and print no result."""
    bare = checkout.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(RUN.parent, bare / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        spec.COMMAND + ["--workload", spec.WORKLOADS[0][0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    checks.expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
                  f"without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    checks = Checks()
    checks.expect((checkout.ROOT / "BENCHMARK.json").read_text() == spec.render(),
                  "BENCHMARK.json matches spec.py")
    checkout.import_library()
    check_runs(checks)
    check_answer_check(checks)
    check_bare(checks)
    print(f"\n{len(checks.failed)} check(s) failed" if checks.failed else "\nall checks passed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
