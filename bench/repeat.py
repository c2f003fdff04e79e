"""Repeat benchmark runs over seeds and check that the end-to-end metrics are steady.

    python3 bench/repeat.py                      # 10 seeds x every workload, one set
    python3 bench/repeat.py --sets 2             # and a second set on fresh seeds
    python3 bench/repeat.py --seeds 5 --workload semilinear_stiff --seconds 20

Runs ``run.py`` as child processes, one at a time with single-threaded
numerical libraries, rotating the workload order from seed to seed so that
machine drift spreads over all workloads.  For every workload and
end-to-end metric it prints the median and the spread of each set, the
distance between the first and third quartile as a share of the median, and
with two sets the second median's change against the first.  A metric
passes when its spread stays within its bound (``setup_s`` is exempt) and
the second median is not worse than the first by more than the bound.  The
exit status is 0 when every run was correct and every metric passed.  A
summary goes to ``.bench_out/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import checkout
import spec

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace=0):
    """One child run; returns its parsed last line."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout.ROOT,
        env=checkout.single_thread_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--workload", action="append", choices=[n for n, _ in spec.WORKLOADS])
    args = p.parse_args(argv)
    names = args.workload or [n for n, _ in spec.WORKLOADS]

    values = {}  # (set, workload, metric) -> [values]
    all_correct = True
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = 1 + s * args.seeds + i
            for workload in names[i % len(names):] + names[:i % len(names)]:
                result = run_once(workload, seed, args.seconds)
                all_correct &= result["correct"] and result["failed"] == 0
                line = [f"set {s + 1} seed {seed:3d} {workload:17s}",
                        f"{result['failed']}/{result['attempted']} failed"]
                for name, m in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(m["value"])
                    line.append(f"{name}={m['value']:.5g}")
                print("  ".join(line), flush=True)

    ok = all_correct
    summary = []
    print(f"\n{'workload':17s} {'metric':12s} {'median':>11s} {'spread':>7s} "
          f"{'median2':>11s} {'spread2':>7s} {'change':>7s} {'bound':>5s}")
    for workload in names:
        for name, unit, bound in spec.END_TO_END:
            sets = [values.get((s, workload, name), []) for s in range(args.sets)]
            if any(len(v) < 2 for v in sets):
                ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            change = medians[-1] / medians[0] - 1.0
            passed = change <= bound and (
                name == "setup_s" or all(sp <= bound for sp in spreads)
            )
            ok &= passed
            summary.append({"workload": workload, "metric": name, "unit": unit,
                            "bound": bound, "values": sets, "medians": medians,
                            "spreads": spreads, "change": change, "passed": passed})
            cols = [f"{workload:17s} {name:12s}"]
            for med, sp in zip(medians, spreads):
                cols.append(f"{med:11.5g} {sp:7.3f}")
            if args.sets == 2:
                cols.append(f"{change:+7.3f}")
            cols.append(f"{bound:5.2f} {'ok' if passed else 'FAIL'}")
            print(" ".join(cols))
    out = checkout.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(
        {"args": vars(args), "all_correct": all_correct, "metrics": summary}, indent=1))
    print("\nsteady" if ok else "\nNOT steady or not correct")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
