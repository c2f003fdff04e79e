"""Paired benchmark runs of this checkout against a parent commit.

    python scripts/compare.py PARENT
    python scripts/compare.py PARENT --pairs 3 --seconds 5 --workloads semilinear_stiff
    python scripts/compare.py PARENT --claim "step_us on semilinear_stiff: ..."

PARENT is any commit git can name.  Its committed tree is exported with
``git archive`` into a temporary directory, which is removed afterwards; the
change is the working tree of this checkout.  Each side runs its own
``bench/run.py --trace 0``, so each imports the library from its own
``src``.  Pair P runs every workload on both sides with seed P, one run at a
time with single-threaded numerical libraries; the parent goes first in odd
pairs and the change first in even ones, so slow stretches of the machine
fall on both sides alike.

The result goes to ``BENCH_<parent>.json`` at the root of the checkout
(``<parent>`` the short commit), in the format of the committed
``BENCH_*.json`` files: per workload and end-to-end metric the median and
numpy's linear-interpolation quartiles of each side, the change's median over
the parent's, the pairs in which the change was better (every end-to-end
metric is lower-is-better), every run's value, and the failed solves.
Nothing under ``bench/`` is written or changed, apart from the ``.bench_out/``
records that ``bench/run.py`` leaves in each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checkout  # noqa: E402  (standard library only: thread settings)
import spec  # noqa: E402  (standard library only: workloads, metrics, run length)

#: timeout of one child run beyond its measured seconds (warm-up, set-up, answer checks)
SLACK_S = 300


def export_tree(commit: str, into: Path):
    """Write the committed files of ``commit`` under ``into``: no .git, nothing
    added to this checkout's repository."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` child run in the tree ``root``; its parsed last line."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=checkout.single_thread_env(), capture_output=True, text=True,
        timeout=seconds + SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(parent: list, change: list) -> dict:
    """One workload's entry from its runs, pair by pair: ``parent[p]`` and
    ``change[p]`` are the last lines of pair p's two runs.  A metric that a
    run did not report (every solve failed) leaves that pair out of it."""
    out = {"failed_solves": {
        side: f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
        for side, runs in (("parent", parent), ("change", change))
    }}
    for name, unit, _ in spec.END_TO_END:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        before, after = (list(side) for side in zip(*pairs))
        entry = {"unit": unit, "parent": _quartiles(before), "change": _quartiles(after)}
        ratio = entry["change"]["median"] / entry["parent"]["median"]
        entry["change_over_parent"] = round(ratio, 4)
        entry["change_better_in_pairs"] = f"{sum(a < b for b, a in pairs)}/{len(pairs)}"
        entry["runs"] = {"parent": before, "change": after}
        out[name] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the commit to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--workloads", nargs="+", choices=[n for n, _ in spec.WORKLOADS],
                   default=[n for n, _ in spec.WORKLOADS])
    p.add_argument("--claim", default=None, help="the gain the change claims, as text")
    args = p.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    short = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()

    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        parent_root = Path(tmp) / "parent"
        export_tree(short, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    result = run_once(roots[side], workload, pair, args.seconds)
                    runs[workload][side].append(result)
                    step = result["metrics"].get("step_us", {}).get("value", float("nan"))
                    print(f"pair {pair:2d} {workload:17s} {side:6s} step_us {step:9.3f}  "
                          f"{result['failed']}/{result['attempted']} failed", flush=True)

    seconds = f"{args.seconds:g}"
    record = {
        "what": f"End-to-end metrics of bench/run.py, parent commit {short} against the "
                "working tree of this checkout, from alternating runs with identical settings.",
        "parent": short,
        "change": "the commit that adds this file",
        "command": f"python3 bench/run.py --workload W --seed P --seconds {seconds} --trace 0",
        "design": f"{args.pairs} pairs per workload; pair P runs both sides with seed P; the "
                  "parent runs first in odd pairs and the change first in even pairs; one run "
                  "at a time, numerical libraries on one thread; q1/q3 are numpy "
                  "linear-interpolation quartiles",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "claim": args.claim,
        "workloads": {w: summarize(r["parent"], r["change"]) for w, r in runs.items()},
    }
    out = ROOT / f"BENCH_{short}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for w, entry in record["workloads"].items():
        for name, _, _ in spec.END_TO_END:
            if name in entry:
                m = entry[name]
                print(f"{w:17s} {name:12s} {m['change_over_parent']:.4f}x  "
                      f"better in {m['change_better_in_pairs']}")
        print(f"{w:17s} failed solves: parent {entry['failed_solves']['parent']}, "
              f"change {entry['failed_solves']['change']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
