"""The summary that scripts/compare.py writes per workload, on synthetic runs.

No benchmark starts here: each run is the last line that ``bench/run.py``
prints, made up.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)

METRICS = ("solve_s", "step_us", "step_us_p90", "setup_s", "peak_rss_mb")


def _run(value, failed=0, attempted=10, missing=()):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": value, "unit": "x"} for m in METRICS if m not in missing}}


def test_summary_quartiles_ratio_and_pairs():
    parent = [_run(v) for v in (10.0, 12.0, 11.0, 13.0, 14.0)]
    change = [_run(v) for v in (9.0, 12.5, 10.0, 12.0, 7.0)]
    entry = compare.summarize(parent, change)
    assert list(entry) == ["failed_solves", *METRICS]
    step = entry["step_us"]
    assert step["unit"] == "us"
    # numpy's linear interpolation: 10, 11, 12, 13, 14 -> q1 11, median 12, q3 13
    assert step["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert step["change"] == {"median": 10.0, "q1": 9.0, "q3": 12.0}
    assert step["change_over_parent"] == pytest.approx(10.0 / 12.0, abs=5e-5)
    assert step["change_better_in_pairs"] == "4/5"  # a tie would not count; 12.5 > 12 does not
    assert step["runs"] == {"parent": [10.0, 12.0, 11.0, 13.0, 14.0],
                            "change": [9.0, 12.5, 10.0, 12.0, 7.0]}


def test_summary_counts_failed_solves_and_skips_a_missing_metric():
    parent = [_run(1.0, failed=0, attempted=7), _run(2.0, failed=1, attempted=5)]
    change = [_run(1.0, failed=2, attempted=9, missing=("step_us",)), _run(1.0, attempted=4)]
    entry = compare.summarize(parent, change)
    assert entry["failed_solves"] == {"parent": "1/12", "change": "2/13"}
    # pair 1's change run reported no step_us: that pair leaves step_us only
    assert entry["step_us"]["runs"] == {"parent": [2.0], "change": [1.0]}
    assert entry["step_us"]["change_better_in_pairs"] == "1/1"
    # equal values are no gain
    assert entry["solve_s"]["change_better_in_pairs"] == "1/2"
    none = compare.summarize([_run(1.0, missing=METRICS)], [_run(1.0)])
    assert list(none) == ["failed_solves"]
