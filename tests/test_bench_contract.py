"""The traced benchmark's contract on a few real cases per workload.

``perfbench/run.py --trace 1`` fails a workload when a traced span cannot
be patched, a count that should move reads 0, or a workload makes a call
it must not.  A change to the library can break that contract (by
renaming a traced entry point, or by taking a layer's last call off a
workload) while every other test passes, so this runs the same check on
a small copy of each workload.  It only reads ``perfbench/``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import benchwork  # noqa: E402
import run  # noqa: E402

# workload -> the real cases kept, the first standing in as the largest
SMALL = {
    "silting-ladder": ("A3", "N3"),
    "oracle-crosscheck": ("a2", "N3"),
    "spectra-lattices": ("paper36-serre", "paper36-torf", "local-V", "cambrian-a2-antichain4"),
}


def small_workload(name):
    full = benchwork.make_workload(name, 1, PERFBENCH.parent)
    cases = tuple(c for c in full.cases if c.name in SMALL[name])
    assert len(cases) == len(SMALL[name])
    return benchwork.Workload(name, cases, SMALL[name][0])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_no_problem(name):
    record = json.loads((PERFBENCH / "record.json").read_text(encoding="utf-8"))
    passes, _, problems = run.per_layer(small_workload(name), 0, record, None)
    assert problems == []
    assert all(p.failed == 0 for p in passes)
