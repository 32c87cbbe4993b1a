"""One pass of every benchmark job at seed 0 matches its golden digest.

The benchmark (bench/run.py) refuses a change whose outputs differ from
bench/golden.json; this runs the same jobs once, so a changed output
byte shows in the test suite too.  It reads the bench files and writes
only into a temporary directory.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH)

import jobs  # noqa: E402


@pytest.mark.parametrize("workload,workers", [
    ("exact", 1), ("montecarlo", 1), ("montecarlo", 2), ("sessions", 1),
])
def test_one_pass_matches_the_golden_digests(tmp_path, workload, workers):
    # the Monte Carlo outputs must not depend on the worker count
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    job_list = jobs.setup(workload, ROOT, str(tmp_path), golden["seed"], workers)
    outcomes = jobs.run_pass(job_list, golden["workloads"][workload])
    assert [(o.job.name, o.error) for o in outcomes if not o.ok] == []
    assert len(outcomes) == len(golden["workloads"][workload])
