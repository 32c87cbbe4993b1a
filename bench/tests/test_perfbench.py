"""Tests of the benchmark's own code: span arithmetic, failure counting, seeds.

    python3 -m pytest bench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import jobs  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, self_times, summarise  # noqa: E402
from wiretap_commit import adversary, harness  # noqa: E402


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        ("root", 0.0, 10.0, -1, "j"),
        ("a", 1.0, 4.0, 0, "j"),
        ("b", 3.0, 6.0, 0, "j"),     # overlaps a: [1, 6] is covered once
        ("c", 9.0, 12.0, 0, "j"),    # overhangs the root: only [9, 10] counts
        ("d", 2.0, 3.0, 1, "j"),     # grandchild: covers a, not the root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])
    summary = summarise(spans + [("a", 20.0, 21.0, -1, "k")])
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == pytest.approx(4.0)
    assert summary["a"]["self_s"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_inherits_the_job_id():
    tracer = Tracer()
    with tracer.span("job", job="j1"):
        with tracer.span("layer"):
            pass
    with tracer.span("after"):
        pass
    (_, _, _, p0, j0), (_, _, _, p1, j1), (_, _, _, p2, j2) = tracer.spans
    assert (p0, p1, p2) == (-1, 0, -1)
    assert (j0, j1, j2) == ("j1", "j1", None)


def test_install_wraps_every_binding_and_uninstall_restores_it():
    original = adversary.binding_attack
    assert harness.binding_attack is original
    tracer = Tracer()
    layers.install(tracer, layers.TARGETS)
    try:
        assert adversary.binding_attack is not original
        assert harness.binding_attack is adversary.binding_attack
        assert harness.binding_attack.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert adversary.binding_attack is original and harness.binding_attack is original


def _raise():
    raise RuntimeError("boom")


def test_golden_mismatch_and_raised_job_both_count_as_failed():
    job_list = [
        jobs.Job("good", "k", 1, lambda: "same"),
        jobs.Job("raises", "k", 1, _raise),
        jobs.Job("drifted", "k", 1, lambda: "new output"),
    ]
    golden = {"good": jobs.digest("same"), "raises": jobs.digest("x"),
              "drifted": jobs.digest("old output")}
    outcomes = jobs.run_pass(job_list, golden)
    assert [o.ok for o in outcomes] == [True, False, False]
    assert "boom" in outcomes[1].error
    assert "golden" in outcomes[2].error
    assert jobs.failed_ratio(outcomes) == pytest.approx(2 / 3)


def test_broken_invariant_counts_as_failed():
    text = "\n".join([
        "# wiretap-commit-result kind=concealment",
        "metric,estimate,ci_lo,ci_hi",
        "concealment_sd_bob,1.5,,",
    ])
    outcomes = jobs.run_pass([jobs.Job("sd", "k", 1,
                                       lambda: jobs._check_concealment(text) or text)])
    assert jobs.failed_ratio(outcomes) == 1.0
    assert "InvariantError" in outcomes[0].error


def test_workload_seed_changes_the_job_inputs(tmp_path):
    _, c0 = jobs.session_inputs(0, 2000, 0, 737)
    _, c1 = jobs.session_inputs(1, 2000, 0, 737)
    assert c0 != c1
    assert jobs.session_inputs(0, 2000, 0, 737)[1] == c0

    def first_session(seed):
        return jobs.setup("sessions", ROOT, str(tmp_path), seed, 1)[0].run()

    assert first_session(0) == first_session(0)
    assert first_session(0) != first_session(1)


def test_benchmark_json_lists_the_per_layer_metrics_a_traced_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(layers.PER_LAYER)
    assert set(layers.pass_metrics(Tracer())) == {name for name, _, _ in layers.PER_LAYER[:-2]}
