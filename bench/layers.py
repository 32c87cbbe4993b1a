"""Which package functions the traced run wraps, and the per-layer metrics.

Each target is a public function (or method) of one layer; its span
name is `<module>.<function>`.  The two capacity formulas share the
span `measures.capacity`.  Counts that are not call counts come from
the call's arguments or result, as noted next to each annotator.
"""

from __future__ import annotations

from wiretap_commit import (
    adversary, bits, channel, harness, hashing, measures, parallel, protocol, rng,
)

from spans import summarise


def _hash_work(args, kwargs, result):
    # the l x n int64 product hash_evaluate computes
    work = args[0].input_bits * args[0].output_bits
    return {"bitops": work, "bytes": 8 * work}


def _rejection(args, kwargs, result):
    return {} if result.accepted else {f"rejected_c{result.failed_condition}": 1}


def _useful(args, kwargs, result):
    # mean confusable-set size over the 2^n candidate words
    return {"useful": result.details["mean_confusables"] / 2 ** result.n}


def _pool_size(args, kwargs, result):
    seeds = args[2]
    threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
    if threads is None or threads <= 1 or len(seeds) <= 1:
        return {"workers": 1}
    return {"workers": min(threads, len(seeds))}


TARGETS = (
    (harness.ExperimentConfig, "validate", "harness.validate", None),
    (harness.ResultTable, "render", "harness.render", lambda a, k, r: {"bytes": len(r)}),
    (harness, "run_replay", "harness.run_replay", None),
    (measures, "rate_bound_two_private", "measures.rate_bound_two_private", None),
    (measures, "capacity_one_private", "measures.capacity", None),
    (measures, "capacity_two_private", "measures.capacity", None),
    (hashing, "hash_evaluate", "hashing.hash_evaluate", _hash_work),
    (hashing, "hash_all_inputs", "hashing.hash_all_inputs",
     lambda a, k, r: {"words": len(r)}),
    (hashing, "sample_hash", "hashing.sample_hash", None),
    (channel, "transmit", "channel.transmit", lambda a, k, r: {"symbols": len(a[1])}),
    (protocol, "commit_phase", "protocol.commit_phase", None),
    (protocol, "bob_test", "protocol.bob_test", _rejection),
    (protocol, "session_to_config", "protocol.session_to_config", None),
    (protocol, "session_from_config", "protocol.session_from_config", None),
    (rng, "trial_seeds", "rng.trial_seeds", lambda a, k, r: {"seeds": len(r)}),
    (adversary, "estimate_soundness", "adversary.estimate_soundness", None),
    (adversary, "binding_attack", "adversary.binding_attack", _useful),
    (adversary, "concealment_monte_carlo", "adversary.concealment_monte_carlo", None),
    (adversary, "concealment_exact", "adversary.concealment_exact", None),
    (parallel, "map_trials", "parallel.map_trials", _pool_size),
)

MAP_TRIALS = TARGETS[-1]

# (metric, unit, better); the last two are computed by run.py from
# several passes, everything else from one traced pass
PER_LAYER = (
    ("harness.validate.self_s", "s", "lower"),
    ("harness.render.self_s", "s", "lower"),
    ("harness.render.bytes", "B", "lower"),
    ("harness.run_replay.self_s", "s", "lower"),
    ("measures.rate_bound_two_private.calls", "count", "lower"),
    ("measures.rate_bound_two_private.self_s", "s", "lower"),
    ("measures.capacity.self_s", "s", "lower"),
    ("hashing.hash_evaluate.calls", "count", "lower"),
    ("hashing.hash_evaluate.self_s", "s", "lower"),
    ("hashing.hash_evaluate.bitops", "count", "lower"),
    ("hashing.hash_evaluate.bytes", "B", "lower"),
    ("hashing.hash_all_inputs.calls", "count", "lower"),
    ("hashing.hash_all_inputs.self_s", "s", "lower"),
    ("hashing.hash_all_inputs.words", "count", "lower"),
    ("hashing.sample_hash.self_s", "s", "lower"),
    ("channel.transmit.calls", "count", "lower"),
    ("channel.transmit.self_s", "s", "lower"),
    ("channel.transmit.symbols", "count", "lower"),
    ("protocol.commit_phase.calls", "count", "lower"),
    ("protocol.commit_phase.self_s", "s", "lower"),
    ("protocol.bob_test.calls", "count", "lower"),
    ("protocol.bob_test.self_s", "s", "lower"),
    ("protocol.bob_test.rejected_c1", "count", "lower"),
    ("protocol.bob_test.rejected_c2", "count", "lower"),
    ("protocol.bob_test.rejected_c3", "count", "lower"),
    ("protocol.session_to_config.self_s", "s", "lower"),
    ("protocol.session_from_config.self_s", "s", "lower"),
    ("protocol.transcript_bytes", "B", "lower"),
    ("bits.BitVector.created", "count", "lower"),
    ("rng.trial_seeds.self_s", "s", "lower"),
    ("rng.trial_seeds.seeds", "count", "lower"),
    ("adversary.estimate_soundness.self_s", "s", "lower"),
    ("adversary.binding_attack.self_s", "s", "lower"),
    ("adversary.binding_attack.useful_ratio", "ratio", "higher"),
    ("adversary.concealment_monte_carlo.self_s", "s", "lower"),
    ("adversary.concealment_exact.self_s", "s", "lower"),
    ("parallel.map_trials.calls", "count", "lower"),
    ("parallel.map_trials.wall_s", "s", "lower"),
    ("parallel.map_trials.workers", "count", "higher"),
    ("parallel.pool_efficiency", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def install(tracer, targets):
    """Wrap the given targets; the full TARGETS also count BitVectors."""
    for owner, attribute, name, annotate in targets:
        tracer.install(owner, attribute, name, annotate)
    if targets is TARGETS:
        tracer.install_counter(bits.BitVector, "bits.BitVector.created")


def pass_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass (zero for layers not called)."""
    summary = summarise(tracer.spans)
    counters = tracer.counters
    out = {}
    for metric, _, _ in PER_LAYER[:-2]:
        span, _, field = metric.rpartition(".")
        entry = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        calls = entry["calls"]
        if field in ("calls", "self_s"):
            out[metric] = entry[field]
        elif field == "wall_s":
            out[metric] = entry["total_s"]
        elif field == "useful_ratio":
            out[metric] = counters.get(f"{span}.useful", 0.0) / calls if calls else 0.0
        elif field == "workers":
            out[metric] = counters.get(metric, 0) / calls if calls else 0.0
        else:
            out[metric] = counters.get(metric, 0)
    return out
