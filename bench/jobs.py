"""The benchmark's workloads: their jobs, set-up and correctness checks.

A workload is a fixed list of jobs.  One pass runs every job once, in
order, each job waiting for the previous one (a closed loop with one
caller).  Config-driven jobs go through `cli.main` in-process; session
jobs go through the `protocol`/`harness` library API.  Every job
returns its output text, whose sha256 is the job's digest, and raises
on any broken invariant.

The workload seed replaces every job's config seed (through the CLI
`--seed` flag) and seeds every session, so the same seed gives the same
inputs.  The exact enumerations draw no randomness: their outputs carry
the seed in the table metadata but are otherwise the same at any seed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wiretap_commit import bits, cli, harness, protocol, rng

# sessions per pass at each block length (the soundness demo's parameters)
SESSIONS_PER_PASS = {2000: 100, 8000: 4}


class InvariantError(Exception):
    """A job produced output that breaks one of its invariants."""


@dataclass
class Job:
    name: str                 # unique within the workload, keys the golden digest
    kind: str                 # report group: capacity, concealment, soundness, ...
    items: int                # grid points, trials or sessions, for rates
    run: Callable[[], str]    # returns the output text, raises on failure


@dataclass
class Outcome:
    job: Job
    seconds: float
    digest: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_job(job: Job, golden=None) -> Outcome:
    """Run one job, time it and check its digest against golden[job.name]."""
    start = time.perf_counter()
    try:
        text = job.run()
    except Exception as e:  # a failing job is recorded, the pass goes on
        return Outcome(job, time.perf_counter() - start,
                       error=f"{type(e).__name__}: {e}")
    outcome = Outcome(job, time.perf_counter() - start, digest(text))
    if golden is not None:
        expected = golden.get(job.name)
        if expected is None:
            outcome.error = "no golden digest for this job"
        elif expected != outcome.digest:
            outcome.error = f"digest {outcome.digest[:12]} != golden {expected[:12]}"
    return outcome


def run_pass(jobs, golden=None, tracer=None):
    """Run every job once, in order; each job gets its own root span."""
    outcomes = []
    for job in jobs:
        if tracer is None:
            outcomes.append(run_job(job, golden))
        else:
            with tracer.span("job", job=job.name):
                outcomes.append(run_job(job, golden))
    return outcomes


def failed_ratio(outcomes) -> float:
    return sum(not o.ok for o in outcomes) / len(outcomes)


# ---------------------------------------------------------------------------
# config-driven jobs (through the CLI)


def _rows(text: str):
    table = harness.ResultTable.from_csv(text)
    return [dict(zip(table.columns, row)) for row in table.rows]


def _check_capacity(text):
    for row in _rows(text):
        if not row["rate_bound_2"] >= row["capacity_2"] - 1e-9:
            raise InvariantError(
                f"rate_bound_2 {row['rate_bound_2']} < capacity_2 {row['capacity_2']} "
                f"at p={row['p']}, q={row['q']}")


def _check_concealment(text):
    for row in _rows(text):
        metric, value = row["metric"], row["estimate"]
        if metric.startswith("concealment_sd_") and not 0.0 <= value <= 1.0:
            raise InvariantError(f"{metric} = {value} outside [0, 1]")
        if metric.startswith("concealment_mi_") and not value >= 0.0:
            raise InvariantError(f"{metric} = {value} < 0")


def _check_interval(text):
    for row in _rows(text):
        if not row["ci_lo"] <= row["estimate"] <= row["ci_hi"]:
            raise InvariantError(
                f"{row['metric']} = {row['estimate']} outside its interval "
                f"[{row['ci_lo']}, {row['ci_hi']}]")


def _cli_job(name, kind, items, config_path, seed, threads, check):
    # job kinds are named after the CLI subcommand that runs them
    argv = [kind, "--config", config_path, "--seed", str(seed),
            "--threads", str(threads), "--format", "csv"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        check(text)
        return text

    return Job(name, kind, items, run)


def _validate(doc, seed, threads):
    """Load a config the way the CLI does and run its validation."""
    doc = copy.deepcopy(doc)
    doc.setdefault("version", harness.CONFIG_VERSION)
    doc["seed"] = seed
    doc["threads"] = threads
    return harness.ExperimentConfig.from_dict(doc).validate()


def _load(root, name):
    with open(os.path.join(root, "demos", "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _exact_specs(root):
    capacity = _load(root, "capacity.json")
    lg1 = _load(root, "concealment_exact.json")
    lg2 = copy.deepcopy(lg1)
    lg2["params"]["challenge_bits"] = 2
    steps = int(capacity["grid"]["steps"])
    return [
        ("capacity", "capacity", steps * steps, capacity, _check_capacity),
        ("concealment_lg1", "concealment", 1, lg1, _check_concealment),
        ("concealment_lg2", "concealment", 1, lg2, _check_concealment),
    ]


def _montecarlo_specs(root):
    soundness = _load(root, "soundness.json")
    binding = _load(root, "binding.json")
    secrecy = _load(root, "secrecy_mc.json")
    sweep = _load(root, "soundness_sweep.json")
    return [
        ("soundness", "soundness", soundness["trials"], soundness, _check_interval),
        ("binding_alone", "binding", binding["trials"], binding, _check_interval),
        ("binding_with_eve", "binding", binding["trials"],
         dict(binding, mode="with_eve"), _check_interval),
        # the distinguisher trains and tests on `trials` sessions each
        ("secrecy", "secrecy", 2 * secrecy["trials"], secrecy, _check_interval),
        ("sweep", "sweep", len(sweep["sweep"]["values"]) * sweep["trials"], sweep,
         _check_interval),
    ]


# ---------------------------------------------------------------------------
# session jobs (through the library API)


def session_inputs(seed: int, n: int, index: int, commit_bits: int):
    """The session's generator and commit string, both from the workload seed."""
    session_rng = rng.make_rng(np.random.SeedSequence([seed, n, index]))
    return session_rng, bits.BitVector.random(session_rng, commit_bits)


def _session_job(name, seed, n, index, params, channel, tracer=None):
    def run():
        session_rng, c = session_inputs(seed, n, index, params.commit_bits)
        session = protocol.commit_phase(params, c, channel, session_rng)
        x = session.alice_view.x
        honest = protocol.bob_test(session.bob_view, session.transcript,
                                   protocol.RevealClaim(c_tilde=c, x_tilde=x), params)
        if not honest.accepted:
            raise InvariantError(f"honest reveal rejected on condition "
                                 f"{honest.failed_condition}")
        flipped = c.bits.copy()
        flipped[0] ^= 1
        tampered = protocol.bob_test(
            session.bob_view, session.transcript,
            protocol.RevealClaim(c_tilde=bits.BitVector(flipped), x_tilde=x), params)
        if tampered.failed_condition != 3:
            raise InvariantError(f"tampered c gave {tampered}, expected rejection "
                                 "on condition 3")
        transcript = json.dumps(protocol.session_to_config(session, params),
                                sort_keys=True)
        if tracer is not None:
            tracer.count("protocol.transcript_bytes", len(transcript))
        replay = harness.run_replay(json.loads(transcript)).render("csv")
        if _rows(replay)[0]["accepted"] is not True:
            raise InvariantError("replay of an honest transcript rejected")
        return transcript + "\n" + replay

    return Job(name, f"session_n{n}", 1, run)


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, root: str, workdir: str, seed: int, workers: int,
          tracer=None):
    """Load and validate every job config, build params and channels.

    Returns the workload's job list.  Each config-driven job's config
    (a demo config, or one derived from it such as binding with Eve)
    is written to workdir, where the CLI reads it.
    """
    if workload == "sessions":
        demo = _load(root, "soundness.json")
        jobs = []
        for n, count in SESSIONS_PER_PASS.items():
            doc = copy.deepcopy(demo)
            doc["params"]["n"] = n
            config = _validate(doc, seed, 1)
            params = config.build_params()
            channel = config.build_channel(params)
            jobs += [_session_job(f"n{n}/{i:03d}", seed, n, i, params, channel, tracer)
                     for i in range(count)]
        return jobs
    if workload == "exact":
        specs, threads = _exact_specs(root), 1
    elif workload == "montecarlo":
        specs, threads = _montecarlo_specs(root), workers
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    for name, kind, items, doc, check in specs:
        _validate(doc, seed, threads)
        path = _write(workdir, f"{name}.json", doc)
        jobs.append(_cli_job(name, kind, int(items), path, seed, threads, check))
    return jobs
