"""wiretap-commit benchmark.

    python3 bench/run.py --workload exact|montecarlo|sessions|all \
        [--seed N] [--seconds S] [--trace 0|1] [--record-golden]

Run from the root of a checkout.  A run repeats passes over the
workload's jobs for about --seconds seconds (at least three passes),
checks every job's output, and prints a run manifest, every job's
output digest, the workload's metrics by name with units, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones.  `--workload all` runs
the three workloads, each in a fresh interpreter.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("exact", "montecarlo", "sessions")
DEFAULT_SEED = 0          # the seed the golden digests were recorded at
MIN_PASSES = 3
SETUP_PROBES = 11
MAX_WORKERS = 8           # cap on the montecarlo pool, whatever the core count
REQUIRED = ("src/wiretap_commit/__init__.py", "demos/configs/soundness.json")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers_for(workload: str) -> int:
    return min(nproc(), MAX_WORKERS) if workload == "montecarlo" else 1


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, seed, workers):
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed),
             str(workers), str(start)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def keep_going(walls, started, seconds, at_least=MIN_PASSES) -> bool:
    """Another pass if fewer than at_least ran, or if ending after it
    lands closer to `seconds` than ending now."""
    if len(walls) < at_least:
        return True
    return time.perf_counter() - started + statistics.median(walls) / 2 <= seconds


class Checker:
    """Collects outcomes; flags golden mismatches and pass-to-pass drift."""

    def __init__(self, golden):
        self.golden = golden
        self.first = {}
        self.outcomes = []

    def add(self, outcomes, pass_index):
        for o in outcomes:
            name = o.job.name
            if o.ok and self.first.setdefault(name, o.digest) != o.digest:
                o.error = f"digest differs from the first pass ({self.first[name][:12]})"
            if not o.ok:
                print(f"FAILED {name} (pass {pass_index}): {o.error}")
        self.outcomes += outcomes

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def report_metrics(workload, outcomes) -> dict:
    """The workload's own metrics, named as in bench/README.md."""
    times = {}
    items = {}
    for o in outcomes:
        times.setdefault(o.job.kind, []).append(o.seconds)
        items[o.job.kind] = o.job.items
    med = {kind: statistics.median(ts) for kind, ts in times.items()}
    if workload == "exact":
        return {
            "capacity_points_per_s": (items["capacity"] / med["capacity"], "1/s"),
            "concealment_exact_s": (med["concealment"], "s"),
        }
    if workload == "montecarlo":
        return {f"{kind}_trials_per_s": (items[kind] / med[kind], "1/s")
                for kind in ("soundness", "binding", "secrecy", "sweep")}
    small = times["session_n2000"]
    return {
        "session_p50_ms": (1e3 * statistics.median(small), "ms"),
        "session_p90_ms": (1e3 * statistics.quantiles(small, n=10)[-1], "ms"),
        "session_n8000_ms": (1e3 * med["session_n8000"], "ms"),
    }


def untraced(jobs, workload, seed, workers, seconds, checker, workdir):
    job_list = jobs.setup(workload, ROOT, workdir, seed, workers)
    walls, cpus = [], []
    started = time.perf_counter()
    while keep_going(walls, started, seconds):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        outcomes = jobs.run_pass(job_list, checker.golden)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        checker.add(outcomes, len(walls))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - jobs.failed_ratio(checker.outcomes), "ratio"),
    }
    return metrics, len(walls)


def traced(jobs, workload, seed, workers, seconds, checker, workdir):
    """Per-layer metrics: medians over traced passes, plus pool and overhead ratios.

    Spans inside pool workers are invisible here, so montecarlo's
    traced passes run the trial layers at 1 worker, and its reference
    passes keep only the map_trials span, at 1 worker; one more
    map_trials-only pass at the run's worker count gives the pool
    figures.  Elsewhere the reference passes are untraced.  A first
    reference pass warms caches and is not timed; after it, traced and
    reference passes alternate, and trace.overhead_ratio is the ratio
    of their median walls.
    """
    import layers
    from spans import Tracer

    tracer = Tracer()
    started = time.perf_counter()
    pool = workload == "montecarlo"
    trace_workers = 1 if pool else workers
    reference = (layers.MAP_TRIALS,) if pool else ()

    def one_pass(count, targets, label):
        tracer.reset()
        layers.install(tracer, targets)
        try:
            with tracer.span("job", job="setup"):
                job_list = jobs.setup(workload, ROOT, workdir, seed, count, tracer)
            t0 = time.perf_counter()
            outcomes = jobs.run_pass(job_list, checker.golden, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        checker.add(outcomes, label)
        return wall, layers.pass_metrics(tracer)

    one_pass(trace_workers, reference, "warm-up")
    metrics = {}
    if pool:
        _, at_n = one_pass(workers, reference, f"map_trials at {workers} workers")
        metrics = {k: v for k, v in at_n.items() if k.startswith("parallel.map_trials.")}

    traced_walls, reference_walls, per_pass, per_reference = [], [], [], []
    while keep_going([a + b for a, b in zip(traced_walls, reference_walls)],
                     started, seconds, at_least=1):
        wall, values = one_pass(trace_workers, layers.TARGETS, f"traced {len(traced_walls) + 1}")
        traced_walls.append(wall)
        per_pass.append(values)
        wall, values = one_pass(trace_workers, reference, f"reference {len(reference_walls) + 1}")
        reference_walls.append(wall)
        per_reference.append(values)

    for name in per_pass[0]:
        metrics.setdefault(name, statistics.median(p[name] for p in per_pass))
    metrics["parallel.pool_efficiency"] = 0.0
    if pool:
        single = statistics.median(p["parallel.map_trials.wall_s"] for p in per_reference)
        metrics["parallel.pool_efficiency"] = single / (
            metrics["parallel.map_trials.workers"] * metrics["parallel.map_trials.wall_s"])
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(reference_walls))
    note = (f"traced passes ran the trial layers at {trace_workers} worker; "
            f"map_trials figures are from a pass at {workers} workers"
            if pool else f"traced passes ran at {trace_workers} worker")
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: (metrics[name], units[name]) for name in units}, len(traced_walls), note


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=600)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help=f"write this run's digests to golden.json (seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {ROOT} is not a wiretap-commit checkout (missing {missing})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.record_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden digests are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    workload, seed = args.workload, args.seed
    workers = workers_for(workload)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        setup_s = measure_setup(workload, seed, workers) if not args.trace else None
        sys.path.insert(1, os.path.join(ROOT, "src"))
        import jobs
        import numpy
        import wiretap_commit

        golden = None
        if seed == DEFAULT_SEED and not args.record_golden:
            with open(GOLDEN, encoding="utf-8") as fh:
                golden = json.load(fh)["workloads"][workload]
        checker = Checker(golden)
        note = None
        if args.trace:
            metrics, passes, note = traced(jobs, workload, seed, workers, args.seconds,
                                           checker, workdir)
        else:
            metrics, passes = untraced(jobs, workload, seed, workers, args.seconds,
                                       checker, workdir)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    manifest = {
        "workload": workload, "seed": seed, "trace": args.trace, "passes": passes,
        "seconds": args.seconds, "nproc": nproc(), "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "package": wiretap_commit.__version__, "commit": git_commit(),
        "golden_checked": golden is not None,
    }
    if note:
        manifest["note"] = note
    print("manifest " + json.dumps(manifest, sort_keys=True))
    digests = {}
    for o in checker.outcomes:
        if o.ok:
            digests.setdefault(o.job.name, o.digest)
    for name, value in digests.items():
        print(f"digest {workload}/{name} {value}")
    if not args.trace:
        metrics_out = dict(metrics)
        metrics_out["failed_ratio"] = (jobs.failed_ratio(checker.outcomes), "ratio")
        metrics_out.update(report_metrics(workload, checker.outcomes))
    else:
        metrics_out = metrics
    for name, (value, unit) in metrics_out.items():
        print(f"metric {name} = {value:.6g} {unit}")

    if args.record_golden:
        with open(GOLDEN, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["seed"] = DEFAULT_SEED
        doc["workloads"][workload] = digests
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    result = {
        "correct": checker.failed == 0,
        "attempted": len(checker.outcomes),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
