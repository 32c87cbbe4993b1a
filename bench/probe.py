"""One set-up measurement in a fresh interpreter.

    python3 bench/probe.py <workload> <seed> <workers> <start_ns>

start_ns is the parent's time.monotonic_ns() just before it started
this interpreter (CLOCK_MONOTONIC is system-wide on Linux), so the
printed time covers interpreter start, package import, loading and
validating every job config and building params and channels.
"""

import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import jobs  # noqa: E402  (needs the package path above)


def main(argv):
    workload, seed, workers, start_ns = argv[0], int(argv[1]), int(argv[2]), int(argv[3])
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        jobs.setup(workload, ROOT, workdir, seed, workers)
        elapsed = (time.monotonic_ns() - start_ns) / 1e9
    finally:
        shutil.rmtree(workdir)
    print(f"{elapsed:.9f}")


if __name__ == "__main__":
    main(sys.argv[1:])
