"""Each demo script runs in a fresh interpreter, exits 0, writes nothing
to stderr, and prints exactly the output recorded for it.  The demos
are deterministic, so a changed digest means a changed result (or a
changed draw contract), not noise."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

# sha256 of each demo's stdout, recorded before Monte Carlo draws moved
# to raw Philox words; they must not change unless a result does
STDOUT_SHA256 = {
    "binding_attack_anatomy.py":
        "a3f37ffe05bcfb684c272beb43f1b70e79d38cc02dfe91e3d53bfa4619b14164",
    "capacity_landscape.py":
        "a07e26f935a06aff5c6d41e6040973bd8739eac95cccd9c38944aec2f85487da",
    "concealment_exact_small.py":
        "9d7c5f55b6408f44750408a100b004fc40efd1171876ff1827246a04aab18e3c",
    "eve_channel_simulation.py":
        "fdbd4f579c78cc53dc67bab7a8bf5280eeacacb5db5ea5ee6bc1a465f2d4a1d3",
    "protocol_walkthrough.py":
        "259f993cc709ef19ab46350fbce3190999ac4c6c25d348077ef3310ad70a24aa",
    "soundness_vs_chernoff.py":
        "a24bd7b2c5f73b027748f3b256793ec13e418c00dbfa24bc280da43d06912ef3",
}


def test_every_demo_has_a_recorded_output():
    scripts = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))
    assert scripts == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[script]
