import pytest

from wiretap_commit import parallel


@pytest.fixture
def fork_small_calls(monkeypatch):
    """Let map_trials fork however little work a call has, on two CPUs,
    so the small cases of a test run the forked path."""
    monkeypatch.setattr(parallel, "FORK_WORK", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
