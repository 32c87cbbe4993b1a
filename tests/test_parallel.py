"""Worker-pool sizing: the clamp is checked on the pure helper, so no
test here starts a process."""

import pytest

from wiretap_commit.errors import DomainError
from wiretap_commit.parallel import pool_size, usable_cpus


@pytest.mark.parametrize("threads,trials,cpus,expected", [
    (1, 100, 8, 1),
    (8, 100, 2, 2),     # capped by the CPUs
    (4, 3, 8, 3),       # capped by the trials
    (2, 100, 2, 2),
    (64, 1, 64, 1),
    (3, 0, 4, 1),       # an empty run still gets one (serial) worker
])
def test_pool_size_clamp(threads, trials, cpus, expected):
    assert pool_size(threads, trials, cpus) == expected


@pytest.mark.parametrize("threads", [0, -3])
def test_pool_size_rejects_threads_below_one(threads):
    with pytest.raises(DomainError):
        pool_size(threads, 10, 2)


def test_usable_cpus_positive():
    assert usable_cpus() >= 1
