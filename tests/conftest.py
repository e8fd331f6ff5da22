import os

import pytest


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that makes `spatial.usable_cpus` report a given count of
    CPUs, as a `taskset` would, until the test ends."""

    def set_cpus(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))

    return set_cpus
