import os
from types import SimpleNamespace

import numpy as np
import pytest

from geonlf.spatial import NearestCache


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that makes `spatial.usable_cpus` report a given count of
    CPUs, as a `taskset` would, until the test ends."""

    def set_cpus(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))

    return set_cpus


@pytest.fixture
def cache_audit(monkeypatch):
    """Checks every `spatial.NearestCache.query` answer against a fresh
    `KdTree.query_many` until the test ends, and records the points each
    call answered and those it queried afresh. Lists, since pool threads
    append to them at once."""
    audit = SimpleNamespace(answered=[], requeried=[])
    query, anchor = NearestCache.query, NearestCache._anchor

    def checked_query(self, queries):
        got = query(self, queries)
        want, _ = self.tree.query_many(queries)
        np.testing.assert_array_equal(got, want)
        audit.answered.append(len(queries))
        return got

    def counted_anchor(self, stale, moved):
        audit.requeried.append(len(stale))
        return anchor(self, stale, moved)

    monkeypatch.setattr(NearestCache, "query", checked_query)
    monkeypatch.setattr(NearestCache, "_anchor", counted_anchor)
    return audit
