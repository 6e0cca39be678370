"""Fixtures for the crash-consistency tests: a small aged all-SSD sim
whose bitmaps, delayed-free logs, snapshot pins, and AA caches carry
real history — the state the persistence model must round-trip."""

from __future__ import annotations

import pytest

from repro.bench.drills import crash_subject
from repro.workloads import RandomOverwriteWorkload


@pytest.fixture
def aged_sim():
    sim = crash_subject("aging", 11).sim
    sim.create_snapshot("volA", "hourly.0")
    sim.run(RandomOverwriteWorkload(sim, ops_per_cp=512, seed=12), 2)
    return sim
