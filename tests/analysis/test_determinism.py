"""Determinism regression tests: the property the D-rules guard.

Running the same scenario twice from one seed must yield bit-identical
per-CP statistics — any divergence means ambient entropy (set ordering,
unseeded RNG, wall clocks) leaked into the simulation."""

from __future__ import annotations

import dataclasses

from repro.bench.drills import scripted_schedule, scripted_subject
from repro.drill import run_drill
from repro.workloads import RandomOverwriteWorkload, fill_volumes

from ..conftest import small_ssd_sim


def run_chaos(seed: int):
    """The quick ``faults/scripted`` drill: ``(log, sim)``."""
    subject = scripted_subject(seed, ops_per_cp=1024, warmup_cps=3)
    return run_drill(subject, scripted_schedule(8), 8, seed=seed), subject.sim


def test_chaos_same_seed_identical_cpstats():
    """The full chaos path — mount fallbacks, scrub, escalation,
    degraded allocation, rebuild — replayed from one seed."""
    m1, s1 = run_chaos(77)
    m2, s2 = run_chaos(77)
    assert dataclasses.asdict(m1) == dataclasses.asdict(m2)
    cps1, cps2 = s1.metrics.cps, s2.metrics.cps
    assert len(cps1) == len(cps2) and len(cps1) > 0
    for a, b in zip(cps1, cps2):
        assert a == b  # dataclass equality: every field, exact floats


def test_chaos_different_seed_diverges():
    """Sanity check on the test itself: a different seed must change
    *something* in the fault schedule or the workload."""
    _, s1 = run_chaos(77)
    _, s2 = run_chaos(78)
    assert s1.metrics.cps != s2.metrics.cps


def test_workload_same_seed_identical_cpstats():
    runs = []
    for _ in range(2):
        sim = small_ssd_sim()
        fill_volumes(sim)
        sim.run(RandomOverwriteWorkload(sim, ops_per_cp=1024, seed=21), 6)
        runs.append(sim.metrics.cps)
    assert runs[0] == runs[1]
    assert len(runs[0]) > 0
