"""Crash-point registry: span edges of a real CP enumerate correctly,
an armed tracer kills the CP at exactly the chosen edge, and the
previous tracer is always restored."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import obs
from repro.common import CrashError
from repro.crash import CrashTracer, record_crash_points
from repro.crash.registry import (
    BOUNDARY_SPAN,
    EDGE_ENTER,
    EDGE_EXIT,
    boundary_enter_index,
)
from repro.workloads import RandomOverwriteWorkload


@pytest.fixture
def batch(aged_sim):
    return next(iter(RandomOverwriteWorkload(aged_sim, ops_per_cp=256, seed=9)))


def record(sim, batch):
    probe = copy.deepcopy(sim)
    return record_crash_points(lambda: probe.engine.run_cp(batch))


class TestRecording:
    def test_edges_bracket_the_cp(self, aged_sim, batch):
        edges = record(aged_sim, batch)
        assert edges[0].name == "cp" and edges[0].edge == EDGE_ENTER
        assert edges[-1].name == "cp" and edges[-1].edge == EDGE_EXIT
        assert [e.index for e in edges] == list(range(len(edges)))

    def test_pipeline_spans_are_injectable(self, aged_sim, batch):
        """Every stage the CP engine instruments shows up as crash
        sites with no new hooks: per-volume allocation, the boundary
        flush, and the enclosing cp span."""
        edges = record(aged_sim, batch)
        names = {e.name for e in edges}
        assert {"cp", "cp.allocate", BOUNDARY_SPAN} <= names
        boundary = [e for e in edges if e.name == BOUNDARY_SPAN]
        assert {e.edge for e in boundary} == {EDGE_ENTER, EDGE_EXIT}

    def test_window_and_commit_indexes(self, aged_sim, batch):
        edges = record(aged_sim, batch)
        window = boundary_enter_index(edges)
        commit = edges[-1]
        assert window is not None
        # The write window opens strictly inside the CP and the cp exit,
        # the modeled superblock switch, is the last edge of a bare run_cp.
        assert (commit.name, commit.edge) == ("cp", EDGE_EXIT)
        assert 0 < window < commit.index

    def test_recording_is_deterministic(self, aged_sim, batch):
        a = [(e.name, e.edge) for e in record(aged_sim, batch)]
        b = [(e.name, e.edge) for e in record(aged_sim, batch)]
        assert a == b

    def test_previous_tracer_restored_even_on_error(self):
        sentinel = CrashTracer()
        prev = obs.install_tracer(sentinel)
        try:
            def boom():
                raise ValueError("inside the dry run")

            with pytest.raises(ValueError):
                record_crash_points(boom)
            assert obs.install_tracer(prev) is sentinel
        finally:
            obs.install_tracer(prev)


class TestInjection:
    def crash_at(self, sim, batch, index):
        trial = copy.deepcopy(sim)
        tracer = CrashTracer(crash_at=index)
        prev = obs.install_tracer(tracer)
        try:
            with pytest.raises(CrashError, match="injected crash"):
                trial.engine.run_cp(batch)
        finally:
            obs.install_tracer(prev)
        return trial, tracer

    def test_crash_at_first_edge_leaves_state_untouched(self, aged_sim, batch):
        before = {
            "cp": aged_sim.engine.cp_index,
            "free": aged_sim.vol("volA").metafile.free_count,
        }
        trial, tracer = self.crash_at(aged_sim, batch, 0)
        assert tracer.crashed is not None
        assert tracer.crashed.label == "#0 cp:enter"
        assert trial.engine.cp_index == before["cp"]
        assert trial.vol("volA").metafile.free_count == before["free"]

    def test_crash_in_write_window_keeps_old_cp_index(self, aged_sim, batch):
        """run_cp increments its counter only after the cp span closes,
        so every crash inside the CP recovers to CP N-1."""
        edges = record(aged_sim, batch)
        window = boundary_enter_index(edges)
        trial, tracer = self.crash_at(aged_sim, batch, window)
        assert tracer.crashed.name == BOUNDARY_SPAN
        assert trial.engine.cp_index == aged_sim.engine.cp_index

    def test_crash_at_commit_edge_completed_the_work(self, aged_sim, batch):
        """The cp exit edge fires after the span closed: the CP's
        writes are all done, only the counter bump — and the post-commit
        trims of the blocks it freed — were lost."""
        edges = record(aged_sim, batch)
        trial, tracer = self.crash_at(aged_sim, batch, edges[-1].index)
        assert (tracer.crashed.name, tracer.crashed.edge) == ("cp", EDGE_EXIT)
        assert trial.engine.cp_index == aged_sim.engine.cp_index
        assert trial.metrics.cps[-1].blocks_freed > 0
        for before, after in zip(aged_sim.store.devices, trial.store.devices):
            held = np.flatnonzero(before.live(np.arange(before.nblocks)))
            assert after.live(held).all(), after.name

    def test_unreached_edge_never_fires(self, aged_sim, batch):
        trial = copy.deepcopy(aged_sim)
        tracer = CrashTracer(crash_at=10_000)
        prev = obs.install_tracer(tracer)
        try:
            trial.engine.run_cp(batch)
        finally:
            obs.install_tracer(prev)
        assert tracer.crashed is None
        assert trial.engine.cp_index == aged_sim.engine.cp_index + 1
