"""Unit tests for the structured tracer: the disabled no-op path, the
ring buffer, the deterministic sim clock, and CP association."""

from __future__ import annotations

from repro import obs
from repro.obs.tracer import _NULL_SPAN, KIND_COUNTER, KIND_SPAN


class TestDisabled:
    def test_span_returns_shared_null_span(self):
        # Zero-cost path: no allocation, same object every call.
        assert obs.span("x") is _NULL_SPAN
        assert obs.span("y", vol="a") is _NULL_SPAN

    def test_null_span_is_reentrant_context_manager(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass

    def test_helpers_are_noops(self):
        obs.count("n", 4, tag="t")
        obs.advance_us(10.0)
        obs.sync_us(99.0)
        obs.set_cp(3)
        assert not obs.active()
        assert obs.get_tracer() is None
        assert list(obs.iter_records()) == []


class TestInstall:
    def test_install_returns_active_tracer(self):
        t = obs.install()
        assert obs.active()
        assert obs.get_tracer() is t

    def test_install_replaces_previous_tracer(self):
        obs.install()
        obs.count("stale")
        t = obs.install()
        assert len(t) == 0

    def test_uninstall_reverts_to_noops(self):
        obs.install()
        obs.uninstall()
        assert obs.span("x") is _NULL_SPAN


class TestRecording:
    def test_nested_spans_record_depth_and_duration(self):
        t = obs.install()
        with obs.span("outer", vol="v0"):
            obs.advance_us(5.0)
            with obs.span("inner"):
                obs.advance_us(7.0)
        outer, inner = t.records()
        assert (inner.name, inner.depth, inner.dur_us) == ("inner", 1, 7.0)
        assert (outer.name, outer.depth, outer.dur_us) == ("outer", 0, 12.0)
        assert outer.tags == (("vol", "v0"),)

    def test_records_are_seq_sorted_open_order(self):
        t = obs.install()
        with obs.span("a"):      # seq 0, closes last
            with obs.span("b"):  # seq 1, closes first
                pass
        assert [r.name for r in t.records()] == ["a", "b"]

    def test_counter_record_carries_value_and_tags(self):
        t = obs.install()
        obs.count("cp.physical_blocks", 42, where="group:0")
        (r,) = t.records()
        assert r.kind == KIND_COUNTER
        assert (r.name, r.value) == ("cp.physical_blocks", 42.0)
        assert r.tags == (("where", "group:0"),)

    def test_span_kind(self):
        t = obs.install()
        with obs.span("s"):
            pass
        assert t.records()[0].kind == KIND_SPAN

    def test_to_dict_omits_empty_tags(self):
        t = obs.install()
        obs.count("a")
        obs.count("b", tag="x")
        first, second = (r.to_dict() for r in t.records())
        assert "tags" not in first
        assert second["tags"] == {"tag": "x"}


class TestClock:
    def test_advance_accumulates(self):
        t = obs.install()
        obs.advance_us(3.0)
        obs.advance_us(4.5)
        assert t.clock_us == 7.5

    def test_sync_is_monotonic(self):
        t = obs.install()
        obs.sync_us(10.0)
        obs.sync_us(4.0)  # backwards: ignored
        assert t.clock_us == 10.0
        obs.sync_us(12.0)
        assert t.clock_us == 12.0

    def test_timestamps_come_from_sim_clock(self):
        t = obs.install()
        obs.advance_us(100.0)
        obs.count("n")
        assert t.records()[0].ts_us == 100.0


class TestCPAssociation:
    def test_records_tagged_with_current_cp(self):
        t = obs.install()
        assert t.cp == -1
        obs.set_cp(2)
        obs.count("n")
        assert t.records()[0].cp == 2

    def test_cp_totals_accumulate_and_reset(self):
        t = obs.install()
        obs.set_cp(0)
        obs.count("cp.virtual_blocks", 10)
        obs.count("cp.virtual_blocks", 5)
        assert t.cp_totals == {"cp.virtual_blocks": 15.0}
        obs.set_cp(1)
        assert t.cp_totals == {}


class TestRingBuffer:
    def test_eviction_is_fifo_and_counted(self):
        t = obs.install(ring_capacity=4)
        for i in range(6):
            obs.count(f"c{i}")
        assert len(t) == 4
        assert t.dropped == 2
        assert [r.name for r in t.records()] == ["c2", "c3", "c4", "c5"]

    def test_no_drops_below_capacity(self):
        t = obs.install(ring_capacity=8)
        for _ in range(8):
            obs.count("c")
        assert t.dropped == 0
