"""Exporter tests: Chrome trace_event validity, and the byte-for-byte
determinism the format guarantees."""

from __future__ import annotations

import json

from repro import obs


def traced_workload():
    """A small deterministic synthetic trace; returns the records."""
    t = obs.install()
    for cp in range(2):
        obs.set_cp(cp)
        obs.count("cp.begin", cp=cp)
        with obs.span("cp", interval=cp):
            with obs.span("cp.allocate", vol="v0", blocks=8):
                obs.advance_us(3.0)
                obs.count("cp.virtual_blocks", 8, where="vol:v0")
            with obs.span("cp.boundary"):
                obs.advance_us(11.0)
                obs.count("cp.physical_blocks", 8, where="store")
    records = t.records()
    obs.uninstall()
    return records


class TestChrome:
    def test_one_event_per_record(self):
        records = traced_workload()
        events = obs.export.chrome_events(records)
        assert len(events) == len(records)
        assert events[0]["name"] == "cp.begin"
        assert {e["ph"] for e in events} == {"X", "C"}

    def test_empty_records_no_events(self):
        assert json.loads(obs.export.to_chrome([]))["traceEvents"] == []

    def test_document_structure(self):
        doc = json.loads(obs.export.to_chrome(traced_workload()))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["format"] == "repro-trace/1"
        assert isinstance(doc["traceEvents"], list)

    def test_span_maps_to_complete_event(self):
        events = obs.export.chrome_events(traced_workload())
        spans = [e for e in events if e["ph"] == "X"]
        alloc = next(e for e in spans if e["name"] == "cp.allocate")
        assert alloc["ts"] == 0.0 and alloc["dur"] == 3.0
        assert alloc["pid"] == 0 and alloc["tid"] == 0
        assert alloc["args"]["vol"] == "v0"
        assert alloc["args"]["cp"] == 0

    def test_counter_maps_to_counter_event(self):
        events = obs.export.chrome_events(traced_workload())
        counters = [e for e in events if e["ph"] == "C"]
        vb = next(e for e in counters if e["name"] == "cp.virtual_blocks")
        assert vb["args"]["cp.virtual_blocks"] == 8.0
        assert vb["args"]["where"] == "vol:v0"

    def test_only_x_and_c_phases(self):
        events = obs.export.chrome_events(traced_workload())
        assert {e["ph"] for e in events} <= {"X", "C"}

    def test_byte_identical_across_reruns(self):
        a = obs.export.to_chrome(traced_workload())
        b = obs.export.to_chrome(traced_workload())
        assert a == b
