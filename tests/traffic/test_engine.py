"""Unit tests for the discrete-event traffic engine: admission, CP
batching and charge-back, SFQ backend behaviour, series recording, and
replay determinism."""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import asdict

import numpy as np
import pytest

from repro.traffic import (
    PoissonArrivals,
    QosLimits,
    TenantSpec,
    TrafficEngine,
)
from repro.traffic.engine import DRAIN_BLOCK_OPS, _tally, _TenantState
from repro.traffic.scenarios import calibrate_capacity, run_traffic
from repro.workloads import UniformOverwriteMix

from ..conftest import small_ssd_sim
from .oracle import complete_array, latency_array


def two_tenant_engine(
    *,
    rate_a: float = 8_000.0,
    rate_b: float = 4_000.0,
    qos_b: QosLimits | None = None,
    depth_b: int | None = None,
    cp_interval_us: float = 25_000.0,
    seed: int = 7,
):
    sim = small_ssd_sim(seed=seed)
    tenants = [
        TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(rate_a, seed=seed),
            mix=UniformOverwriteMix(
                sim.vols["volA"].spec.logical_blocks, seed=seed + 1
            ),
        ),
        TenantSpec(
            name="b",
            volume="volB",
            arrivals=PoissonArrivals(rate_b, seed=seed + 2),
            mix=UniformOverwriteMix(
                sim.vols["volB"].spec.logical_blocks, seed=seed + 3
            ),
            qos=qos_b,
            queue_depth=depth_b,
        ),
    ]
    return sim, TrafficEngine(sim, tenants, cp_interval_us=cp_interval_us)


class TestConstruction:
    def test_rejects_empty_tenant_list(self):
        sim = small_ssd_sim()
        with pytest.raises(ValueError, match="at least one"):
            TrafficEngine(sim, [])

    def test_rejects_duplicate_names(self):
        sim = small_ssd_sim()
        spec = TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(100, seed=0),
            mix=UniformOverwriteMix(1_000, seed=0),
        )
        with pytest.raises(ValueError, match="duplicate"):
            TrafficEngine(sim, [spec, spec])

    def test_rejects_unknown_volume(self):
        sim = small_ssd_sim()
        spec = TenantSpec(
            name="a",
            volume="nope",
            arrivals=PoissonArrivals(100, seed=0),
            mix=UniformOverwriteMix(1_000, seed=0),
        )
        with pytest.raises(ValueError, match="unknown volume"):
            TrafficEngine(sim, [spec])

    def test_rejects_nonpositive_interval(self):
        sim = small_ssd_sim()
        spec = TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(100, seed=0),
            mix=UniformOverwriteMix(1_000, seed=0),
        )
        with pytest.raises(ValueError, match="positive"):
            TrafficEngine(sim, [spec], cp_interval_us=0.0)

    @pytest.mark.parametrize("cores", [0, -4])
    def test_rejects_nonpositive_cores(self, cores):
        # Before anything moves: no arrival drawn, no CP charged.
        sim = small_ssd_sim()
        spec = TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(100, seed=0),
            mix=UniformOverwriteMix(1_000, seed=0),
        )
        with pytest.raises(ValueError, match="cores must be at least 1"):
            TrafficEngine(sim, [spec], cores=cores)
        assert not sim.metrics.cps

    def test_default_interval_targets_ops_per_cp(self):
        sim = small_ssd_sim()
        spec = TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(10_000, seed=0),
            mix=UniformOverwriteMix(1_000, seed=0),
        )
        engine = TrafficEngine(sim, [spec], target_ops_per_cp=500)
        assert engine.cp_interval_us == pytest.approx(50_000.0)


class TestServiceAndCharging:
    def test_light_load_latency_is_service_time(self):
        _, engine = two_tenant_engine(rate_a=2_000.0, rate_b=1_000.0)
        result = engine.run(12).summary()
        for t in result.tenants.values():
            assert t.completed > 0
            # Far below saturation: tails stay near per-op service, i.e.
            # well under a millisecond on this SSD testbed.
            assert 0.0 < t.p99_ms < 2.0

    def test_cp_stats_carry_ops_by_source(self):
        sim, engine = two_tenant_engine()
        engine.run(8)
        assert sim.metrics.cps, "expected at least one CP"
        for stats in sim.metrics.cps:
            assert set(stats.ops_by_source) <= {"a", "b"}
            assert sum(stats.ops_by_source.values()) == stats.ops

    def test_charge_back_sums_to_cp_costs(self):
        sim, engine = two_tenant_engine()
        engine.run(10)
        total_cpu = sum(c.cpu_us for c in sim.metrics.cps)
        total_dev = sum(c.device_busy_us for c in sim.metrics.cps)
        charged_cpu = sum(st.charged_cpu_us for st in engine.states)
        charged_dev = sum(st.charged_device_us for st in engine.states)
        assert charged_cpu == pytest.approx(total_cpu, rel=1e-9)
        assert charged_dev == pytest.approx(total_dev, rel=1e-9)

    def test_capacity_matches_occupancy_model(self):
        _, engine = two_tenant_engine()
        engine.run(10)
        assert engine.capacity_ops > 0
        result = engine.summary()
        assert result.capacity_ops == pytest.approx(engine.capacity_ops)
        assert result.total_ops == sum(
            int(latency_array(st).size) + st.backend_pending()
            for st in engine.states
        )

    def test_mix_reads_reach_the_cp_and_the_devices(self):
        sim = small_ssd_sim(seed=7)
        mix = UniformOverwriteMix(
            sim.vols["volA"].spec.logical_blocks, read_fraction=0.55, seed=8
        )
        engine = TrafficEngine(sim, [TenantSpec(
            name="oltp", volume="volA", arrivals=PoissonArrivals(8_000.0, seed=7), mix=mix,
        )], cp_interval_us=25_000.0)
        batches = []
        run_cp = sim.engine.run_cp
        sim.engine.run_cp = lambda batch: batches.append(batch) or run_cp(batch)
        engine.run(6)
        assert batches and all(b.reads == int(b.ops * 0.55) for b in batches)
        assert all(b.writes["volA"].size == 2 * (b.ops - b.reads) for b in batches)
        client_reads = sum(b.reads for b in batches)
        devices = sim.store.groups[0].data_devices
        # The CP boundary spreads a CP's reads over the data devices,
        # rounding each device's share.
        assert sum(d.stats.blocks_read for d in devices) == pytest.approx(
            client_reads, abs=len(devices) * len(batches))

    def test_accounting_identity_per_tenant(self):
        _, engine = two_tenant_engine()
        result = engine.run(10).summary()
        for t in result.tenants.values():
            assert t.arrived == t.admitted + t.rejected
            assert t.in_flight == t.arrived - t.rejected - t.completed
            assert t.in_flight >= 0


class TestQosAndQueueing:
    def test_iops_cap_bounds_admission(self):
        _, engine = two_tenant_engine(
            rate_b=4_000.0, qos_b=QosLimits(iops=1_000.0, iops_burst=16.0)
        )
        result = engine.run(20).summary()
        b = result.tenants["b"]
        # Completions can't outrun the cap plus the banked burst (the
        # queue holds everything else with future admission times).
        horizon_s = result.horizon_s
        assert b.completed <= 1_000.0 * horizon_s + 16 + 1
        assert b.achieved_ops_s == pytest.approx(1_000.0, rel=0.1)

    def test_bounded_queue_sheds_load(self):
        _, engine = two_tenant_engine(
            rate_b=4_000.0,
            qos_b=QosLimits(iops=500.0, iops_burst=8.0),
            depth_b=16,
        )
        result = engine.run(20).summary()
        b = result.tenants["b"]
        assert b.rejected > 0
        # The bound the bounded queue buys: an admitted op waits at most
        # queue_depth / iops behind earlier admissions.
        assert b.p99_ms <= 1.3 * (16 / 500.0) * 1e3

    def test_unbounded_queue_never_rejects(self):
        _, engine = two_tenant_engine(
            rate_b=4_000.0, qos_b=QosLimits(iops=500.0, iops_burst=8.0)
        )
        result = engine.run(10).summary()
        assert result.tenants["b"].rejected == 0


class TestSeriesAndSummary:
    def test_series_recorded_per_cp_interval(self):
        sim, engine = two_tenant_engine()
        n_cps = 9
        engine.run(n_cps).summary()
        for name in ("a", "b"):
            for metric in ("achieved_ops_s", "p99_ms", "queue_depth"):
                series = sim.metrics.query(metric, tenant=name)
                assert len(series) == n_cps

    def test_summary_is_idempotent(self):
        sim, engine = two_tenant_engine()
        engine.run(6)
        first = engine.summary()
        second = engine.summary()
        assert asdict(first.tenants["a"]) == asdict(second.tenants["a"])
        # Series are not double-appended by the second call.
        assert len(sim.metrics.query("p99_ms", tenant="a")) == 6


    def test_tally_matches_a_search_of_the_edge_grid(self):
        """Times on an edge, an ulp either side of one, and at random,
        tallied window by window, give the counts a search of every time
        against ``_record_series``' edges gives."""
        interval = 8192 / 79_510.17 * 1e6  # not a dyadic value
        edges = np.arange(0.0, 40 * interval + interval / 2, interval)
        on = edges[:30]
        ts = np.sort(np.concatenate([
            on, np.nextafter(on, -1.0)[1:], np.nextafter(on, np.inf),
            np.random.default_rng(5).uniform(0.0, 31 * interval, 500),
        ]))
        bins: list[int] = []
        for window in np.array_split(ts, 7):
            _tally(bins, window, interval)
        counted = np.cumsum((bins + [0] * edges.size)[:edges.size])
        assert np.array_equal(counted, np.searchsorted(ts, edges, side="right"))


class TestDeterminism:
    def test_same_seed_replays_byte_identical(self):
        _, e1 = two_tenant_engine(seed=13)
        _, e2 = two_tenant_engine(seed=13)
        a = json.dumps(e1.run(8).summary().as_dict(), sort_keys=True)
        b = json.dumps(e2.run(8).summary().as_dict(), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        _, e1 = two_tenant_engine(seed=13)
        _, e2 = two_tenant_engine(seed=14)
        a = json.dumps(e1.run(8).summary().as_dict(), sort_keys=True)
        b = json.dumps(e2.run(8).summary().as_dict(), sort_keys=True)
        assert a != b


class TestDrainWorkIsLinear:
    """The drain's work is proportional to the ops it serves
    (DESIGN.md §9) — counted, not timed."""

    def _light_engine(self):
        sim = small_ssd_sim()
        capacity = calibrate_capacity(sim, n_cps=3, ops_per_cp=4096).capacity_ops
        tenant = TenantSpec(
            name="a",
            volume="volA",
            arrivals=PoissonArrivals(0.1 * capacity, seed=5),
            mix=UniformOverwriteMix(sim.vols["volA"].spec.logical_blocks, seed=6),
        )
        return TrafficEngine(sim, [tenant], target_ops_per_cp=4096)

    def test_one_completion_chunk_per_drain_at_light_load(self):
        # At ~10% utilisation nearly every op is its own busy period; a
        # drain that emits one chunk per busy period gains ~2,000 here.
        engine = self._light_engine()
        st = engine.states[0]
        for _ in range(4):
            before = len(st.complete_chunks)
            engine.step()
            assert len(st.complete_chunks) - before <= 1
            assert len(st.latency_chunks) == len(st.complete_chunks)
        assert complete_array(st).size > 3 * 4096
        assert st.backend_pending() == 0

    def test_contended_drain_converts_what_it_serves(self, monkeypatch):
        """Two tenants, one of them past saturation: a call converts no
        more ops to Python floats than it serves plus one block per
        tenant, however long the backlog stands."""
        sim = small_ssd_sim()
        capacity = calibrate_capacity(sim, n_cps=3, ops_per_cp=4096).capacity_ops
        tenants = [
            TenantSpec(
                name=name,
                volume=vol,
                arrivals=PoissonArrivals(load * capacity, seed=seed),
                mix=UniformOverwriteMix(
                    sim.vols[vol].spec.logical_blocks, seed=seed + 1
                ),
            )
            for name, vol, load, seed in (("a", "volA", 1.5, 5), ("b", "volB", 0.3, 7))
        ]
        engine = TrafficEngine(sim, tenants, target_ops_per_cp=4096)
        converted = 0
        window = _TenantState.window

        def counting_window(st, lo, hi):
            nonlocal converted
            converted += hi - lo
            return window(st, lo, hi)

        monkeypatch.setattr(_TenantState, "window", counting_window)
        allowance = len(tenants) * DRAIN_BLOCK_OPS
        for _ in range(8):
            converted = 0
            done = sum(complete_array(st).size for st in engine.states)
            chunks = [len(st.complete_chunks) for st in engine.states]
            engine.step()
            after = [len(st.complete_chunks) for st in engine.states]
            for a, b in zip(after, chunks):
                assert a - b <= 1
            served = sum(complete_array(st).size for st in engine.states) - done
            assert served > DRAIN_BLOCK_OPS
            assert converted <= served + allowance
        # The bound is not vacuous: the backlog dwarfs the allowance.
        assert engine.states[0].backend_pending() > 4 * allowance

    def test_backend_queue_appends_in_place(self):
        engine = self._light_engine()
        st = engine.states[0]
        # A double-size first CP fixes the capacity; the queue empties
        # every interval, so each later CP's riders fit it.
        engine.replay({"a": 8192})
        engine.step()
        buf = st.q_admit.base
        assert buf is not None and buf.shape[1] >= 8192
        for _ in range(10):
            engine.step()
            assert st.q_admit.base is buf
            assert 0 < st.q_admit.size <= buf.shape[1]
            assert st.backend_pending() == 0

    def test_queue_contents_survive_moves_and_regrowth(self):
        """Against a plain-list model: whatever mix of in-place moves
        (overlapping or not) and regrowth the sizes trigger, the live
        suffix, with each op's costs expanded from its CP's, is the FIFO
        of everything appended and not yet served — and the CPs kept
        after an append are those with an op not yet served."""
        rng = np.random.default_rng(3)
        st = _TenantState(
            TenantSpec(
                name="a",
                volume="volA",
                arrivals=PoissonArrivals(100, seed=0),
                mix=UniformOverwriteMix(1_000, seed=0),
            )
        )
        model: list[tuple[float, float, float, float]] = []
        stamp = 0.0
        for _ in range(200):
            appended = int(rng.integers(0, 3))
            for _ in range(appended):
                n = int(rng.integers(1, 40))
                ts = stamp + np.arange(n, dtype=np.float64)
                stamp += n
                occ, lat = float(rng.random()), float(rng.random())
                st.backend_chunks.append((ts, ts + 0.5, occ, lat))
                model.extend((t, t + 0.5, occ, lat) for t in ts.tolist())
            st.consolidate_backend()
            end = st.q_admit.size
            live = np.stack(
                [st.q_arrival[st.q_head:], st.q_admit[st.q_head:],
                 st.per_op(1, st.q_head, end), st.per_op(2, st.q_head, end)],
                axis=1,
            )
            assert live.tolist() == [list(op) for op in model]
            if appended:
                assert st.cp_runs[0][0] > st.q_head and st.cp_runs[-1][0] == end
            served = int(rng.integers(0, len(model) + 1))
            st.q_head += served
            del model[:served]


def _held_bytes(state) -> int:
    """Bytes a tenant state's attributes hold: every distinct NumPy
    buffer (a view counts its base once), and every list, tuple and
    deque with the Python numbers in it, each object counted once."""
    seen: set[int] = set()
    total = 0

    def walk(value) -> None:
        nonlocal total
        while isinstance(value, np.ndarray) and isinstance(value.base, np.ndarray):
            value = value.base
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (float, int)):
            total += sys.getsizeof(value)
        elif isinstance(value, (list, tuple, deque)):
            total += sys.getsizeof(value)
            for item in value:
                walk(item)

    for value in vars(state).values():
        walk(value)
    return total


class TestStateHoldsBacklogNotHistory:
    def test_bytes_bounded_by_backlog_and_completions(self):
        """After a noisy-neighbor run each tenant's state holds 16 bytes
        per served op (completion, latency) and per waiting op (arrival,
        admit; a quarter more for the queue's growth slack), plus a
        small constant — nothing per arrival or rejection, and no per-op
        copy of a CP's costs."""
        engine = run_traffic("noisy-neighbor", quick=True, seed=3).engine
        waiting = engine.unridden()
        assert any(st.rejected_count() for st in engine.states)
        for st in engine.states:
            served = complete_array(st).size
            backlog = st.backend_pending() + waiting[st.spec.name]
            bound = 16 * served + 20 * backlog + 32 * 1024
            assert _held_bytes(st) <= bound, st.spec.name
