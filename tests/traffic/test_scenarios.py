"""Scenario acceptance tests: the noisy-neighbor isolation story, QoS
throttling, uniform steady state, and byte-identical replay (including
across process-pool worker counts via the bench runner)."""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import run_bench, strip_timing
from repro.traffic import SCENARIOS, build_scenario, build_traffic_sim, run_traffic
from repro.traffic.scenarios import load_curve
from repro.workloads import UniformOverwriteMix

from ..conftest import small_ssd_sim

#: Small testbed for fast scenario runs (the bench quick config uses
#: the full 65_536-block disks).
FAST = dict(blocks_per_disk=16_384, n_cps=30)


class TestScenarioBuilding:
    def test_unknown_scenario_rejected(self):
        sim = build_traffic_sim(2, blocks_per_disk=16_384)
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("rogue", sim, 10_000.0)

    def test_contended_needs_two_tenants(self):
        sim = build_traffic_sim(1, blocks_per_disk=16_384)
        with pytest.raises(ValueError, match="aggressor and a victim"):
            build_scenario("noisy-neighbor", sim, 10_000.0, n_tenants=1)

    def test_catalogue(self):
        assert SCENARIOS == ("uniform", "noisy-neighbor", "throttled")


class TestNoisyNeighbor:
    """The ISSUE acceptance bar: the QoS-throttled victim's p99 is
    demonstrably bounded while the unthrottled aggressor saturates."""

    @pytest.fixture(scope="class")
    def run(self):
        return run_traffic("noisy-neighbor", n_tenants=4, seed=7, **FAST)

    def test_victim_p99_bounded_by_qos_contract(self, run):
        victim = run.result.tenants["t1-victim"]
        # Bounded queue: an admitted op waits at most queue_depth/iops
        # behind earlier admissions (64 ops at 4% of capacity).
        bound_ms = 64 / (0.04 * run.calibration.capacity_ops) * 1e3
        assert 0.0 < victim.p99_ms <= 1.2 * bound_ms

    def test_victim_sheds_load_instead_of_latency(self, run):
        victim = run.result.tenants["t1-victim"]
        assert victim.rejected > 0
        assert victim.completed > 0

    def test_aggressor_saturates_the_backend(self, run):
        aggressor = run.result.tenants["t0-aggressor"]
        # Offered 1.5x capacity, unthrottled: it eats most of the
        # backend and its own backlog shows up as a heavy tail.
        assert aggressor.achieved_ops_s > 0.5 * run.result.capacity_ops
        assert aggressor.p99_ms > 5 * run.result.tenants["t1-victim"].p99_ms
        total_achieved = sum(
            t.achieved_ops_s for t in run.result.tenants.values()
        )
        assert total_achieved > 0.8 * run.result.capacity_ops

    def test_bystanders_stay_fast(self, run):
        for name in ("t2", "t3"):
            t = run.result.tenants[name]
            assert t.completed > 0
            assert t.p99_ms < run.result.tenants["t0-aggressor"].p99_ms


class TestThrottled:
    def test_throttling_the_aggressor_restores_the_backend(self):
        run = run_traffic("throttled", n_tenants=3, seed=7, **FAST)
        cap = run.calibration.capacity_ops
        aggressor = run.result.tenants["t0-aggressor"]
        # The cap holds: achieved collapses to the QoS limit...
        assert aggressor.achieved_ops_s == pytest.approx(0.25 * cap, rel=0.15)
        # ...and its tail is bounded by its own queue, not the backlog
        # of 1.5x-capacity offered load.
        bound_ms = 128 / (0.25 * cap) * 1e3
        assert aggressor.p99_ms <= 1.3 * bound_ms
        # The backend comes off saturation.
        total = sum(t.achieved_ops_s for t in run.result.tenants.values())
        assert total < 0.8 * run.result.capacity_ops


class TestUniform:
    def test_every_tenant_gets_its_offered_throughput(self):
        run = run_traffic("uniform", n_tenants=4, seed=7, **FAST)
        for t in run.result.tenants.values():
            assert t.rejected == 0
            assert t.achieved_ops_s == pytest.approx(t.offered_ops_s, rel=0.1)
            assert t.p99_ms < 5.0


class TestReplay:
    def test_same_seed_byte_identical_metrics(self):
        kwargs = dict(n_tenants=3, seed=11, blocks_per_disk=16_384, n_cps=20)
        a = run_traffic("noisy-neighbor", **kwargs).result.as_dict()
        b = run_traffic("noisy-neighbor", **kwargs).result.as_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_differs(self):
        a = run_traffic(
            "uniform", n_tenants=2, seed=1, blocks_per_disk=16_384, n_cps=15
        ).result.as_dict()
        b = run_traffic(
            "uniform", n_tenants=2, seed=2, blocks_per_disk=16_384, n_cps=15
        ).result.as_dict()
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_same_seed_same_load_curve(self):
        def sweep(seed: int) -> list:
            return load_curve(
                small_ssd_sim(), [2_000, 30_000],
                lambda n, rng: UniformOverwriteMix(n, read_fraction=0.5, seed=rng),
                target_ops_per_cp=256, n_cps=3, seed=seed,
            )

        first = sweep(4)
        assert sweep(4) == first
        assert sweep(5) != first

    def test_bench_runner_workers_do_not_change_results(self):
        serial = run_bench(quick=True, workers=1, experiments=["traffic"])
        parallel = run_bench(quick=True, workers=2, experiments=["traffic"])
        a = json.dumps(strip_timing(serial), indent=2, sort_keys=True)
        b = json.dumps(strip_timing(parallel), indent=2, sort_keys=True)
        assert a == b
        assert set(serial["units"]) == {
            "traffic/uniform",
            "traffic/noisy-neighbor",
            "traffic/throttled",
            "traffic/disk-failure",
        }
