"""Unit tests for the measurement layer (stats, CPU model, latency)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import (
    CpuModel,
    CPStats,
    MetricsLog,
    peak_throughput,
    system_curve,
)


class TestCpuModel:
    def test_components_sum(self):
        m = CpuModel(
            base_us_per_op=100,
            us_per_block=1,
            us_per_metafile_block=10,
            us_per_aa_switch=5,
            us_per_cache_op=0.5,
            us_per_spanned_block=2,
        )
        us = m.cp_cpu_us(
            ops=10, blocks=20, metafile_blocks=3, aa_switches=2, cache_ops=4,
            spanned_blocks=5,
        )
        assert us == 1000 + 20 + 30 + 10 + 2 + 10

    def test_cache_maintenance_isolated(self):
        m = CpuModel(us_per_cache_op=0.5)
        assert m.cache_maintenance_us(100) == 50


class TestMetricsLog:
    def make_log(self):
        log = MetricsLog()
        log.add(CPStats(ops=100, physical_blocks=200, cpu_us=1000,
                        device_busy_us=500, metafile_blocks_dirtied=4,
                        full_stripes=8, partial_stripes=2, write_chains=10))
        log.add(CPStats(ops=100, physical_blocks=200, cpu_us=3000,
                        device_busy_us=500, metafile_blocks_dirtied=6,
                        full_stripes=2, partial_stripes=8, write_chains=40))
        return log

    def test_per_op_metrics(self):
        log = self.make_log()
        assert log.cpu_us_per_op == 20.0
        assert log.device_us_per_op == 5.0
        assert log.service_us_per_op == 25.0
        assert log.metafile_blocks_per_op == 0.05

    def test_stripe_metrics(self):
        log = self.make_log()
        assert log.full_stripe_fraction == 0.5
        assert log.mean_chain_length == 8.0

    def test_tail_window(self):
        log = self.make_log()
        tail = log.tail(1)
        assert tail.total_ops == 100
        assert tail.cpu_us_per_op == 30.0

    def test_empty_log(self):
        log = MetricsLog()
        assert log.cpu_us_per_op == 0.0
        assert log.full_stripe_fraction == 0.0
        assert log.summary()["ops"] == 0.0

    def test_cp_stats_fraction(self):
        assert CPStats(full_stripes=3, partial_stripes=1).full_stripe_fraction == 0.75
        assert CPStats().full_stripe_fraction == 0.0


def latency_throughput_curve(service_us_per_op, offered, **kwargs):
    """The single-server M/M/1 shape: one core, no separate device."""
    return system_curve(service_us_per_op, 0.0, offered, cores=1, **kwargs)


class TestLatencyCurves:
    def test_hockey_stick_shape(self):
        pts = latency_throughput_curve(100.0, [1000, 5000, 20000], nclients=1)
        lats = [p.latency_ms for p in pts]
        assert lats == sorted(lats)
        assert pts[0].achieved_per_client == 1000
        assert pts[-1].achieved_per_client < 20000

    def test_saturation_pins_throughput(self):
        pts = latency_throughput_curve(100.0, [20000, 40000], nclients=1)
        assert pts[0].achieved_per_client == pts[1].achieved_per_client
        assert pts[1].latency_ms > pts[0].latency_ms

    def test_peak_selection(self):
        pts = latency_throughput_curve(100.0, [1000, 5000, 9000], nclients=1)
        pk = peak_throughput(pts)
        assert pk.achieved_per_client == max(p.achieved_per_client for p in pts)

    def test_peak_empty_raises(self):
        with pytest.raises(ValueError):
            peak_throughput([])

    def test_bad_service_raises(self):
        with pytest.raises(ValueError):
            latency_throughput_curve(-1.0, [100])

    def test_lower_service_dominates(self):
        """A configuration with lower service time achieves at least the
        throughput of a slower one at every offered load."""
        fast = latency_throughput_curve(80.0, [1000, 10000, 14000], nclients=1)
        slow = latency_throughput_curve(100.0, [1000, 10000, 14000], nclients=1)
        for f, s in zip(fast, slow):
            assert f.achieved_per_client >= s.achieved_per_client
            assert f.latency_ms <= s.latency_ms


class TestSystemCurve:
    def test_cpu_bound(self):
        # cpu 20us/op on 20 cores -> 1M ops/s; device 0.5us -> 2M ops/s.
        pts = system_curve(20.0, 0.5, [2_000_000], nclients=1, cores=20)
        assert pts[0].achieved_per_client == pytest.approx(1e6, rel=0.05)

    def test_device_bound(self):
        pts = system_curve(1.0, 100.0, [100000], nclients=1, cores=20)
        assert pts[0].achieved_per_client == pytest.approx(1e4, rel=0.05)

    def test_device_improvement_moves_knee(self):
        """The Figure 6/8 mechanism: lower device cost -> higher peak."""
        loads = np.linspace(1000, 100000, 30)
        better = peak_throughput(system_curve(15.0, 10.0, loads, nclients=1))
        worse = peak_throughput(system_curve(15.0, 20.0, loads, nclients=1))
        assert better.achieved_per_client > worse.achieved_per_client
        assert better.latency_ms <= worse.latency_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            system_curve(-1.0, 1.0, [100])
