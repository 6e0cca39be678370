"""Unit tests for the measurement layer (stats, CPU model, bottleneck
capacity) and the latency-throughput curve the traffic engine serves."""

from __future__ import annotations

import pytest

from repro.bench.experiments import _peak
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import WaflSim
from repro.sim import CpuModel, CPStats, MetricsLog, bottleneck_capacity_ops
from repro.traffic.scenarios import SUSTAINED, load_curve
from repro.workloads import UniformOverwriteMix


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


#: Offered load per client (ops/s): two loads below the small sim's
#: knee (~10k per client), two past it.
LOADS = [1_000, 5_000, 14_000, 20_000]


def latency_throughput_curve(program_us_per_block: float) -> list:
    """The engine's curve on a small SSD aggregate whose flash programs a
    block in ``program_us_per_block`` (the device side of the service)."""
    spec = AggregateSpec(
        tiers=(TierSpec(label="ssd", media="ssd", ndata=3, blocks_per_disk=32768,
                        stripes_per_aa=2048, program_us_per_block=program_us_per_block),),
        volumes=(VolumeDecl("volA", logical_blocks=24_576),
                 VolumeDecl("volB", logical_blocks=12_288)),
    )
    return load_curve(WaflSim.build(spec, seed=7), LOADS,
                      lambda n, rng: UniformOverwriteMix(n, seed=rng),
                      target_ops_per_cp=512, n_cps=4, seed=5)


class TestLatencyCurves:
    """Figures 6, 8 and 9's latency vs achieved throughput, served by
    the traffic engine (:func:`repro.traffic.scenarios.load_curve`)."""

    @pytest.fixture(scope="class")
    def curves(self):
        return {us: latency_throughput_curve(us) for us in (13.0, 130.0)}

    def test_hockey_stick_shape(self, curves):
        pts = curves[13.0]
        lats = [latency for _, _, latency in pts]
        assert lats == sorted(lats)
        offered, achieved, _ = pts[0]
        assert achieved >= SUSTAINED * offered
        offered, achieved, _ = pts[-1]
        assert achieved < SUSTAINED * offered

    def test_saturation_pins_throughput(self, curves):
        (_, _, lat_below), *_, (_, high, lat_high), (_, higher, lat_higher) = curves[13.0]
        assert higher == pytest.approx(high, rel=0.1)
        assert min(lat_high, lat_higher) > 5 * lat_below

    def test_peak_selection(self, curves):
        pk = _peak(curves[13.0])
        assert pk[1] == max(achieved for _, achieved, _ in curves[13.0])

    def test_peak_empty_raises(self):
        with pytest.raises(ValueError):
            _peak([])

    def test_lower_service_dominates(self, curves):
        """A configuration with a faster device achieves at least the
        throughput of a slower one at every offered load, at no higher
        latency."""
        for f, s in zip(curves[13.0], curves[130.0]):
            assert f[0] == s[0]  # one seed: the same clients
            assert f[1] >= s[1]
            assert f[2] <= s[2]


class TestSystemCurve:
    """The system's bottleneck capacity, behind every ``capacity_ops``."""

    def test_cpu_bound(self):
        # cpu 20us/op on 20 cores -> 1M ops/s; device 0.5us -> 2M ops/s.
        assert bottleneck_capacity_ops(20.0, 0.5, 20) == pytest.approx(1e6)

    def test_device_bound(self):
        assert bottleneck_capacity_ops(1.0, 100.0, 20) == pytest.approx(1e4)

    def test_device_improvement_moves_knee(self):
        """The Figure 6/8 mechanism: lower device cost -> higher peak."""
        assert bottleneck_capacity_ops(15.0, 10.0, 1) > bottleneck_capacity_ops(15.0, 20.0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            bottleneck_capacity_ops(-1.0, 1.0, 20)
