"""Byte-identity of the traffic engine and its op-at-a-time oracle.

The engine's array pipeline must be a pure performance transformation
of the per-op model in :mod:`tests.traffic.oracle`: same seed, same
scenario, bit-for-bit the same summary, per-tenant latency percentiles,
and MetricsLog series.  Equality here is exact — no tolerances —
because every batched float expression was chosen to reproduce the
per-op evaluation order (np.add.accumulate chains, np.maximum tail
recurrences), not merely approximate it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.traffic.scenarios import SCENARIOS, run_traffic

from .oracle import complete_array, latency_array, run_oracle

SERIES_METRICS = ("achieved_ops_s", "p99_ms", "queue_depth")


def _series(sim, engine) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for st in engine.states:
        name = st.spec.name
        for metric in SERIES_METRICS:
            out[f"{name}.{metric}"] = np.asarray(
                sim.metrics.query(metric, tenant=name, default=[])
            )
    return out


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
class TestScalarVectorIdentity:
    def test_summary_is_byte_identical(self, scenario):
        _, _, reference = run_oracle(scenario, seed=7)
        run = run_traffic(scenario, quick=True, seed=7)
        assert json.dumps(reference.as_dict(), sort_keys=True) == json.dumps(
            run.result.as_dict(), sort_keys=True
        )

    def test_metrics_series_are_byte_identical(self, scenario):
        sim, engine, _ = run_oracle(scenario, seed=11)
        reference = _series(sim, engine)
        run = run_traffic(scenario, quick=True, seed=11)
        series = _series(run.sim, run.engine)
        assert set(reference) == set(series)
        for key, scalar in reference.items():
            batched = series[key]
            assert scalar.shape == batched.shape, key
            assert np.array_equal(scalar, batched), key


class TestEngineStateIdentity:
    def test_per_tenant_raw_series_match(self):
        """Beyond the summary: what the series are computed from must
        agree — every served op's completion and latency, and the
        arrival and rejection counts at every CP edge (the oracle
        counts its per-op lists there; the engine tallied as it
        admitted)."""
        _, oracle, _ = run_oracle("noisy-neighbor", seed=3)
        run = run_traffic("noisy-neighbor", quick=True, seed=3)
        engine = run.engine
        edges = np.arange(
            0.0, engine.clock_us + engine.cp_interval_us / 2, engine.cp_interval_us
        )
        # The edges are exactly k · interval, the grid the engine tallies on.
        assert np.array_equal(edges, np.arange(edges.size) * engine.cp_interval_us)
        scalar_states = {st.spec.name: st for st in oracle.states}
        for st in engine.states:
            ref = scalar_states[st.spec.name]
            assert np.array_equal(ref.arrivals_through(edges), st.arrivals_through(edges))
            assert np.array_equal(ref.rejected_through(edges), st.rejected_through(edges))
            assert np.array_equal(
                np.sort(complete_array(ref)), np.sort(complete_array(st))
            )
            assert np.array_equal(
                np.sort(latency_array(ref)), np.sort(latency_array(st))
            )
            assert ref.arrived_count() == st.arrived_count()
            assert ref.rejected_count() == st.rejected_count()
            assert ref.admitted == st.admitted
