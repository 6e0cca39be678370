"""The measurement pass: ``summary()`` and the per-interval series read
each tenant's served history in place, through ``served()``.

Three properties pin it down: ``_p99`` is ``np.percentile(w, 99)`` bit
for bit; the summary and every recorded series equal the same figures
computed the plain way (join, stable argsort by completion, gather,
``np.percentile``); and the pass holds at most one copy of a tenant's
latencies at a time.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.traffic import TrafficEngine
from repro.traffic.engine import _by_interval, _done_latency_ms, _p99
from repro.traffic.scenarios import build_scenario, build_traffic_sim, calibrate_capacity, run_traffic

from .oracle import complete_array, latency_array, run_oracle

#: Sizes whose virtual index ``(n − 1) · 0.99`` has a fractional part of
#: exactly 0.5, where NumPy's lerp switches to its second formula.
HALF_GAMMA_SIZES = [n for n in range(2, 4097) if (v := (n - 1) * 0.99) - int(v) == 0.5]


@st.composite
def _windows(draw) -> np.ndarray:
    # Sizes up to 51 put γ at or above 0.5; most sizes past that, below.
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 4096), st.sampled_from(HALF_GAMMA_SIZES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Log-uniform magnitudes from 1e-3 to 1e8; a small pool forces ties.
    distinct = draw(st.sampled_from([1, 2, 3, 17, n]))
    pool = 10.0 ** rng.uniform(-3.0, 8.0, size=distinct)
    return rng.choice(pool, size=n)


class TestP99:
    @given(_windows())
    @example(np.array([5.0]))
    @example(np.array([1e-3, 1e8]))
    @example(np.array([0.3, 1.0]))  # a + d·γ rounds differently from b − d·(1 − γ) here
    @example(np.full(51, 7.25))
    @example(np.arange(1.0, 52.0))
    def test_matches_numpy_percentile_bit_for_bit(self, w):
        assert _p99(w) == float(np.percentile(w, 99))

    def test_leaves_its_input_alone(self):
        w = np.array([3.0, 1.0, 2.0])
        _p99(w)
        assert w.tolist() == [3.0, 1.0, 2.0]


@given(
    st.lists(
        st.lists(st.one_of(st.floats(-5.0, 100.0), st.sampled_from([0.0, 7.5, 15.0, 90.0])),
                 min_size=1, max_size=40),
        max_size=6,
    ),
    st.integers(0, 13),
)
def test_by_interval_groups_unordered_pairs(completions, n_edges):
    """Pairs out of completion order, ops at an edge, before the first
    and past the last, no pairs or no edges: each interval's latencies, as a
    multiset, are those a mask of the joined history selects."""
    edges = np.arange(n_edges) * 7.5
    pairs = [(np.asarray(c, dtype=np.float64), 1000.0 * i + np.arange(len(c), dtype=np.float64))
             for i, c in enumerate(completions)]
    cuts, grouped = _by_interval(lambda: iter(pairs), edges)
    complete = np.concatenate([c for c, _ in pairs] or [np.empty(0)])
    latency = np.concatenate([lat for _, lat in pairs] or [np.empty(0)])
    assert cuts == [int((complete <= e).sum()) for e in edges]
    assert grouped.size == (cuts[-1] if cuts else 0)
    if cuts:
        assert sorted(grouped[:cuts[0]]) == sorted(latency[complete <= edges[0]])
    for k in range(edges.size - 1):
        mask = (complete > edges[k]) & (complete <= edges[k + 1])
        assert sorted(grouped[cuts[k]:cuts[k + 1]]) == sorted(latency[mask]), k


@given(
    st.lists(st.integers(1, 600), min_size=0, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_done_latency_stats_equal_the_joined_reference(sizes, seed):
    """Done mask, mean in serve order, then percentiles: the same floats
    as masking the joined history and three ``np.percentile`` calls."""
    rng = np.random.default_rng(seed)
    horizon = 50.0
    pairs = [(rng.uniform(0.0, 60.0, size=n), 10.0 ** rng.uniform(-3.0, 8.0, size=n)) for n in sizes]
    kept = [lat.copy() for _, lat in pairs]
    completed, mean_ms, pcts = _done_latency_ms(lambda: iter(pairs), horizon)
    complete = np.concatenate([c for c, _ in pairs] or [np.empty(0)])
    done = np.concatenate(kept or [np.empty(0)])[complete <= horizon] / 1e3
    assert completed == done.size
    if done.size:
        assert mean_ms == float(done.mean())
        assert pcts == [float(np.percentile(done, q)) for q in (50, 95, 99)]
    assert all(np.array_equal(lat, k) for (_, lat), k in zip(pairs, kept))


def _reference(engine, tenant) -> tuple[dict, dict]:
    """One tenant's summary percentiles and per-interval series, computed
    the plain way from its joined history."""
    horizon = engine.clock_us
    interval = engine.cp_interval_us
    complete_raw = complete_array(tenant)
    order = np.argsort(complete_raw, kind="stable")
    complete = complete_raw[order]
    by_completion = latency_array(tenant)[order]
    edges = np.arange(0.0, horizon + interval / 2, interval)
    cuts = np.searchsorted(complete, edges, side="right")
    arrived = tenant.arrivals_through(edges)
    rejected = tenant.rejected_through(edges)
    series = {"achieved_ops_s": [], "p99_ms": [], "queue_depth": []}
    for k in range(edges.size - 1):
        window = by_completion[cuts[k]:cuts[k + 1]]
        series["achieved_ops_s"].append(window.size / (interval / 1e6))
        series["p99_ms"].append(
            float(np.percentile(window, 99)) / 1e3 if window.size else 0.0
        )
        series["queue_depth"].append(int(arrived[k + 1] - rejected[k + 1] - cuts[k + 1]))
    done = latency_array(tenant)[complete_array(tenant) <= horizon] / 1e3
    summary = {
        "completed": int(done.size),
        "p50_ms": float(np.percentile(done, 50)),
        "p95_ms": float(np.percentile(done, 95)),
        "p99_ms": float(np.percentile(done, 99)),
        "mean_ms": float(done.mean()),
    }
    return summary, series


@pytest.mark.parametrize("model", ["oracle", "engine"])
def test_summary_and_series_equal_the_joined_reference(model):
    """Contended noisy-neighbor run: the aggressor's backlog leaves
    completions past the horizon, so the done mask and the intervals
    both cut chunks."""
    if model == "oracle":
        sim, engine, result = run_oracle("noisy-neighbor", seed=3)
    else:
        run = run_traffic("noisy-neighbor", quick=True, n_tenants=4, seed=3)
        sim, engine, result = run.sim, run.engine, run.result
    assert any(complete_array(t).max() > engine.clock_us for t in engine.states)
    for tenant in engine.states:
        name = tenant.spec.name
        summary, series = _reference(engine, tenant)
        got = result.tenants[name]
        for field, value in summary.items():
            assert getattr(got, field) == value, (name, field)
        for metric, values in series.items():
            recorded = sim.metrics.query(metric, tenant=name, default=[])
            assert list(recorded) == values, (name, metric)


def test_summary_peak_is_one_copy_of_the_done_latencies():
    """``summary()`` allocates at most one tenant's done latencies (8
    bytes each) plus 1 MiB at any moment: no join, argsort or gathered
    copy of the whole history."""
    sim = build_traffic_sim(2)
    capacity = calibrate_capacity(sim).capacity_ops
    tenants = build_scenario("noisy-neighbor", sim, capacity, n_tenants=2, seed=5)
    engine = TrafficEngine(sim, tenants, target_ops_per_cp=8192).run(24)
    served = sum(c.size for t in engine.states for c, _ in t.served())
    assert served >= 100_000
    # NumPy imports numpy.ma on its first np.percentile: not the pass's peak.
    np.percentile(np.ones(2), 50)
    tracemalloc.start()
    try:
        result = engine.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    largest = max(t.completed for t in result.tenants.values())
    assert peak <= 8 * largest + 2**20, (peak, largest)
