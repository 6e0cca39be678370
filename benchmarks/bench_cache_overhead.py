"""Section 4.1.2's cache-overhead claim, plus HBPS micro-benchmarks.

"Code-path profiles show that under heavy I/O load, only about 0.002%
of the total CPU cycles was spent maintaining each of the RAID-aware
and RAID-agnostic AA caches."  We measure the modeled CPU attributed
to cache maintenance as a fraction of total modeled WAFL CPU during
the Figure 6 workload, and benchmark the raw data-structure operations
(HBPS insert/update/pop at the paper's one-million-AA scale, heap
rebalance) with pytest-benchmark.

Run with ``pytest benchmarks/bench_cache_overhead.py --benchmark-only -s``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import build_aged_ssd_sim
from repro.core import HBPS, RAIDAwareAACache
from repro.workloads import RandomOverwriteWorkload

MILLION = 1_000_000


def test_cache_maintenance_fraction(benchmark):
    def run():
        sim = build_aged_ssd_sim(seed=42)
        wl = RandomOverwriteWorkload(sim, ops_per_cp=8192, blocks_per_op=2, seed=7)
        sim.run(wl, 30)
        total = sim.metrics.total_cpu_us
        cache = sim.engine.cache_maintenance_us
        return cache / total

    frac = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"AA-cache maintenance CPU fraction under heavy random overwrites: "
        f"{frac:.5%} (paper: ~0.002% per cache; ours covers all caches)",
    )
    # The claim to preserve: maintenance cost is negligible — orders of
    # magnitude below 1% of the WAFL code path.
    assert frac < 0.001


@pytest.fixture(scope="module")
def million_hbps() -> tuple[HBPS, np.ndarray]:
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 32769, size=MILLION)
    h = HBPS(32768)
    h.rebuild((int(i), int(s)) for i, s in enumerate(scores))
    return h, scores


def test_hbps_update_rate(benchmark, million_hbps):
    """Constant-time bin moves on a million-AA HBPS (section 3.3.2)."""
    h, scores = million_hbps
    rng = np.random.default_rng(1)
    items = rng.integers(0, MILLION, size=4096)
    news = rng.integers(0, 32769, size=4096)
    local = scores.copy()

    def run():
        for i, n in zip(items.tolist(), news.tolist()):
            if h.is_listed(i):
                continue
            h.update(i, int(local[i]), int(n))
            local[i] = n

    benchmark(run)
    h.check_invariants()


def test_hbps_pop_insert_cycle(benchmark, million_hbps):
    """Pop-best + reinsert cycle (the per-CP allocator interaction)."""
    h, scores = million_hbps

    def run():
        popped = h.pop_best()
        if popped is None:
            return
        item, b = popped
        lo, _hi = h.bin_bounds(b)
        h.insert(item, lo)

    benchmark(run)


def test_hbps_million_rebuild(benchmark):
    """The background replenish scan at the paper's 128 TiB-FlexVol
    scale: one million AAs rebuilt into two pages."""
    rng = np.random.default_rng(2)
    scores = rng.integers(0, 32769, size=MILLION)

    def run():
        h = HBPS(32768)
        h.rebuild((int(i), int(s)) for i, s in enumerate(scores))
        return h

    h = benchmark.pedantic(run, rounds=1, iterations=1)
    assert h.total_count == MILLION
    assert h.memory_bytes == 8192


def test_heap_million_build(benchmark):
    """Full max-heap build over one million AAs (the RAID-aware cache
    boot path without TopAA)."""
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 32769, size=MILLION)

    def run():
        return RAIDAwareAACache(MILLION, scores)

    cache = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cache.fully_populated
    # Paper: ~1 MiB of memory per million default-sized AAs.
    assert cache.memory_bytes == 8 * MILLION


def test_memory_comparison(benchmark):
    """The section 3.3.2 memory argument: HBPS stays at two pages while
    the heap grows linearly."""
    def run():
        rows = []
        for n in (1000, 100_000, MILLION):
            heap_bytes = RAIDAwareAACache(n, np.zeros(n, dtype=np.int64)).memory_bytes
            from repro.core import RAIDAgnosticAACache

            hbps_bytes = RAIDAgnosticAACache(n, 32768).memory_bytes
            rows.append((n, heap_bytes, hbps_bytes))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.bench import fmt_table

    print(
        fmt_table(
            ["AAs tracked", "max-heap bytes", "HBPS bytes"],
            [list(r) for r in rows],
            title="Memory: RAID-aware heap vs RAID-agnostic HBPS (section 3.3.2)",
        ),
    )
    for n, heap_bytes, hbps_bytes in rows:
        assert hbps_bytes == 8192
        assert heap_bytes == 8 * n
