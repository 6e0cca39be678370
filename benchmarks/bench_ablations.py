"""Ablations of the design decisions DESIGN.md section 5 calls out.

1. Selection policy: the paper's caches vs random vs first-fit scan.
2. HBPS bin width: the 3.125% error-margin trade-off (section 3.3.2).
3. HBPS list capacity: replenish-scan frequency vs memory.
4. Fragmentation cutoff threshold for skipping RAID groups (3.3.1).
5. TopAA seed size: how long seeded AAs sustain allocation (3.4).

Run with ``pytest benchmarks/bench_ablations.py --benchmark-only -s``
(``-s`` shows the tables; needs ``pytest-benchmark``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench import build_aged_ssd_sim, fmt_table, measure_random_overwrite
from repro.common.config import SimConfig
from repro.core import (
    HBPS,
    RAIDAgnosticAACache,
    seed_heap_cache,
    serialize_heap_seed,
)
from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import PolicyKind, WaflSim
from repro.workloads import RandomOverwriteWorkload, fill_volumes, reset_measurement_state


def test_ablation_selection_policy(benchmark):
    """Cache vs random vs linear-scan selection (paper section 4.1 plus
    our extra first-fit baseline)."""

    def run():
        out = {}
        for label, policy in [
            ("AA cache", PolicyKind.CACHE),
            ("random", PolicyKind.RANDOM),
            ("first-fit scan", PolicyKind.LINEAR_SCAN),
        ]:
            sim = build_aged_ssd_sim(
                aggregate_policy=policy, vol_policy=policy, seed=42
            )
            # Half the data is cold (never overwritten): realistic
            # LUN populations.  Under *uniform* churn a first-fit
            # cursor behaves like an LFS sweep and matches the cache;
            # cold regions are what make score-blind scans pay for
            # consulting nearly-full AAs.
            out[label] = measure_random_overwrite(
                sim, label, n_cps=25, working_set_fraction=0.5
            )
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["policy", "selected AA free", "SSD write amp", "service us/op",
             "peak ops/s"],
            [
                [r.label, r.agg_selected_free, r.write_amplification,
                 r.cpu_us_per_op + r.device_us_per_op, r.capacity_ops]
                for r in results.values()
            ],
            title="Ablation 1: AA selection policy",
        ),
    )
    print(
        "Finding: under *uniform* random churn, a first-fit cursor matches the\n"
        "AA cache — the sweep returns to regions only after churn has emptied\n"
        "them (LFS-style threading).  The cache's advantage is robustness: it\n"
        "needs no favourable churn pattern, and random selection (the paper's\n"
        "actual no-cache behaviour) is strictly worse on every metric.",
    )
    cache = results["AA cache"]
    rand = results["random"]
    assert cache.agg_selected_free > rand.agg_selected_free
    assert cache.capacity_ops > rand.capacity_ops
    assert cache.write_amplification < rand.write_amplification


def test_ablation_hbps_bin_width(benchmark):
    """Error margin vs bin width: popping must stay within one bin of
    the true max, so regret scales with bin width (section 3.3.2)."""

    def run():
        rng = np.random.default_rng(0)
        scores = rng.integers(0, 32769, size=200_000)
        rows = []
        for bin_width in (256, 1024, 4096):
            h = HBPS(32768, bin_width=bin_width, list_capacity=1000)
            h.rebuild((int(i), int(s)) for i, s in enumerate(scores))
            remaining = scores.copy()
            alive = np.ones(scores.size, dtype=bool)
            regrets = []
            for _ in range(500):
                popped = h.pop_best()
                if popped is None:
                    break
                item, _b = popped
                true_max = remaining[alive].max()
                regrets.append(int(true_max - remaining[item]))
                alive[item] = False
            rows.append(
                [bin_width, bin_width / 32768, max(regrets), float(np.mean(regrets))]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["bin width", "guaranteed margin", "max regret", "mean regret"],
            rows,
            title="Ablation 2: HBPS bin width vs selection regret "
            "(paper guarantees 1024/32768 = 3.125%)",
        ),
    )
    for bin_width, _margin, max_regret, _mean in rows:
        assert max_regret < bin_width


def test_ablation_hbps_list_capacity(benchmark):
    """Smaller list pages need more replenish scans under pop-heavy
    load; the paper's 1,000-entry page makes them rare."""

    def run():
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 32769, size=100_000)
        rows = []
        for capacity in (50, 200, 1000):
            cache = RAIDAgnosticAACache(scores.size, 32768, scores,
                                        list_capacity=capacity)
            replenishes = 0
            pops = 0
            for _ in range(3000):
                aa = cache.pop_best()
                if aa is None:
                    cache.replenish(scores)
                    replenishes += 1
                    continue
                pops += 1
                # Return at a mid score so it does not immediately
                # requalify for the top bins.
                cache.apply_changes([(aa, int(scores[aa]), 15000)])
                scores[aa] = 15000
            rows.append([capacity, pops, replenishes])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["list capacity", "pops served", "replenish scans"],
            rows,
            title="Ablation 3: HBPS list capacity vs replenish frequency",
        ),
    )
    # Larger capacity -> no more (and generally fewer) replenishes.
    assert rows[0][2] >= rows[-1][2]


def test_ablation_fragmentation_threshold(benchmark):
    """Section 3.3.1's cutoff: skip heavily fragmented RAID groups while
    others have good AAs, trading spindles for stripe quality."""

    def run():
        out = {}
        for label, threshold in [("no cutoff", 0.0), ("cutoff at 30%", 0.30)]:
            spec = AggregateSpec(
                tiers=(TierSpec(label="ssd", media="ssd", n_groups=2,
                                ndata=4, blocks_per_disk=65536,
                                stripes_per_aa=2048),),
                volumes=(VolumeDecl("lun", logical_blocks=150_000),),
            )
            cfg = replace(
                SimConfig.default(),
                allocator=replace(
                    SimConfig.default().allocator,
                    threshold_fraction=threshold,
                ),
            )
            sim = WaflSim.build(spec, config=cfg, seed=5)
            # Statically fragment group 0 to ~15% free per AA.
            g = sim.store.groups[0]
            rng = np.random.default_rng(7)
            taken = rng.choice(
                g.topology.nblocks, size=int(g.topology.nblocks * 0.85), replace=False
            )
            g.metafile.allocate(np.sort(taken))
            g.metafile.drain_dirty()
            g.keeper.recompute(g.metafile.bitmap)
            g.rebuild_cache(g.keeper.scores)
            sim.store.allocator.threshold_fraction = threshold
            fill_volumes(sim, ops_per_cp=16384, seed=6)
            reset_measurement_state(sim)
            res = measure_random_overwrite(sim, label, n_cps=20, seed=8)
            out[label] = (res, sim.metrics.full_stripe_fraction,
                          sim.store.allocator.threshold_skips)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["config", "full-stripe fraction", "service us/op", "group skips"],
            [
                [label, fsf, r.cpu_us_per_op + r.device_us_per_op, skips]
                for label, (r, fsf, skips) in results.items()
            ],
            title="Ablation 4: fragmentation cutoff threshold (one 85%-full group)",
        ),
    )
    no_cut, cut = results["no cutoff"], results["cutoff at 30%"]
    assert cut[2] > 0  # the cutoff actually skipped the bad group
    assert cut[1] >= no_cut[1]  # and improved stripe quality


def test_ablation_topaa_seed_size(benchmark):
    """How long the TopAA seed sustains allocation before the
    background rebuild must finish (section 3.4 stores 512 AAs)."""

    def run():
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 32769, size=100_000)
        rows = []
        for entries in (64, 256, 512):
            blk = serialize_heap_seed(scores, max_entries=entries)
            cache = seed_heap_cache(scores.size, blk)
            pops = 0
            while cache.pop_best() is not None:
                pops += 1
            rows.append([entries, pops])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["TopAA entries", "AAs served before rebuild needed"],
            rows,
            title="Ablation 5: TopAA seed size (paper: 512 entries per block)",
        ),
    )
    assert [r[1] for r in rows] == [r[0] for r in rows]


def test_ablation_segment_cleaning(benchmark):
    """Section 3.3.1's defragmentation sketch: just-in-time cleaning of
    the cache's best AAs mints empty AAs cheaply and improves the write
    path on a fragmented aggregate."""
    from repro.core.segment_cleaner import clean_best_aas

    def run():
        out = {}
        for label, clean in [("no cleaning", False), ("clean 8 AAs/round", True)]:
            sim = build_aged_ssd_sim(
                n_groups=1, ndata=4, blocks_per_disk=131_072,
                fill_fraction=0.70, churn_factor=1.5, seed=77,
            )
            moved = 0
            for _ in range(4):
                res = measure_random_overwrite(sim, label, n_cps=5, seed=9)
                if clean:
                    rep = clean_best_aas(sim, 0, n_aas=8)
                    moved += rep.blocks_moved
            sel = sim.store.selected_aa_free_fractions()
            out[label] = (res, float(sel.mean()), moved)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        fmt_table(
            ["config", "selected AA free", "SSD write amp", "blocks moved"],
            [
                [label, sel, r.write_amplification, moved]
                for label, (r, sel, moved) in results.items()
            ],
            title="Ablation 6: just-in-time AA cleaning (section 3.3.1 sketch)",
        ),
    )
    base = results["no cleaning"]
    cleaned = results["clean 8 AAs/round"]
    # Cleaning mints emptier AAs for the allocator to select.
    assert cleaned[1] >= base[1]
    assert cleaned[2] > 0
