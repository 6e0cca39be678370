"""The ``overhead`` and ``ablations`` rows of the experiment table.

``overhead`` holds the paper's two cost claims about the AA caches:
section 4.1.2's "only about 0.002% of the total CPU cycles was spent
maintaining each of the RAID-aware and RAID-agnostic AA caches", and
section 3.3.2's memory argument — the HBPS stays at two pages however
many AAs it tracks while the max-heap grows linearly (about 1 MiB per
million AAs).  ``ablations`` varies the design decisions DESIGN.md
section 5 calls out, one per unit.  (How *fast* the structures are on
this host is perfbench's question: ``perfbench/kernels.py``.)

Each unit is a measurement ``(quick, seed) -> metrics`` followed by the
claim it supports, a pure function of those metrics; :data:`UNITS`
pairs them.
"""

from __future__ import annotations

import numpy as np

from ..common.config import AggregateSpec, TierSpec, VolumeDecl
from ..common.constants import RAID_AGNOSTIC_AA_BLOCKS as MAX_SCORE
from ..common.rng import make_rng
from ..core import HBPS, RAIDAgnosticAACache, RAIDAwareAACache, seed_heap_cache, serialize_heap_seed
from ..fs import PolicyKind, WaflSim
from ..fs.segment_cleaner import clean_best_aas
from ..workloads import RandomOverwriteWorkload, fill_volumes, reset_measurement_state
from .claims import Claim, Experiment
from .harness import (
    build_aged_ssd_sim, document_tables, fill_group_statically, measure_random_overwrite,
)

__all__ = ["ROWS"]

OVERHEAD_UNITS = ("maintenance", "memory")


def _random_scores(seed: int, n: int) -> np.ndarray:
    return make_rng(seed).integers(0, MAX_SCORE + 1, size=n)


def _maintenance(quick: bool, seed: int) -> dict:
    """The Figure 6 workload on the section 4.1 testbed, both caches on."""
    sim = build_aged_ssd_sim(
        blocks_per_disk=65_536 if quick else 131_072,
        churn_factor=1.0 if quick else 2.0,
        seed=seed,
    )
    wl = RandomOverwriteWorkload(sim, ops_per_cp=8192, blocks_per_op=2, seed=seed + 1)
    sim.run(wl, 15 if quick else 30)
    return {"cache_maintenance_us": sim.engine.cache_maintenance_us,
            "total_cpu_us": sim.metrics.total_cpu_us}


def _maintenance_claims(m: dict) -> list[Claim]:
    frac = m["cache_maintenance_us"] / m["total_cpu_us"]
    return [Claim(
        "AA-cache maintenance (all caches) is < 0.1% of WAFL CPU under heavy random "
        "overwrites",
        "~0.002% per cache", f"{frac:.5%}", frac < 0.001,
    )]


def _memory(quick: bool, seed: int) -> dict:
    """Both caches built from random scores at 10^3 .. 10^6 AAs."""
    rows = []
    for n in (1000, 100_000) if quick else (1000, 100_000, 1_000_000):
        scores = _random_scores(seed, n)
        heap = RAIDAwareAACache(n, scores)
        hbps = RAIDAgnosticAACache(n, MAX_SCORE, scores)
        rows.append({"aas": n, "heap_bytes": heap.memory_bytes,
                     "heap_aas_known": heap.known_count, "hbps_bytes": hbps.memory_bytes,
                     "hbps_aas_tracked": hbps.stats()["tracked"]})
    return {"rows": rows}


def _memory_claims(m: dict) -> list[Claim]:
    rows, largest = m["rows"], m["rows"][-1]
    return [
        Claim("the HBPS is two 4 KiB pages at every size and tracks every AA",
              "two pages, regardless of AA count",
              f"{sorted({r['hbps_bytes'] for r in rows})} B up to {largest['aas']:,} AAs",
              all(r["hbps_bytes"] == 8192 and r["hbps_aas_tracked"] == r["aas"]
                  for r in rows)),
        Claim("the max-heap holds every AA in at most 17 bytes (measured)",
              "~1 MiB per million AAs (8 B each)",
              f"{largest['heap_bytes']:,} B for {largest['aas']:,} AAs",
              all(r["heap_bytes"] <= 17 * r["aas"] and r["heap_aas_known"] == r["aas"]
                  for r in rows)),
    ]


def _selection_policy(quick: bool, seed: int) -> dict:
    """Cache vs random vs first-fit scan (section 4.1 plus our extra
    first-fit baseline).  Half the data is cold (never overwritten), as
    in real LUN populations: under *uniform* churn a first-fit cursor
    behaves like an LFS sweep and matches the cache; cold regions are
    what make score-blind scans pay for consulting nearly-full AAs."""
    rows = []
    for label, policy in (("AA cache", PolicyKind.CACHE), ("random", PolicyKind.RANDOM),
                          ("first-fit scan", PolicyKind.LINEAR_SCAN)):
        sim = build_aged_ssd_sim(
            aggregate_policy=policy, vol_policy=policy,
            blocks_per_disk=65_536 if quick else 131_072,
            churn_factor=1.0 if quick else 2.0, seed=seed,
        )
        r = measure_random_overwrite(
            sim, label, n_cps=10 if quick else 25, working_set_fraction=0.5, seed=seed + 1
        )
        rows.append(r.as_dict())
    return {"rows": rows}


def _selection_policy_claims(m: dict) -> list[Claim]:
    # The first-fit cursor may match the cache (see above); the cache's
    # advantage is needing no favourable pattern, and random selection —
    # the paper's no-cache behaviour — is worse on every metric.
    cache, rand, _scan = m["rows"]
    return [Claim(
        "the AA cache beats random selection on selected-AA free space, peak "
        "throughput and SSD write amplification",
        "61% vs 46% selected; 1.46 vs 1.77 WA (section 4.1)",
        f"{cache['agg_selected_free']:.1%} vs {rand['agg_selected_free']:.1%}; "
        f"{cache['capacity_ops']:,.0f} vs {rand['capacity_ops']:,.0f} ops/s; "
        f"WA {cache['write_amplification']:.2f} vs {rand['write_amplification']:.2f}",
        cache["agg_selected_free"] > rand["agg_selected_free"]
        and cache["capacity_ops"] > rand["capacity_ops"]
        and cache["write_amplification"] < rand["write_amplification"],
    )]


def _hbps_bin_width(quick: bool, seed: int) -> dict:
    """Popping stays within one bin of the true maximum, so selection
    regret scales with the bin width (section 3.3.2)."""
    scores = _random_scores(seed, 50_000 if quick else 200_000)
    rows = []
    for bin_width in (256, 1024, 4096):
        h = HBPS(MAX_SCORE, bin_width=bin_width, list_capacity=1000)
        h.rebuild((int(i), int(s)) for i, s in enumerate(scores))
        alive = np.ones(scores.size, dtype=bool)
        regrets = []
        for _ in range(500):
            item, _bin = h.pop_best()
            regrets.append(int(scores[alive].max() - scores[item]))
            alive[item] = False
        rows.append({"bin_width": bin_width, "guaranteed_margin": bin_width / MAX_SCORE,
                     "max_regret": max(regrets), "mean_regret": float(np.mean(regrets))})
    return {"rows": rows}


def _hbps_bin_width_claims(m: dict) -> list[Claim]:
    pairs = [(r["max_regret"], r["bin_width"]) for r in m["rows"]]
    return [Claim(
        "HBPS selection regret stays below one bin width",
        "within 3.125% of the best score at 1K-wide bins",
        ", ".join(f"{regret} < {width}" for regret, width in pairs),
        all(regret < width for regret, width in pairs),
    )]


def _hbps_list_capacity(quick: bool, seed: int) -> dict:
    """Smaller list pages need more replenish scans under pop-heavy
    load; the paper's 1,000-entry page makes them rare."""
    rows = []
    for capacity in (50, 200, 1000):
        scores = _random_scores(seed, 100_000)
        cache = RAIDAgnosticAACache(scores.size, MAX_SCORE, scores, list_capacity=capacity)
        replenishes = pops = 0
        for _ in range(1000 if quick else 3000):
            aa = cache.pop_best()
            if aa is None:
                cache.replenish(scores)
                replenishes += 1
                continue
            pops += 1
            # Return at a mid score so it does not requalify for the top bins.
            cache.apply_changes([(aa, int(scores[aa]), 15000)])
            scores[aa] = 15000
        rows.append({"list_capacity": capacity, "pops_served": pops,
                     "replenish_scans": replenishes})
    return {"rows": rows}


def _hbps_list_capacity_claims(m: dict) -> list[Claim]:
    smallest, *_mid, largest = m["rows"]
    return [Claim(
        "a larger HBPS list page needs no more replenish scans than a smaller one",
        "1,000 entries make replenishes rare",
        f"{smallest['replenish_scans']} scans at {smallest['list_capacity']} entries "
        f"vs {largest['replenish_scans']} at {largest['list_capacity']}",
        smallest["replenish_scans"] >= largest["replenish_scans"],
    )]


def _fragmentation_cutoff(quick: bool, seed: int) -> dict:
    """Section 3.3.1's cutoff: skip a heavily fragmented RAID group while
    others have good AAs, trading spindles for stripe quality."""
    rows = []
    for label, threshold in (("no cutoff", 0.0), ("cutoff at 30%", 0.30)):
        spec = AggregateSpec(
            tiers=(TierSpec(label="ssd", media="ssd", n_groups=2, ndata=4,
                            blocks_per_disk=65536, stripes_per_aa=2048),),
            volumes=(VolumeDecl("lun", logical_blocks=150_000),),
            threshold_fraction=threshold,
        )
        sim = WaflSim.build(spec, seed=seed)
        # Group 0 starts ~15% free per AA.
        fill_group_statically(sim.store.groups[0], 0.85, make_rng(seed + 1))
        fill_volumes(sim, ops_per_cp=16384, seed=seed + 2)
        reset_measurement_state(sim)
        r = measure_random_overwrite(sim, label, n_cps=10 if quick else 20, seed=seed + 3)
        rows.append(dict(r.as_dict(), group_skips=sim.store.members[0].allocator.threshold_skips))
    return {"rows": rows}


def _fragmentation_cutoff_claims(m: dict) -> list[Claim]:
    no_cut, cut = m["rows"]
    return [Claim(
        "the fragmentation cutoff skips the fragmented RAID group and does not lower "
        "the full-stripe fraction",
        "skip heavily fragmented groups while others have good AAs",
        f"{cut['group_skips']} skips; full stripes "
        f"{no_cut['full_stripe_fraction']:.3f} -> {cut['full_stripe_fraction']:.3f}",
        cut["group_skips"] > 0
        and cut["full_stripe_fraction"] >= no_cut["full_stripe_fraction"],
    )]


def _topaa_seed_size(quick: bool, seed: int) -> dict:
    """How long the TopAA seed sustains allocation before the background
    rebuild must finish (section 3.4 stores 512 AAs per block)."""
    scores = _random_scores(seed, 100_000)
    rows = []
    for entries in (64, 256, 512):
        cache = seed_heap_cache(
            scores.size, serialize_heap_seed(scores, max_entries=entries), aa_blocks=MAX_SCORE
        )
        pops = 0
        while cache.pop_best() is not None:
            pops += 1
        rows.append({"topaa_entries": entries, "aas_served_before_rebuild": pops})
    return {"rows": rows}


def _topaa_seed_size_claims(m: dict) -> list[Claim]:
    pairs = [(r["aas_served_before_rebuild"], r["topaa_entries"]) for r in m["rows"]]
    return [Claim(
        "a TopAA seed of n entries serves exactly n AAs before the rebuild is needed",
        "512 AAs per TopAA block",
        ", ".join(f"{served} from {entries}" for served, entries in pairs),
        all(served == entries for served, entries in pairs),
    )]


def _segment_cleaning(quick: bool, seed: int) -> dict:
    """Section 3.3.1's defragmentation sketch: just-in-time cleaning of
    the cache's best AAs mints empty AAs cheaply."""
    rows = []
    for label, clean in (("no cleaning", False), ("clean 8 AAs/round", True)):
        sim = build_aged_ssd_sim(
            n_groups=1, ndata=4, blocks_per_disk=65_536 if quick else 131_072,
            fill_fraction=0.70, churn_factor=1.0 if quick else 1.5, seed=seed,
        )
        moved = 0
        for _ in range(4):
            r = measure_random_overwrite(sim, label, n_cps=5, seed=seed + 1)
            if clean:
                moved += clean_best_aas(sim, 0, n_aas=8).blocks_moved
        # (``r`` is the last round; its selection trace spans all four.)
        rows.append(dict(r.as_dict(), blocks_moved=moved))
    return {"rows": rows}


def _segment_cleaning_claims(m: dict) -> list[Claim]:
    base, cleaned = m["rows"]
    return [Claim(
        "just-in-time cleaning moves blocks and the allocator then selects AAs at "
        "least as empty",
        "cleaning mints empty AAs cheaply (section 3.3.1)",
        f"{cleaned['blocks_moved']} blocks moved; selected AA free "
        f"{base['agg_selected_free']:.3f} -> {cleaned['agg_selected_free']:.3f}",
        cleaned["blocks_moved"] > 0
        and cleaned["agg_selected_free"] >= base["agg_selected_free"],
    )]


#: unit -> (measurement, its claims).
UNITS = {
    "maintenance": (_maintenance, _maintenance_claims),
    "memory": (_memory, _memory_claims),
    "selection policy": (_selection_policy, _selection_policy_claims),
    "hbps bin width": (_hbps_bin_width, _hbps_bin_width_claims),
    "hbps list capacity": (_hbps_list_capacity, _hbps_list_capacity_claims),
    "fragmentation cutoff": (_fragmentation_cutoff, _fragmentation_cutoff_claims),
    "topaa seed size": (_topaa_seed_size, _topaa_seed_size_claims),
    "segment cleaning": (_segment_cleaning, _segment_cleaning_claims),
}


def _run(unit: str, *, quick: bool, seed: int) -> dict:
    return {"metrics": UNITS[unit][0](quick, seed)}


def _claims(results: dict[str, dict]) -> list[Claim]:
    return [c for unit, res in results.items() for c in UNITS[unit][1](res["metrics"])]


ROWS = (
    Experiment(
        "overhead", "AA-cache maintenance CPU and memory (sections 4.1.2, 3.3.2)", 42,
        OVERHEAD_UNITS, _run, document_tables, _claims,
    ),
    Experiment(
        "ablations", "ablations of the design decisions (DESIGN.md section 5)", 42,
        tuple(u for u in UNITS if u not in OVERHEAD_UNITS), _run, document_tables, _claims,
    ),
)
