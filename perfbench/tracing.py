"""Per-layer timing from outside the program.

Nothing under ``src/`` knows about this file: :func:`install` replaces
the public methods listed in :data:`TARGETS` — on the live classes and
in every module that imported a function by name — with wrappers that
record one span per call, and :func:`uninstall` puts every attribute
back.  A layer is a module name; its **self time** is each span's
duration minus the part covered by its child spans, so the layer
``self_s`` values add up to the root spans' total by construction.

Spans carry name, layer, start, end, parent span and the ordinal of the
root span (CP, traffic step, mount call, cluster round) they belong to;
they stay in memory and are written as a Chrome ``trace_event`` file
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Tracer", "Target", "TARGETS", "install", "uninstall"]

perf = time.perf_counter

#: Bits covered by one 4 KiB bitmap-metafile block.
_BITS_PER_METAFILE_BLOCK = 32_768

#: Layers whose work is *by definition* outside the timed phase (input
#: generation, teardown checks, the audited tail, the in-process shard
#: replay, TopAA round-trips): their spans always count.  Every other
#: layer's ``calls``/``self_s`` cover the timed windows only, so warm-up
#: CPs and the audited tail do not inflate the pipeline's numbers.
OUTSIDE_LAYERS = frozenset(
    {"workloads", "analysis.auditor", "fs.iron", "cluster.shard", "core.topaa"}
)


class Tracer:
    """In-memory span store with running per-layer aggregates."""

    #: Spans kept for the Chrome trace; aggregates keep counting past it.
    MAX_SPANS = 400_000

    def __init__(self) -> None:
        #: (name, layer, start, end, span id, parent id, root ordinal,
        #: closed inside a timed window)
        self.spans: list[tuple[str, str, float, float, int, int, int, bool]] = []
        self.dropped = 0
        self.stack: list[list] = []
        self.next_id = 0
        self.roots = 0
        #: Per layer: [calls, self seconds] (see ``OUTSIDE_LAYERS``).
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0])
        #: Per wrapped function: [calls, inclusive seconds, self seconds].
        self.by_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: Timed windows (see ``workloads.Stopwatch``): wall inside them,
        #: and the root / root-self / all-span-self time closed in them.
        self.in_window = False
        self.window_s = 0.0
        self.window_root_s = 0.0
        self.window_root_self_s = 0.0
        self.window_self_s = 0.0
        #: ``CacheSource`` -> (keeper, cache) for ``selected_vs_best``
        #: (sources installed later, e.g. by a mount, are not scored).
        self.keepers: dict[object, tuple] = {}
        self.missing: list[str] = []

    def wrap(self, fn: Callable, name: str, layer: str, count: Callable | None) -> Callable:
        """``fn`` with a span around every call.  The bookkeeping is
        inlined (no helper calls) because hot boundaries run tens of
        thousands of times per second."""
        tr = self
        stack = self.stack
        spans = self.spans
        counters = self.counters
        layer_agg = self.layers[layer]  # [calls, self seconds]
        name_agg = self.by_name[name]  # [calls, inclusive, self]
        always = layer in OUTSIDE_LAYERS
        max_spans = self.MAX_SPANS

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                frame = [0.0, 0.0, tr.next_id, top[2], top[4]]
            else:
                tr.roots += 1
                frame = [0.0, 0.0, tr.next_id, -1, tr.roots]
            tr.next_id += 1
            stack.append(frame)
            frame[0] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                start, child_s, span_id, parent, root = frame
                dur = end - start
                own = dur - child_s
                timed = tr.in_window
                if timed or always:
                    layer_agg[0] += 1
                    layer_agg[1] += own
                name_agg[0] += 1
                name_agg[1] += dur
                name_agg[2] += own
                if stack:
                    stack[-1][1] += dur
                if timed:
                    tr.window_self_s += own
                    if not stack:
                        tr.window_root_s += dur
                        tr.window_root_self_s += own
                if len(spans) < max_spans:
                    spans.append((name, layer, start, end, span_id, parent, root, timed))
                else:
                    tr.dropped += 1
            if count is not None:
                count(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- reports ---------------------------------------------------------
    def name_total(self, name: str) -> float:
        return self.by_name[name][1] if name in self.by_name else 0.0

    def name_self(self, name: str) -> float:
        return self.by_name[name][2] if name in self.by_name else 0.0

    def name_calls(self, name: str) -> int:
        return self.by_name[name][0] if name in self.by_name else 0

    def timed_durations(self, name: str) -> list[float]:
        """Durations of the kept ``name`` spans closed in a timed window."""
        return [s[3] - s[2] for s in self.spans if s[0] == name and s[7]]

    def chrome_trace(self, path: str, process_name: str) -> None:
        """Write the kept spans as Chrome ``trace_event`` JSON."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}}
        ]
        for name, layer, start, end, span_id, parent, root, timed in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent, "root": root, "timed": timed},
            })
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}}, f)


# ----------------------------------------------------------------------
# Counters taken at the same boundaries the spans are (args[0] is self
# for methods).
# ----------------------------------------------------------------------
def _n(x) -> int:
    return int(np.asarray(x).size)


def _add(key: str, value: Callable) -> Callable:
    def count(c, args, result):
        c[key] += value(args, result)

    return count


def _count_pending_peak(c, args, result):
    pending = args[0].pending_count
    if pending > c["core.delayed_frees.pending_peak"]:
        c["core.delayed_frees.pending_peak"] = pending


def _count_store_boundary(c, args, result):
    c["fs.aggregate.blocks_written"] += result.blocks_written
    c["fs.aggregate.blocks_freed"] += result.blocks_freed


def _count_raid(c, args, result):
    c["raid.stripes"] += result.stripes_written
    c["raid.full_stripes"] += result.full_stripes
    c["raid.parity_reads"] += result.parity_blocks_read


def _count_mount(c, args, result):
    c["fs.mount.blocks_read"] += result.blocks_read
    c["fs.mount.fallbacks"] += len(result.fallbacks)


def _count_free_in_range(c, args, result):
    c["bitmap.scan_blocks_read"] += (args[2] - args[1]) / _BITS_PER_METAFILE_BLOCK


def _count_counts_per_chunk(c, args, result):
    c["bitmap.scan_blocks_read"] += args[0].nblocks / _BITS_PER_METAFILE_BLOCK


def _best_free_score(keeper, cache) -> int:
    """Best score among AAs the cache could still hand out (truth from
    the score keeper, not the cache's own view)."""
    scores = np.array(keeper.scores)
    out = list(cache.checked_out)
    if out:
        scores[out] = -1
    return int(scores.max())


@dataclass(frozen=True)
class Target:
    """One wrapped boundary: ``owner`` is ``module:Class`` or ``module``
    (a function, patched wherever it was imported by name)."""

    layer: str
    owner: str
    attr: str
    count: Callable | None = None
    #: Also patch every subclass that overrides ``attr``.
    subclasses: bool = False


def _t(layer, owner, *attrs, count=None, subclasses=False):
    return [Target(layer, owner, a, count, subclasses) for a in attrs]


def _size_arg1(key: str) -> Callable:
    return _add(key, lambda a, r: _n(a[1]))


def _size_result(key: str) -> Callable:
    return _add(key, lambda a, r: _n(r))


TARGETS: list[Target] = [
    *_t("workloads", "repro.workloads.base:Workload", "next_batch", subclasses=True),
    *_t("fs.cp", "repro.fs.cp:CPEngine", "run_cp"),
    *_t("fs.flexvol", "repro.fs.flexvol:FlexVol", "stage_writes",
        count=_size_arg1("fs.flexvol.blocks_staged")),
    *_t("fs.flexvol", "repro.fs.flexvol:FlexVol", "stage_deletes",
        count=_size_arg1("fs.flexvol.blocks_deleted")),
    *_t("fs.flexvol", "repro.fs.flexvol:FlexVol", "commit_writes", "cp_boundary",
        "create_snapshot", "delete_snapshot"),
    *_t("fs.aggregate", "repro.fs.aggregate:RAIDStore", "allocate", "log_free"),
    *_t("fs.aggregate", "repro.fs.aggregate:RAIDStore", "cp_boundary",
        count=_count_store_boundary),
    *_t("fs.aggregate", "repro.fs.aggregate:LinearStore", "allocate", "log_free"),
    *_t("fs.aggregate", "repro.fs.aggregate:LinearStore", "cp_boundary",
        count=_count_store_boundary),
    *_t("fs.aggregate", "repro.fs.aggregate:RAIDGroupRuntime", "price_cp_writes", "apply_frees"),
    *_t("tiering", "repro.tiering.policies:FlashPoolPolicy", "place",
        count=_size_result("tiering.blocks_placed")),
    *_t("tiering", "repro.tiering.policies:StaticTierPolicy", "place",
        count=_size_result("tiering.blocks_placed")),
    *_t("tiering", "repro.tiering.store:TieredStore", "allocate_in", "log_free", "cp_boundary"),
    *_t("core.allocator", "repro.core.allocator:AggregateAllocator", "allocate",
        count=_size_result("core.allocator.blocks_allocated")),
    *_t("core.allocator", "repro.core.allocator:AggregateAllocator", "cp_flush", "drain_cp_writes"),
    *_t("core.allocator", "repro.core.allocator:LinearAllocator", "allocate",
        count=_size_result("core.allocator.blocks_allocated")),
    *_t("core.cache", "repro.core.cache:CacheSource", "next_aa", "return_aa", "cp_flush"),
    *_t("core.cache", "repro.core.heap_cache:RAIDAwareAACache",
        "select", "consume", "invalidate", "refill"),
    *_t("core.cache", "repro.core.hbps_cache:RAIDAgnosticAACache",
        "select", "consume", "invalidate", "refill"),
    *_t("core.score", "repro.core.score:ScoreKeeper", "flush",
        count=_add("core.score.changes", lambda a, r: len(r))),
    *_t("core.score", "repro.core.score:ScoreKeeper", "note_alloc", "note_alloc_aa", "note_free"),
    *_t("core.delayed_frees", "repro.core.delayed_frees:DelayedFreeLog", "add",
        count=_count_pending_peak),
    *_t("core.delayed_frees", "repro.core.delayed_frees:DelayedFreeLog", "apply_all", "apply_best",
        count=_size_result("core.delayed_frees.blocks_applied")),
    *_t("bitmap", "repro.bitmap.metafile:BitmapMetafile", "allocate", "free",
        count=_size_arg1("bitmap.bits_flipped")),
    *_t("bitmap", "repro.bitmap.metafile:BitmapMetafile", "drain_dirty",
        count=_add("bitmap.metafile_blocks_dirtied", lambda a, r: r)),
    *_t("bitmap", "repro.bitmap.bitmap:Bitmap", "free_in_range", count=_count_free_in_range),
    *_t("bitmap", "repro.bitmap.bitmap:Bitmap", "counts_per_chunk", count=_count_counts_per_chunk),
    *_t("raid", "repro.raid.parity", "analyze_raid_writes", count=_count_raid),
    *_t("devices.ssd", "repro.devices.ssd:SSD", "write_blocks",
        count=_size_arg1("devices.ssd.blocks_written")),
    *_t("devices.ssd", "repro.devices.ssd:SSD", "trim"),
    *_t("devices.hdd", "repro.devices.hdd:HDD", "write_blocks",
        count=_size_arg1("devices.hdd.blocks_written")),
    *_t("devices.hdd", "repro.devices.hdd:HDD", "trim"),
    *_t("devices.smr", "repro.devices.smr:SMRDrive", "write_blocks",
        count=_size_arg1("devices.smr.blocks_written")),
    *_t("devices.smr", "repro.devices.smr:SMRDrive", "trim"),
    *_t("fs.azcs", "repro.fs.azcs", "azcs_expand", count=_size_result("fs.azcs.blocks_expanded")),
    *_t("traffic", "repro.traffic.engine:TrafficEngine", "step", "summary"),
    *_t("traffic", "repro.traffic.arrivals:ArrivalProcess", "window", subclasses=True),
    *_t("fs.mount", "repro.fs.mount", "export_topaa", "background_rebuild"),
    *_t("fs.mount", "repro.fs.mount", "simulate_mount", count=_count_mount),
    *_t("core.topaa", "repro.core.topaa", "seal_page", "serialize_hbps_cache",
        "serialize_heap_seed", count=_add("core.topaa.bytes", lambda a, r: len(r))),
    *_t("core.topaa", "repro.core.topaa", "unseal_page", "load_hbps_cache", "seed_heap_cache"),
    *_t("cluster.scheduler", "repro.cluster.scheduler:FilterScheduler", "place"),
    *_t("cluster.shard", "repro.cluster.shard:ShardRuntime",
        "__init__", "add_volume", "run_epoch", "stats"),
    *_t("cluster.pool", "repro.cluster.cluster:Cluster", "schedule", "evaluate"),
    *_t("cluster.migration", "repro.cluster.migration", "migrate_volume"),
    *_t("analysis.auditor", "repro.analysis.auditor:InvariantAuditor", "before_cp", "after_cp"),
    *_t("analysis.auditor", "repro.analysis.auditor", "audit_sim"),
    *_t("fs.iron", "repro.fs.iron", "scan"),
]


def _wrap_next_aa(tr: Tracer, fn: Callable) -> Callable:
    """``CacheSource.next_aa`` plus the useful-outcome ratio: score of
    the AA handed out over the best score that was available."""
    inner = tr.wrap(fn, "CacheSource.next_aa", "core.cache", None)

    def next_aa(self):
        keeper, cache = tr.keepers.get(self, (None, None))
        best = _best_free_score(keeper, cache) if keeper is not None else 0
        aa = inner(self)
        if aa is not None and best > 0:
            tr.counters["core.cache.selected_score"] += keeper.effective_score(aa)
            tr.counters["core.cache.best_score"] += best
        return aa

    next_aa.__wrapped__ = fn
    return next_aa


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(tr: Tracer) -> list[tuple]:
    """Patch every target; returns the undo log for :func:`uninstall`.

    A target that no longer exists (the program is free to change) is
    skipped and named in ``tr.missing`` — its layer then reports zero.
    """
    undo: list[tuple] = []

    def patch(owner, attr, wrapper) -> None:
        had = attr in vars(owner)
        undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    for t in TARGETS:
        mod_name, _, cls_name = t.owner.partition(":")
        try:
            module = importlib.import_module(mod_name)
            owner = getattr(module, cls_name) if cls_name else module
            orig = getattr(owner, t.attr)
        except (ImportError, AttributeError):
            tr.missing.append(f"{t.owner}.{t.attr}")
            continue
        label = f"{cls_name or mod_name.rsplit('.', 1)[-1]}.{t.attr}"
        if not cls_name:
            wrapper = tr.wrap(orig, label, t.layer, t.count)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(("repro", "perfbench")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        patch(mod, attr, wrapper)
            continue
        if (cls_name, t.attr) == ("CacheSource", "next_aa"):
            patch(owner, t.attr, _wrap_next_aa(tr, orig))
            continue
        owners = [owner]
        if t.subclasses:
            owners += [c for c in _subclasses(owner) if t.attr in vars(c)]
        for cls in owners:
            fn = getattr(cls, t.attr)
            if getattr(fn, "__isabstractmethod__", False):
                continue
            patch(cls, t.attr, tr.wrap(fn, f"{cls.__name__}.{t.attr}", t.layer, t.count))
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attr, had, value in reversed(undo):
        if had:
            setattr(owner, attr, value)
        else:
            delattr(owner, attr)
    undo.clear()


def register_keepers(tr: Tracer, sim) -> None:
    """Map each live ``CacheSource`` to the keeper scoring its AAs."""
    instances = list(sim.vols.values()) + [fs for _, fs, _ in sim.store.physical_instances()]
    for fs in instances:
        cache = getattr(fs, "cache", None)
        if cache is not None:
            tr.keepers[fs.source] = (fs.keeper, cache)
