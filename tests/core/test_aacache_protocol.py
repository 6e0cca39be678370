"""Shared conformance suite for the unified AACache protocol.

Every test in ``TestConformance`` runs against both implementations —
the RAID-aware max-heap and the RAID-agnostic HBPS — through nothing
but the protocol surface (``select`` / ``invalidate`` / ``consume`` /
``refill`` / ``stats`` and the probe properties).  The factory tests
pin :func:`make_aa_cache`'s topology dispatch.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.common import CacheError
from repro.core import (
    AACache,
    CacheSource,
    LinearAATopology,
    RAIDAgnosticAACache,
    RAIDAwareAACache,
    StripeAATopology,
    make_aa_cache,
)
from repro.raid import RAIDGeometry

N_AAS = 8
AA_BLOCKS = 256
SCORES = [40, 200, 120, 250, 90, 10, 180, 60]


def make_heap(scores=SCORES) -> RAIDAwareAACache:
    return RAIDAwareAACache(len(scores), np.asarray(scores, dtype=np.int64))


def make_hbps(scores=SCORES) -> RAIDAgnosticAACache:
    return RAIDAgnosticAACache(
        len(scores), AA_BLOCKS, np.asarray(scores, dtype=np.int64)
    )


@pytest.fixture(params=["heap", "hbps"])
def cache(request) -> AACache:
    return {"heap": make_heap, "hbps": make_hbps}[request.param]()


class TestConformance:
    def test_satisfies_runtime_protocol(self, cache):
        assert isinstance(cache, AACache)
        assert cache.num_aas == N_AAS

    def test_select_hands_out_each_aa_at_most_once(self, cache):
        out = []
        while (aa := cache.select()) is not None:
            out.append(aa)
        assert len(out) == len(set(out))
        assert all(0 <= aa < N_AAS for aa in out)

    def test_selected_aas_are_checked_out(self, cache):
        aa = cache.select()
        assert aa in cache.checked_out

    def test_invalidate_returns_aa_for_reselection(self, cache):
        aa = cache.select()
        cache.invalidate(aa, SCORES[aa])
        assert aa not in cache.checked_out
        reselected = []
        while (got := cache.select()) is not None:
            reselected.append(got)
        assert aa in reselected

    def test_consume_respects_held_set(self, cache):
        aa = cache.select()
        held = frozenset([aa])
        cache.consume([(aa, SCORES[aa], SCORES[aa] + 4)], held)
        assert aa in cache.checked_out

    def test_held_aa_that_is_not_checked_out_stays_selectable(self, cache):
        # Only AAs both held and checked out stay out of a consume.
        cache.consume([(5, SCORES[5], AA_BLOCKS)], frozenset({5}))
        got = []
        while (aa := cache.select()) is not None:
            got.append(aa)
        assert sorted(got) == list(range(N_AAS))
        if isinstance(cache, RAIDAwareAACache):
            assert got[0] == 5
        cache.check_invariants()

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_taken_mid_run_runs_like_the_original(self, cache, clone):
        scores = list(SCORES)

        def consume(caches, rows, held=frozenset()):
            rows = [(aa, scores[aa], new) for aa, new in rows]
            for c in caches:
                c.consume(rows, held)
            for aa, _old, new in rows:
                scores[aa] = new

        first = cache.select()
        consume([cache], [(first, 7), (4, 230)])
        held = cache.select()
        twin = clone(cache)
        both = (cache, twin)
        consume(both, [(1, 3), (held, 100), (6, 250)], frozenset({held}))
        picks = [[c.select() for _ in range(3)] for c in both]
        assert picks[0] == picks[1]
        for c in both:
            c.invalidate(picks[0][1], scores[picks[0][1]])
        consume(both, [(held, 0), (picks[0][0], 200)])
        drained = [[c.select() for _ in range(N_AAS + 1)] for c in both]
        assert drained[0] == drained[1]
        assert cache.stats() == twin.stats()
        assert cache.checked_out == twin.checked_out
        for c in both:
            c.check_invariants()

    def test_consume_releases_unheld_aas(self, cache):
        aa = cache.select()
        cache.consume([(aa, SCORES[aa], SCORES[aa] + 4)])
        assert aa not in cache.checked_out

    def test_refill_rejects_length_mismatch(self, cache):
        with pytest.raises(CacheError):
            cache.refill(np.zeros(N_AAS + 1, dtype=np.int64))

    def test_refill_resets_needs_refill(self, cache):
        while cache.select() is not None:
            pass
        cache.refill(np.asarray(SCORES, dtype=np.int64))
        assert not cache.needs_refill

    def test_best_available_score_tracks_best(self, cache):
        best = cache.best_available_score()
        assert best is not None
        # Exact for the heap; bin resolution (either side) for HBPS.
        assert abs(best - max(SCORES)) <= AA_BLOCKS

    def test_stats_contract(self, cache):
        stats = cache.stats()
        assert {"selects", "maintenance_ops", "checked_out"} <= set(stats)
        cache.select()
        after = cache.stats()
        assert after["selects"] == stats["selects"] + 1
        assert after["checked_out"] == 1

    def test_maintenance_ops_monotone(self, cache):
        seen = [cache.maintenance_ops]
        aa = cache.select()
        seen.append(cache.maintenance_ops)
        cache.invalidate(aa, SCORES[aa])
        seen.append(cache.maintenance_ops)
        cache.refill(np.asarray(SCORES, dtype=np.int64))
        seen.append(cache.maintenance_ops)
        assert seen == sorted(seen)


class TestBatchRefusal:
    """A ``consume`` batch is validated whole before anything moves."""

    def snapshot(self, cache):
        return (cache.stats(), cache.checked_out, cache.best_available_score(),
                cache.to_pages() if isinstance(cache, RAIDAgnosticAACache)
                else cache.scores_view.tolist())

    @pytest.mark.parametrize("aa", [-1, N_AAS, N_AAS + 1])
    def test_out_of_range_aa_is_refused(self, cache, aa):
        before = self.snapshot(cache)
        with pytest.raises(CacheError, match="outside"):
            cache.consume([(aa, SCORES[-1], 99)])
        assert self.snapshot(cache) == before
        assert 0 <= cache.select() < N_AAS

    def test_heap_negative_aa_never_reaches_the_allocator(self):
        cache = RAIDAwareAACache(4, np.array([10, 20, 30, 40]))
        with pytest.raises(CacheError):
            cache.consume([(-1, 40, 99)])
        assert cache.select() == 3
        cache.check_invariants()

    def test_hbps_out_of_range_aas_are_not_selected(self):
        cache = RAIDAgnosticAACache(4, 100, np.array([10, 20, 30, 40]), bin_width=10)
        for aa in (-1, 9):
            with pytest.raises(CacheError):
                cache.consume([(aa, 40, 100)])
        assert cache.select() == 3

    def test_batch_naming_an_aa_twice_is_refused(self, cache):
        before = self.snapshot(cache)
        with pytest.raises(CacheError, match="twice"):
            cache.consume([(2, SCORES[2], 5), (2, 5, 7)])
        assert self.snapshot(cache) == before

    @pytest.mark.parametrize("rows", [
        [(1, 10), (3, 3, 5, 6)],  # six values: once re-chunked into two rows
        [(1, 10, 20), (3, 30)],
        [(1, 10, 20, 4)],
        np.zeros((2, 4), dtype=np.int64),
        np.zeros((3, 2), dtype=np.int64),
    ])
    def test_batch_row_not_three_wide_is_refused(self, cache, rows):
        before = self.snapshot(cache)
        with pytest.raises(CacheError, match="wide|rows"):
            cache.consume(rows)
        assert self.snapshot(cache) == before

    @pytest.mark.parametrize("pairs", [
        [(1, 20, 3, 40)],  # once seeded AAs 1 and 3
        [(1, 20), (3,)],
        np.array([[1, 2, 3], [4, 5, 6]]),  # once read as pairs (1, 2), (3, 4), (5, 6)
    ])
    def test_seed_row_not_two_wide_is_refused(self, pairs):
        c = RAIDAwareAACache(10)
        with pytest.raises(CacheError, match="wide|rows"):
            c.populate(pairs)
        assert c.known_count == 0

    def test_rejected_batch_is_not_half_applied(self, cache):
        aa = cache.select()
        before = self.snapshot(cache)
        bad = -3 if isinstance(cache, RAIDAwareAACache) else AA_BLOCKS + 1
        with pytest.raises(CacheError):
            cache.consume([(aa, SCORES[aa], AA_BLOCKS), (7, SCORES[7], bad)])
        assert self.snapshot(cache) == before
        assert aa in cache.checked_out

    def test_hbps_half_applied_batch_at_full_scale(self):
        scores = np.arange(0, 32768, 4096)
        cache = RAIDAgnosticAACache(len(scores), 32768, scores)
        aa = cache.select()
        pages, stats = cache.to_pages(), cache.stats()
        with pytest.raises(CacheError):
            cache.consume([(aa, int(scores[aa]), 32768), (7, int(scores[7]), 40000)])
        assert (cache.to_pages(), cache.stats()) == (pages, stats)
        assert cache.checked_out == frozenset({aa})

    def test_heap_refuses_negative_scores(self):
        cache = make_heap()
        before = self.snapshot(cache)
        with pytest.raises(CacheError, match="negative"):
            cache.consume([(1, SCORES[1], -5)])
        assert self.snapshot(cache) == before

    def test_flushed_array_and_tuple_list_are_one_batch(self, cache):
        twin = {"heap": make_heap, "hbps": make_hbps}[
            "heap" if isinstance(cache, RAIDAwareAACache) else "hbps"]()
        rows = [(0, SCORES[0], 200), (5, SCORES[5], 100), (3, SCORES[3], 1)]
        cache.consume(rows)
        twin.consume(np.array(rows, dtype=np.int64))
        assert self.snapshot(cache) == self.snapshot(twin)


class TestCacheSource:
    def test_adapts_any_cache(self, cache):
        src = CacheSource(cache)
        aa = src.next_aa()
        assert aa is not None
        src.return_aa(aa, SCORES[aa])
        assert cache.checked_out == frozenset()

    def test_background_refill_triggers_once_dry(self):
        cache = make_hbps()
        calls = []

        def replenisher():
            calls.append(1)
            return np.asarray(SCORES, dtype=np.int64)

        src = CacheSource(cache, replenisher)
        drained = set()
        for _ in range(3 * N_AAS):
            aa = src.next_aa()
            if aa is None:
                break
            drained.add(aa)
            cache.consume([(aa, SCORES[aa], 0)])
        assert src.replenish_count == len(calls)


class TestFactory:
    def test_stripe_topology_builds_heap_cache(self):
        topo = StripeAATopology(RAIDGeometry(3, 1, 32768), 2048)
        cache = make_aa_cache(topo, np.zeros(topo.num_aas, dtype=np.int64))
        assert isinstance(cache, RAIDAwareAACache)
        assert cache.num_aas == topo.num_aas

    def test_linear_topology_builds_hbps_cache(self):
        topo = LinearAATopology(4096, 256)
        cache = make_aa_cache(topo, np.zeros(topo.num_aas, dtype=np.int64))
        assert isinstance(cache, RAIDAgnosticAACache)


class TestShimsRemoved:
    def test_old_adapters_are_gone(self):
        import repro.core.policies as policies

        assert not hasattr(policies, "HeapSource")
        assert not hasattr(policies, "HBPSSource")
