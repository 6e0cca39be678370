"""The names perfbench calls in the AA caches, score keeper and delayed
frees resolve, and take the arguments perfbench passes.

perfbench times layers by wrapping methods named in
``perfbench/tracing.py:TARGETS`` and drives the caches directly
(``perfbench/kernels.py``, the ``cache_scale`` workload).  A target
that no longer resolves is skipped there and its layer reads zero, so a
rename must fail here instead.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from perfbench.tracing import TARGETS
from repro.core import HBPS, RAIDAgnosticAACache, RAIDAwareAACache
from repro.core.topaa import load_hbps_cache, serialize_hbps_cache

LAYERS = ("core.cache", "core.score", "core.delayed_frees")
MAX_SCORE = 32_768


@pytest.mark.parametrize(
    "target",
    [t for t in TARGETS if t.layer in LAYERS],
    ids=lambda t: f"{t.owner}.{t.attr}",
)
def test_tracing_target_resolves(target):
    module, _, cls = target.owner.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, target.attr))


def test_every_layer_has_targets():
    assert {t.layer for t in TARGETS} >= set(LAYERS)


def test_hbps_kernel_calls():
    """``kernels.py``'s HBPS calls: ``rebuild`` from pairs, ``build``
    from arrays, ``is_listed``, ``update``, ``pop_best`` then ``insert``
    at the popped bin's lower bound."""
    rng = np.random.default_rng(0)
    scores = rng.integers(0, MAX_SCORE + 1, size=4096)
    h = HBPS(MAX_SCORE)
    h.rebuild((i, int(s)) for i, s in enumerate(scores))
    built = HBPS(MAX_SCORE)
    built.build(np.arange(scores.size), scores)
    assert built.to_pages() == h.to_pages()
    for item, new in zip(range(0, 4096, 7), rng.integers(0, MAX_SCORE + 1, size=600).tolist()):
        if h.is_listed(item):
            continue
        h.update(item, int(scores[item]), new)
        scores[item] = new
    for _ in range(50):
        item, b = h.pop_best()
        h.insert(item, h.bin_bounds(b)[0])
    h.check_invariants()


def test_heap_kernel_calls():
    """``kernels.py``'s heap calls: ``apply_changes`` on a list of
    triples, ``pop_best`` and ``push_back``."""
    rng = np.random.default_rng(1)
    scores = rng.integers(0, MAX_SCORE + 1, size=2**12)
    heap = RAIDAwareAACache(scores.size, scores)
    aas = rng.permutation(scores.size)[:1000]
    news = rng.integers(0, MAX_SCORE + 1, size=aas.size)
    heap.apply_changes(list(zip(aas.tolist(), scores[aas].tolist(), news.tolist())))
    scores[aas] = news
    for _ in range(100):
        heap.push_back(heap.pop_best())
    heap.check_invariants()
    assert np.array_equal(heap.scores_view, scores)


@pytest.mark.parametrize("kind", ["hbps", "heap"])
def test_cache_scale_calls(kind):
    """``cache_scale``'s protocol calls on both caches: ``select``,
    ``invalidate(aa, score)``, ``consume`` of a list of triples,
    ``needs_refill`` / ``refill(scores)``, and the checks and counters
    its ``finish`` and ``extras`` read."""
    rng = np.random.default_rng(2)
    n = 2**13
    scores = rng.integers(0, MAX_SCORE + 1, size=n)
    if kind == "hbps":
        cache = RAIDAgnosticAACache(n, MAX_SCORE, scores.copy())
    else:
        cache = RAIDAwareAACache(n, scores.copy())
    for _ in range(20):
        selected = [aa for aa in (cache.select() for _ in range(8)) if aa is not None]
        aas = np.unique(rng.integers(0, n, size=500))
        aas = np.concatenate((aas[~np.isin(aas, selected)], selected)).astype(np.int64)
        news = rng.integers(0, MAX_SCORE + 1, size=aas.size)
        news[aas.size - len(selected):] = scores[selected] // 2
        moved = scores[aas] != news
        changes = list(zip(aas[moved].tolist(), scores[aas][moved].tolist(),
                           news[moved].tolist()))
        stuck = [aa for aa in selected if aa not in set(aas[moved].tolist())]
        scores[aas] = news
        for aa in stuck:
            cache.invalidate(aa, int(scores[aa]))
        cache.consume(changes)
        if cache.needs_refill:
            cache.refill(scores)
    cache.check_invariants()
    assert not cache.checked_out
    assert cache.maintenance_ops == cache.stats()["maintenance_ops"] > 0
    if kind == "hbps":
        assert cache.hbps.total_count == n
        load_hbps_cache(serialize_hbps_cache(cache), cache.num_aas).check_invariants()
    else:
        assert np.array_equal(cache.scores_view, scores)
