"""Property test: a score keeper that learns AAs lazily against an eager one.

:meth:`ScoreKeeper.unread` (the TopAA mount's keeper) reads an AA's
score from the bitmap the first time something needs it.  Its oracle
twin reads every score at construction, as a bitmap-walk mount does,
from a twin bitmap.  Both go through one random sequence of
allocations and frees — each applied to the bitmap and noted to the
keeper together, as the allocator's span flush and the delayed-free log
do — interleaved with reads and CP flushes, and every read and every
flush must agree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import Bitmap
from repro.core import LinearAATopology, ScoreKeeper, StripeAATopology
from repro.raid import RAIDGeometry
from ..conftest import assert_scores_match

TOPOLOGIES = (
    lambda: LinearAATopology(1024, 64),
    lambda: StripeAATopology(RAIDGeometry(3, 1, 256), 16),
)
OPS = ("alloc", "alloc_aa", "free", "score", "effective", "flush", "scores")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_lazy_keeper_matches_eager_oracle(data):
    topo = data.draw(st.sampled_from(TOPOLOGIES))()
    n = topo.nblocks
    initial = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=400)))
    bitmaps = (Bitmap(n), Bitmap(n))
    for bm in bitmaps:
        bm.allocate(np.asarray(initial, dtype=np.int64))
    eager = ScoreKeeper(topo, bitmaps[0])
    lazy = ScoreKeeper.unread(topo, bitmaps[1])
    aas = st.integers(0, topo.num_aas - 1)

    def note(vbns, *, alloc, aa=None):
        for bm, keeper in zip(bitmaps, (eager, lazy)):
            if alloc:
                bm.allocate(vbns)
                keeper.note_alloc(vbns) if aa is None else keeper.note_alloc_aa(aa, vbns.size)
            else:
                bm.free(vbns)
                keeper.note_free(vbns)

    for _ in range(data.draw(st.integers(1, 30))):
        op = data.draw(st.sampled_from(OPS))
        if op in ("alloc", "free"):
            # A window of VBNs, so a step touches one AA or many.
            lo = data.draw(st.integers(0, n - 1))
            hi = lo + data.draw(st.sampled_from((16, 128, n)))
            pool = np.flatnonzero(bitmaps[0].allocated_bits(0, n) == (op == "free"))
            pool = pool[(pool >= lo) & (pool < hi)]
            picks = data.draw(st.sets(st.integers(0, max(pool.size - 1, 0)), max_size=24))
            if pool.size and picks:
                note(pool[sorted(picks)], alloc=op == "alloc")
        elif op == "alloc_aa":  # the allocator's span flush: one AA, one delta
            aa = data.draw(aas)
            span = topo.free_vbns(bitmaps[0], aa, limit=data.draw(st.integers(1, 40)))
            if span.size:
                note(span, alloc=True, aa=aa)
        elif op == "score":
            aa = data.draw(aas)
            assert lazy.score(aa) == eager.score(aa)
        elif op == "effective":
            aa = data.draw(aas)
            assert lazy.effective_score(aa) == eager.effective_score(aa)
        elif op == "flush":
            assert np.array_equal(lazy.flush(), eager.flush())
        else:
            assert np.array_equal(lazy.scores, eager.scores)
    assert np.array_equal(lazy.flush(), eager.flush())
    assert np.array_equal(lazy.scores, eager.scores)
    assert_scores_match(lazy, bitmaps[1])
