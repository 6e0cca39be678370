"""Property-based tests: the RAID-aware cache against a reference model.

The reference is a plain dict of scores (``None`` = unknown) plus a
checked-out set.  After any sequence of pops, push-backs, CP-boundary
score changes, TopAA seeds (``populate``) and full refills:

* ``pop_best`` must return exactly the reference's pick — the highest
  score, then the lowest AA number — and ``best_score`` its score;
* no AA is ever handed out twice concurrently;
* draining the cache yields every known, available AA exactly once, in
  that order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RAIDAwareAACache

from ..conftest import examples

N_AAS = 24
MAX_SCORE = 500


@st.composite
def op_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["pop", "push_back", "change", "populate", "refill"]),
                st.integers(0, N_AAS - 1),
                st.integers(0, MAX_SCORE),
            ),
            max_size=120,
        )
    )


def reference_pick(scores: dict[int, int | None], out: set[int]) -> int | None:
    """The heap's order: highest score, then lowest AA number."""
    available = [(s, -a) for a, s in scores.items() if s is not None and a not in out]
    return -max(available)[1] if available else None


@given(
    initial=st.lists(
        st.integers(0, MAX_SCORE), min_size=N_AAS, max_size=N_AAS
    ),
    unknown=st.sets(st.integers(0, N_AAS - 1)),
    ops=op_sequences(),
)
@settings(max_examples=examples(300), deadline=None)
def test_heap_cache_against_reference(initial, unknown, ops):
    scores = {a: None if a in unknown else s for a, s in enumerate(initial)}
    if unknown:  # TopAA-seeded: the other AAs arrive as one seed
        cache = RAIDAwareAACache(N_AAS)
        cache.populate([(a, s) for a, s in scores.items() if s is not None])
    else:
        cache = RAIDAwareAACache(N_AAS, np.asarray(initial, dtype=np.int64))
    out: set[int] = set()

    for kind, aa, score in ops:
        if kind == "pop":
            want = reference_pick(scores, out)
            assert cache.best_score() == (None if want is None else scores[want])
            got = cache.pop_best()
            assert got == want
            if got is not None:
                out.add(got)
        elif kind == "push_back":
            if aa in out:
                cache.push_back(aa)
                out.discard(aa)
        elif kind == "change":
            # Score transitions always reinstate non-held checkouts; a
            # seeded cache leaves unknown AAs to the background refill.
            cache.apply_changes([(aa, scores[aa] or 0, score)])
            if scores[aa] is not None:
                scores[aa] = score
                out.discard(aa)
        elif kind == "populate":
            if scores[aa] is None:
                cache.populate([(aa, score)])
                scores[aa] = score
        else:  # refill: every AA rescored; checked-out ones keep snapshots
            fresh = np.random.default_rng(score).integers(0, MAX_SCORE + 1, size=N_AAS)
            cache.refill(fresh)
            scores = {a: scores[a] if a in out else int(s) for a, s in enumerate(fresh)}
        assert cache.checked_out == frozenset(out)
        assert cache.scores_view.tolist() == [-1 if s is None else s for s in scores.values()]

    # Drain: every known, available AA exactly once, in the reference order.
    drained = []
    while (want := reference_pick(scores, out)) is not None:
        drained.append(want)
        out.add(want)
    assert [cache.pop_best() for _ in drained] == drained
    assert cache.pop_best() is None
    cache.check_invariants()


@given(
    initial=st.lists(st.integers(0, MAX_SCORE), min_size=N_AAS, max_size=N_AAS),
    held_changes=st.lists(st.integers(0, MAX_SCORE), min_size=1, max_size=10),
)
@settings(max_examples=examples(100), deadline=None)
def test_held_aa_not_reissued(initial, held_changes):
    """An AA held across CP boundaries never re-enters the heap while
    held, no matter how its score changes."""
    cache = RAIDAwareAACache(N_AAS, np.asarray(initial, dtype=np.int64))
    held = cache.pop_best()
    score = initial[held]
    for new in held_changes:
        cache.apply_changes([(held, score, new)], held=frozenset((held,)))
        score = new
        assert held in cache.checked_out
        got = cache.pop_best()
        if got is not None:
            assert got != held
            cache.push_back(got)
    # Returning it re-inserts at the latest score.
    cache.push_back(held)
    assert cache.score_of(held) == score
    cache.check_invariants()
