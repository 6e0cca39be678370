"""Flash Pool placement, the :class:`~repro.fs.aggregate.TierPolicy`
that replaces an aggregate's per-volume tier pinning.

The CP engine consults ``aggregate.tier_policy.place(...)`` for every
volume's staged writes when one is set.  A Flash Pool is built like
any aggregate, of an SSD tier and a capacity tier; the caller then sets
``sim.store.tier_policy = FlashPoolPolicy()`` (``examples/flash_pool.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlashPoolPolicy"]


class FlashPoolPolicy:
    """The paper's Flash Pool placement (section 2.1) for an
    :class:`~repro.fs.aggregate.Aggregate` of SSD and capacity tiers:
    overwritten (hot) blocks go to the SSD tiers, first writes to the
    others, each side spilling to the other when it runs out of space
    (:meth:`~repro.fs.aggregate.Aggregate.allocate_in` raises
    ``OutOfSpaceError`` when both are full).  Stateless.
    """

    def place(
        self,
        store,
        vol_name: str,
        ids: np.ndarray,
        was_mapped: np.ndarray,
    ) -> np.ndarray:
        fast = [t.label for t in store.tiers if t.media == "ssd"]
        slow = [t.label for t in store.tiers if t.media != "ssd"]
        n_hot = int(was_mapped.sum())
        new_p = np.empty(ids.size, dtype=np.int64)
        new_p[was_mapped] = store.allocate_in(fast + slow, n_hot)
        new_p[~was_mapped] = store.allocate_in(slow + fast, int(ids.size) - n_hot)
        return new_p
