"""Concrete :class:`~repro.fs.aggregate.TierPolicy` implementations.

The CP engine consults ``store.tier_policy.place(...)`` for every
volume's staged writes; these policies decide which tier (and therefore
which devices) each block lands on.  Both route through
:meth:`repro.tiering.TieredStore.allocate_in`, which spills through
the tiers they name in order.  :class:`StaticTierPolicy` is attached
by :func:`repro.tiering.make_tiered_store` for multi-tier aggregates;
a Flash Pool is the same build of an SSD tier and a capacity tier,
after which the caller sets ``sim.store.tier_policy =
FlashPoolPolicy()`` (``examples/flash_pool.py``).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OutOfSpaceError

__all__ = ["FlashPoolPolicy", "StaticTierPolicy"]


class FlashPoolPolicy:
    """The paper's Flash Pool placement (section 2.1) for a
    :class:`~repro.tiering.TieredStore` of SSD and capacity tiers:
    overwritten (hot) blocks go to the SSD tiers, first writes to the
    others, each side spilling to the other when it runs out of space.
    Stateless.
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
        p_hot = store.allocate_in(fast + slow, n_hot)
        p_cold = store.allocate_in(slow + fast, int(ids.size) - n_hot)
        got = p_hot.size + p_cold.size
        if got < ids.size:
            raise OutOfSpaceError(
                f"aggregate out of space: {got} of {ids.size} "
                f"physical blocks allocated for volume {vol_name}"
            )
        new_p = np.empty(ids.size, dtype=np.int64)
        new_p[was_mapped] = p_hot
        new_p[~was_mapped] = p_cold
        return new_p


class StaticTierPolicy:
    """Per-volume tier pinning for a :class:`~repro.tiering.TieredStore`.

    Each volume allocates from its assigned tier, spilling to the
    remaining tiers in declaration order only when the assigned one
    runs out of space.  Assignments start from the build-time chooser
    and can be overridden live with :meth:`assign` — which is exactly
    what the tier-migration pass does before rewriting a volume.
    """

    def __init__(
        self,
        assignments: dict[str, str] | None = None,
        *,
        default: str,
    ) -> None:
        self.assignments: dict[str, str] = dict(assignments or {})
        self.default = default

    def tier_of(self, vol_name: str) -> str:
        """The tier label this policy routes ``vol_name`` to."""
        return self.assignments.get(vol_name, self.default)

    def assign(self, vol_name: str, label: str) -> None:
        """Pin ``vol_name`` to tier ``label`` from the next CP on."""
        self.assignments[vol_name] = label

    def place(
        self,
        store,
        vol_name: str,
        ids: np.ndarray,
        was_mapped: np.ndarray,
    ) -> np.ndarray:
        # allocate_in refuses an unknown label before allocating.
        label = self.tier_of(vol_name)
        n = int(ids.size)
        got = store.allocate_in([label] + [t for t in store.labels if t != label], n)
        if got.size < n:
            raise OutOfSpaceError(
                f"aggregate out of space: {got.size} of {n} "
                f"physical blocks allocated for volume {vol_name}"
            )
        return got
