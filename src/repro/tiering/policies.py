"""Concrete :class:`~repro.fs.aggregate.TierPolicy` implementations.

The CP engine consults ``store.tier_policy.place(...)`` for every
volume's staged writes; these policies decide which tier (and therefore
which devices) each block lands on.  :class:`StaticTierPolicy` is
attached by :func:`repro.tiering.make_tiered_store` for multi-tier
aggregates; no builder attaches :class:`FlashPoolPolicy` — a caller
sets ``store.tier_policy = FlashPoolPolicy()`` on a mixed-media RAID
store by hand (``examples/flash_pool.py``).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import OutOfSpaceError, TieringError
from ..devices.base import MediaType

__all__ = ["FlashPoolPolicy", "StaticTierPolicy"]


class FlashPoolPolicy:
    """The paper's Flash Pool placement (section 2.1) for a mixed-media
    :class:`~repro.fs.aggregate.RAIDStore`: overwritten (hot) blocks go
    to the SSD RAID groups, first writes to the capacity groups, each
    side falling back to the other when its groups run dry.

    Stateless; byte-identical to the placement the CP engine used to
    hard-code behind the ``supports_tiering`` probe.
    """

    @staticmethod
    def _media_groups(store, fast: bool) -> list[int]:
        return [
            i
            for i, m in enumerate(store.media_kinds)
            if (m is MediaType.SSD) == fast
        ]

    def _allocate(self, store, n: int, *, fast: bool) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        got = store.allocate(n, groups=self._media_groups(store, fast))
        if got.size < n:
            rest = store.allocate(
                n - got.size, groups=self._media_groups(store, not fast)
            )
            got = np.concatenate([got, rest]) if got.size else rest
        return got

    def place(
        self,
        store,
        vol_name: str,
        ids: np.ndarray,
        was_mapped: np.ndarray,
    ) -> np.ndarray:
        n_hot = int(was_mapped.sum())
        p_hot = self._allocate(store, n_hot, fast=True)
        p_cold = self._allocate(store, int(ids.size) - n_hot, fast=False)
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
        label = self.tier_of(vol_name)
        if label not in store.labels:
            raise TieringError(
                f"volume {vol_name} assigned to unknown tier {label!r}; "
                f"aggregate tiers: {store.labels}"
            )
        n = int(ids.size)
        got = store.allocate_in(label, n)
        if got.size < n:
            for other in store.labels:
                if other == label:
                    continue
                more = store.allocate_in(other, n - got.size)
                if more.size:
                    got = np.concatenate([got, more]) if got.size else more
                if got.size >= n:
                    break
        if got.size < n:
            raise OutOfSpaceError(
                f"aggregate out of space: {got.size} of {n} "
                f"physical blocks allocated for volume {vol_name}"
            )
        return got
