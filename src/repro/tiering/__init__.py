"""Heterogeneous multi-tier aggregates (paper section 2.1).

The paper's free-space machinery spans media families with very
different write-allocation behavior: HDD and SSD RAID groups, Flash
Pool hybrids, SMR, and natively redundant object stores.  This package
composes those single-media stores into one aggregate VBN space:

* :class:`TieredStore` — per-tier member stores behind the standard
  store surface, with per-tier addressing and CP reporting;
* :class:`Tier` / :func:`choose_tier` — typed tier roles and the
  per-volume tier/geometry chooser (declared workload hint refined by
  the measured op mix);
* :class:`FlashPoolPolicy` / :class:`StaticTierPolicy` — the
  :class:`~repro.fs.aggregate.TierPolicy` implementations the CP
  engine consults for placement;
* :func:`migrate_volume_tier` / :func:`rebalance_tiers` — COW-based
  intra-aggregate tier migration with block-conservation checks;
* :func:`tier_demo_spec` / :func:`build_tiered_sim` — the demo
  aggregate the ``tier`` drill runs on.
"""

from .bench import build_tiered_sim, tier_demo_spec
from .migration import (
    TierMigrationReport,
    migrate_volume_tier,
    rebalance_tiers,
    recommend_tiers,
    volume_tier_blocks,
)
from .policies import FlashPoolPolicy, StaticTierPolicy
from .store import TieredStore, make_tiered_store
from .tiers import Tier, choose_tier, media_role

__all__ = [
    "Tier",
    "media_role",
    "choose_tier",
    "FlashPoolPolicy",
    "StaticTierPolicy",
    "TieredStore",
    "make_tiered_store",
    "TierMigrationReport",
    "volume_tier_blocks",
    "migrate_volume_tier",
    "recommend_tiers",
    "rebalance_tiers",
    "tier_demo_spec",
    "build_tiered_sim",
]
