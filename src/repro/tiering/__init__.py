"""Heterogeneous multi-tier aggregates (paper section 2.1).

Every spec builds one :class:`~repro.fs.aggregate.Aggregate`, whatever
its tiers; the tier chooser (:func:`~repro.fs.tiers.choose_tier`) and
the per-volume pinning live there, in ``fs``.  This package adds what
moves volumes and placement across tiers:

* :class:`FlashPoolPolicy` — the hot/cold placement that replaces the
  pinning on a Flash Pool;
* :func:`migrate_volume_tier` / :func:`rebalance_tiers` — COW-based
  intra-aggregate tier migration with block-conservation checks;
* :func:`tier_demo_spec` / :func:`build_tiered_sim` — the demo
  aggregate the ``tier`` drill runs on.
"""

from .bench import build_tiered_sim, tier_demo_spec
from .migration import (
    TierMigrationReport,
    check_pinning,
    migrate_volume_tier,
    rebalance_tiers,
    recommend_tiers,
    volume_tier_blocks,
)
from .policies import FlashPoolPolicy

__all__ = [
    "FlashPoolPolicy",
    "TierMigrationReport",
    "check_pinning",
    "volume_tier_blocks",
    "migrate_volume_tier",
    "recommend_tiers",
    "rebalance_tiers",
    "tier_demo_spec",
    "build_tiered_sim",
]
