"""Shared fixtures: small, fast simulator configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import AggregateSpec, TierSpec, VolumeDecl
from repro.fs import WaflSim

#: The written VBNs of a CP boundary that placed nothing.
NO_VBNS = np.empty(0, dtype=np.int64)
NO_VBNS.flags.writeable = False


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def examples(n: int) -> int:
    """A property test's ``max_examples``: ``n`` under the default
    ``tier1`` Hypothesis profile, scaled like the loaded profile's own
    budget (four times under ``ci``).  A site that hard-codes
    ``max_examples`` keeps it under every profile."""
    from hypothesis import settings  # only property modules call this

    return n * settings.default.max_examples // settings.get_profile("default").max_examples


def assert_scores_match(keeper, bitmap) -> None:
    """A keeper's applied scores equal a recount of its bitmap: the
    tests' keeper oracle."""
    truth = keeper.topology.scores_from_bitmap(bitmap)
    scores = keeper.scores
    bad = np.flatnonzero(truth != scores)
    assert not bad.size, (
        f"score divergence in AAs {bad[:8].tolist()}: "
        f"scores={scores[bad[:8]].tolist()} bitmap={truth[bad[:8]].tolist()}"
    )


def small_ssd_sim(
    *,
    aggregate_policy=None,
    vol_policy=None,
    n_groups: int = 1,
    seed: int = 7,
) -> WaflSim:
    """A small all-SSD system: n_groups x (3+1) x 32768-block devices,
    two volumes totalling ~38% of physical capacity."""
    from repro.fs import PolicyKind

    ap = aggregate_policy or PolicyKind.CACHE
    vp = vol_policy or PolicyKind.CACHE
    phys = n_groups * 3 * 32768
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="ssd", media="ssd", n_groups=n_groups, ndata=3,
                     blocks_per_disk=32768, stripes_per_aa=2048),
        ),
        volumes=(
            VolumeDecl("volA", logical_blocks=phys // 4),
            VolumeDecl("volB", logical_blocks=phys // 8),
        ),
        policy=ap.value,
        vol_policy=vp.value,
    )
    return WaflSim.build(spec, seed=seed)


def two_tier_sim() -> WaflSim:
    """A small ``fast`` SSD tier beside a larger ``bulk`` one: the
    chooser pins ``hot`` (3,000 blocks) to ``fast`` and ``big``
    (20,000, more than ``fast`` holds) to ``bulk``."""
    spec = AggregateSpec(
        tiers=(
            TierSpec(label="fast", media="ssd", ndata=2, blocks_per_disk=4096,
                     stripes_per_aa=512),
            TierSpec(label="bulk", media="ssd", ndata=4, blocks_per_disk=8192,
                     stripes_per_aa=512),
        ),
        volumes=(
            VolumeDecl("hot", logical_blocks=3000, workload="oltp"),
            VolumeDecl("big", logical_blocks=20_000, workload="mixed"),
        ),
    )
    return WaflSim.build(spec, seed=5)


@pytest.fixture
def ssd_sim() -> WaflSim:
    return small_ssd_sim()


def share_physical(sim: WaflSim, owner: str, sharer: str, n: int = 5) -> None:
    """Point ``n`` of ``sharer``'s mapped virtual VBNs at ``owner``'s
    physical blocks: each of those blocks gains a second owner, and the
    sharer's old blocks stay allocated with none.  ``owner`` may be
    ``sharer``: its first and last ``n`` mapped VBNs then share."""
    a, b = sim.vols[owner], sim.vols[sharer]
    b.remap(b.l2v[b.l2v >= 0][-n:], a.physical_of(a.l2v[a.l2v >= 0][:n]))


def trim_committed(store, report) -> None:
    """The CP engine's post-commit step for a bare store: each RAID
    group trims the VBNs its boundary freed (``report.groups`` lines up
    with ``store.groups``)."""
    for group, grp in zip(store.groups, report.groups):
        group.trim(grp.freed)
