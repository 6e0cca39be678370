"""SimConfig consolidation tests: the typed frozen dataclasses, the
single ``SimConfig.default()`` entry point, and the builders reading
their tunables from the config object."""

from __future__ import annotations

import dataclasses
import re
import warnings
from pathlib import Path

import pytest

from repro.common.config import (
    AggregateSpec,
    AllocatorConfig,
    CacheConfig,
    FaultConfig,
    ObsConfig,
    SimConfig,
    TrafficConfig,
)
from repro.common.config import TierSpec, VolumeDecl
from repro.fs import MediaType, RAIDGroupConfig, VolSpec, WaflSim
from repro.fs.aggregate import RAIDStore

GROUPS = [
    RAIDGroupConfig(
        ndata=3,
        nparity=1,
        blocks_per_disk=32768,
        media=MediaType.SSD,
        stripes_per_aa=2048,
    )
]
VOLS = [VolSpec("volA", 16384)]
SPEC = AggregateSpec(
    tiers=(TierSpec(label="ssd", media="ssd", ndata=3,
                    blocks_per_disk=32768, stripes_per_aa=2048),),
    volumes=(VolumeDecl("volA", 16384),),
)


class TestSimConfig:
    def test_default_is_a_singleton(self):
        assert SimConfig.default() is SimConfig.default()

    def test_sections_are_typed(self):
        cfg = SimConfig.default()
        assert isinstance(cfg.allocator, AllocatorConfig)
        assert isinstance(cfg.cache, CacheConfig)
        assert isinstance(cfg.traffic, TrafficConfig)
        assert isinstance(cfg.faults, FaultConfig)
        assert isinstance(cfg.obs, ObsConfig)

    def test_frozen(self):
        cfg = SimConfig.default()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.allocator = AllocatorConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.allocator.threshold_fraction = 0.5

    def test_replace_derives_variants(self):
        cfg = dataclasses.replace(
            SimConfig.default(),
            allocator=AllocatorConfig(threshold_fraction=0.25),
        )
        assert cfg.allocator.threshold_fraction == 0.25
        # The shared default is untouched.
        assert SimConfig.default().allocator.threshold_fraction == 0.0

    def test_every_leaf_field_is_read_somewhere(self):
        """A knob nothing reads lies to whoever sets it: every leaf of
        ``SimConfig`` must be read as an attribute under ``src/repro``
        outside the module that declares it."""
        import repro

        package = Path(repro.__file__).parent
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(package.rglob("*.py"))
            if path != package / "common" / "config.py"
        )
        unread = [
            f"{section.name}.{leaf.name}"
            for section in dataclasses.fields(SimConfig)
            for leaf in dataclasses.fields(getattr(SimConfig.default(), section.name))
            if not re.search(rf"\.{leaf.name}\b", source)
        ]
        assert unread == []


class TestThresholdFromConfig:
    def test_raidstore_reads_config(self):
        cfg = dataclasses.replace(
            SimConfig.default(),
            allocator=AllocatorConfig(threshold_fraction=0.1),
        )
        store = RAIDStore(GROUPS, config=cfg, seed=7)
        assert store.allocator.threshold_fraction == 0.1

    def test_build_reads_config(self):
        cfg = dataclasses.replace(
            SimConfig.default(),
            allocator=AllocatorConfig(threshold_fraction=0.1),
        )
        sim = WaflSim.build(SPEC, config=cfg, seed=7)
        assert sim.store.allocator.threshold_fraction == 0.1

    def test_loose_kwarg_is_gone(self):
        with pytest.raises(TypeError):
            RAIDStore(GROUPS, threshold_fraction=0.1, seed=7)
        with pytest.raises(TypeError):
            WaflSim.build(SPEC, threshold_fraction=0.1, seed=7)

    def test_default_comes_from_sim_config(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            store = RAIDStore(GROUPS, seed=7)
        assert (
            store.allocator.threshold_fraction
            == SimConfig.default().allocator.threshold_fraction
        )
