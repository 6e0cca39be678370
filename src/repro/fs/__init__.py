"""WAFL-like COW file-system layer: aggregates, FlexVols, CPs, mount
(paper sections 2-3)."""

from .aggregate import (
    Aggregate,
    GroupCPReport,
    LinearStore,
    MediaType,
    PolicyKind,
    RAIDGroupRuntime,
    RAIDStore,
    StoreCPReport,
)
from .azcs import azcs_device_blocks, azcs_expand
from .cp import CPBatch, CPEngine
from .flexvol import FlexVol
from .filesystem import WaflSim
from .tiers import Tier, choose_tier, media_role
from .mount import (
    MountReport,
    TopAAImage,
    background_rebuild,
    export_topaa,
    simulate_mount,
)

__all__ = [
    "Aggregate",
    "GroupCPReport",
    "LinearStore",
    "MediaType",
    "PolicyKind",
    "RAIDGroupRuntime",
    "RAIDStore",
    "StoreCPReport",
    "azcs_device_blocks",
    "azcs_expand",
    "CPBatch",
    "CPEngine",
    "FlexVol",
    "WaflSim",
    "MountReport",
    "TopAAImage",
    "background_rebuild",
    "export_topaa",
    "simulate_mount",
    "Tier",
    "choose_tier",
    "media_role",
]
