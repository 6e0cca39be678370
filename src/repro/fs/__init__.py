"""WAFL-like COW file-system layer: aggregates, FlexVols, CPs, mount
(paper sections 2-3)."""

from .aggregate import (
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
from .mount import (
    MountReport,
    TopAAImage,
    background_rebuild,
    export_topaa,
    simulate_mount,
)

__all__ = [
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
]
