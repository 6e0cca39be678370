"""Reproduction of "Efficient Search for Free Blocks in the WAFL File
System" (Kesavan, Curtis-Maury, Bhattacharjee; ICPP 2018).

The public API re-exports the pieces most users need:

* the novel data structures — :class:`~repro.core.hbps.HBPS`, the
  RAID-aware and RAID-agnostic AA caches, TopAA (de)serialization;
* the WAFL-like simulator — :class:`~repro.fs.filesystem.WaflSim` with
  RAID-group / object-store builders, FlexVols, and the CP engine;
* workloads and the aging harness;
* the measurement layer (CPU model, latency-throughput curves).

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every evaluation figure.
"""

from .common import (
    BLOCK_SIZE,
    RAID_AGNOSTIC_AA_BLOCKS,
    TETRIS_STRIPES,
    DegradedError,
    FaultError,
    MediaError,
    TransientIOError,
)
from .faults import FaultInjector, FaultKind
from .core import (
    HBPS,
    AggregateAllocator,
    LinearAATopology,
    LinearAllocator,
    RAIDAgnosticAACache,
    RAIDAwareAACache,
    RAIDGroupAllocator,
    ScoreKeeper,
    StripeAATopology,
    aa_size_for_hdd,
    aa_size_for_smr,
    aa_size_for_ssd,
)
from .fs import (
    CPBatch,
    FlexVol,
    MediaType,
    PolicyKind,
    WaflSim,
    background_rebuild,
    export_topaa,
    simulate_mount,
)
from .sim import CpuModel, MetricsLog
from .workloads import (
    FileChurnWorkload,
    OLTPWorkload,
    RandomOverwriteWorkload,
    SequentialWriteWorkload,
    age_filesystem,
    reset_measurement_state,
)

__version__ = "1.0.0"

__all__ = [
    "BLOCK_SIZE",
    "RAID_AGNOSTIC_AA_BLOCKS",
    "TETRIS_STRIPES",
    "DegradedError",
    "FaultError",
    "MediaError",
    "TransientIOError",
    "FaultInjector",
    "FaultKind",
    "HBPS",
    "AggregateAllocator",
    "LinearAATopology",
    "LinearAllocator",
    "RAIDAgnosticAACache",
    "RAIDAwareAACache",
    "RAIDGroupAllocator",
    "ScoreKeeper",
    "StripeAATopology",
    "aa_size_for_hdd",
    "aa_size_for_smr",
    "aa_size_for_ssd",
    "CPBatch",
    "FlexVol",
    "MediaType",
    "PolicyKind",
    "WaflSim",
    "background_rebuild",
    "export_topaa",
    "simulate_mount",
    "CpuModel",
    "MetricsLog",
    "FileChurnWorkload",
    "OLTPWorkload",
    "RandomOverwriteWorkload",
    "SequentialWriteWorkload",
    "age_filesystem",
    "reset_measurement_state",
]
