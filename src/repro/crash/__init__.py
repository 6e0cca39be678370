"""Crash-consistency subsystem: mid-CP crash injection and verified
recovery to the last committed consistency point.

The paper's free-block search structures (TopAA pages, AA bitmaps,
HBPS bins, delayed-free logs) all hang off WAFL's consistency-point
machinery, whose whole point is that a crash at *any* instant recovers
to the last committed CP with zero leaked or double-allocated blocks.
This package verifies that guarantee for the simulator:

* :mod:`repro.crash.persistence` — shadow vs committed metadata
  images (bitmap metafiles, FlexVol maps, delayed-free logs, TopAA
  pages) versioned per CP, with torn-write simulation at device-sector
  granularity and a recovery pipeline through the real mount path.
* :mod:`repro.crash.registry` — a crash-point registry hooked into
  the ``repro.obs`` span boundaries the CP engine already emits, so
  every span edge in the CP pipeline is an injectable crash site.
* :mod:`repro.crash.explorer` — a systematic crash-state explorer
  (CrashMonkey-style): for each crash point in each CP of a seeded
  workload, crash the sim, recover, audit every invariant, and assert
  byte-equality with the committed metadata image.
* :mod:`repro.crash.under_load` — crashes mid-CP under live
  multi-tenant traffic and verifies admitted-but-uncommitted ops are
  deterministically replayed after recovery.
"""

from .explorer import (
    CrashMatrix,
    CrashOutcome,
    explore_cps,
    explore_aging,
    explore_noisy_neighbor,
)
from .persistence import (
    SECTOR_BYTES,
    CommittedImage,
    FSState,
    PersistenceModel,
    RecoveryReport,
    capture_image,
    deserialize_fs,
    serialize_fs,
    tear_page,
)
from .registry import CrashPoint, CrashTracer, record_crash_points
from .under_load import CrashUnderLoadReport, run_crash_under_load

__all__ = [
    "SECTOR_BYTES",
    "CommittedImage",
    "CrashMatrix",
    "CrashOutcome",
    "CrashPoint",
    "CrashTracer",
    "CrashUnderLoadReport",
    "FSState",
    "PersistenceModel",
    "RecoveryReport",
    "capture_image",
    "deserialize_fs",
    "explore_aging",
    "explore_cps",
    "explore_noisy_neighbor",
    "record_crash_points",
    "run_crash_under_load",
    "serialize_fs",
    "tear_page",
]
