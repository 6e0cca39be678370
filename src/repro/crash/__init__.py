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
  (CrashMonkey-style): for each crash point of a step, crash a copy of
  its driver, recover, audit every invariant, and assert byte-equality
  with the committed metadata image.  The ``CrashAt`` event of
  :mod:`repro.drill` schedules it — every edge of a step, or one
  seeded edge under live traffic with the lost step replayed.
"""

from .explorer import (
    CrashOutcome,
    Replay,
    crash_at_edge,
    crash_digest,
    sweep_crash_points,
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

__all__ = [
    "SECTOR_BYTES",
    "CommittedImage",
    "CrashOutcome",
    "CrashPoint",
    "CrashTracer",
    "FSState",
    "PersistenceModel",
    "RecoveryReport",
    "Replay",
    "capture_image",
    "crash_at_edge",
    "crash_digest",
    "deserialize_fs",
    "record_crash_points",
    "serialize_fs",
    "sweep_crash_points",
    "tear_page",
]
