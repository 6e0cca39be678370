"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single handler while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class BitmapError(ReproError):
    """Inconsistent bitmap operation (double allocate / double free)."""


class AllocationError(ReproError):
    """The write allocator could not satisfy a request."""


class OutOfSpaceError(AllocationError):
    """No free blocks remain in the targeted VBN space."""


class GeometryError(ReproError):
    """Invalid RAID or device geometry configuration."""


class CacheError(ReproError):
    """Invalid operation on an allocation-area cache."""


class SerializationError(ReproError):
    """TopAA metafile or HBPS page (de)serialization failure."""


class MountError(ReproError):
    """Failure while mounting an aggregate or FlexVol."""


class FaultError(ReproError):
    """Base class for injected-fault I/O failures (:mod:`repro.faults`)."""


class TransientIOError(FaultError):
    """A read failed transiently; retrying (with backoff) may succeed."""


class MediaError(FaultError):
    """Media damage that RAID could not reconstruct (paper section 3.4:
    the case that escalates to WAFL Iron)."""


class DegradedError(MediaError):
    """A RAID group has more failed devices than its parity budget can
    reconstruct; reads through the missing data are impossible."""


class AuditError(ReproError):
    """The runtime invariant auditor found a cross-layer inconsistency
    (see :mod:`repro.analysis.auditor`)."""


class CrashError(ReproError):
    """A simulated crash was injected at a registered crash point
    (a CP span edge — see :mod:`repro.crash.registry`).  Everything the
    crashed consistency point did in memory is lost; recovery restores
    the last committed CP image."""


class TornWriteError(SerializationError):
    """A persisted metadata page failed verification because the crash
    landed mid-write: only a leading run of device sectors carries the
    new image, the tail still holds older bytes (or nothing).  Detected
    by the page checksum at recovery; the torn page is discarded and
    the committed copy used instead."""


class RecoveryExhaustedError(TransientIOError):
    """The bounded retry budget shared by the recovery pipeline (mount
    page reads + background rebuild) was exhausted before the transient
    fault cleared.  Subclasses :class:`TransientIOError` because the
    last failure was transient — it just persisted past the budget."""


class PlacementError(ReproError):
    """The cluster volume scheduler found no aggregate that passes every
    placement filter (:mod:`repro.cluster.scheduler`)."""


class MigrationError(ReproError):
    """A cluster volume migration was refused before any state moved:
    the volume cannot be copied exactly by the drain/copy/release
    protocol (:mod:`repro.cluster.migration`)."""


class TieringError(ReproError):
    """A heterogeneous-tier operation failed: unknown tier label,
    unmigratable volume, or a tier-migration block-conservation
    violation (:mod:`repro.tiering`)."""
