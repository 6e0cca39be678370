"""Seeded, deterministic fault injection.

The injector is a passive oracle the storage stack consults at its
read/write boundaries: file systems and RAID groups ask "does a fault
fire here?" and the injector answers from per-target rates or armed
one-shots (*when* to arm is a :mod:`repro.drill` schedule).  All randomness flows through one
seeded :class:`numpy.random.Generator`, so a run with the same seed
and the same call order injects — and therefore recovers — identically.

Targets are addressed by the same ``where`` labels Iron uses
("vol:<name>", "group:<i>", "store"), which is what lets detection
escalate into scoped repair (:mod:`repro.faults.recovery`).
"""

from __future__ import annotations

import numpy as np

from ..common.errors import FaultError
from ..common.rng import make_rng

__all__ = ["FaultKind", "FaultInjector", "corrupt_bytes", "flip_bitmap_bits"]


class FaultKind:
    """The read-fault kinds (strings, so the fs layer never has to import
    this package — injector consumers duck-type on ``consume``/``roll``)."""

    #: Read fails once but succeeds on retry (loose cable, firmware hiccup).
    TRANSIENT_READ = "transient-read"
    #: Unreadable sectors; RAID reconstructs them within its parity budget.
    LATENT_SECTOR_ERROR = "latent-sector-error"
    #: Damage RAID cannot fix (too many members affected) — Iron's case.
    UNRECONSTRUCTABLE = "unreconstructable"
    ALL = (TRANSIENT_READ, LATENT_SECTOR_ERROR, UNRECONSTRUCTABLE)


class FaultInjector:
    """Deterministic fault oracle for devices, RAID groups, and metafiles.

    Two injection mechanisms compose:

    * **rates** — :meth:`set_rate` gives a per-consultation (or
      per-block, for :meth:`roll`) firing probability;
    * **one-shots** — :meth:`arm` queues N guaranteed firings that
      :meth:`consume`/:meth:`roll` drain first.

    Every firing is tallied in :attr:`injected` so recovery metrics can
    be compared across runs (same seed => identical tallies).
    """

    def __init__(self, seed: int | np.random.Generator | None = None) -> None:
        self.rng = make_rng(seed)
        self._rates: dict[tuple[str, str], float] = {}
        self._armed: dict[tuple[str, str], int] = {}
        #: (target, kind) -> number of faults fired.
        self.injected: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_rate(self, target: str, kind: str, rate: float) -> None:
        """Probability that one consultation (or one block, for
        :meth:`roll`) at ``target`` fires a ``kind`` fault."""
        if not 0.0 <= rate <= 1.0:
            raise FaultError(f"fault rate must be in [0, 1], got {rate}")
        if rate == 0.0:
            self._rates.pop((target, kind), None)
        else:
            self._rates[(target, kind)] = rate

    def arm(self, target: str, kind: str, count: int = 1) -> None:
        """Queue ``count`` guaranteed firings of ``kind`` at ``target``."""
        if count <= 0:
            raise FaultError(f"armed fault count must be positive, got {count}")
        key = (target, kind)
        self._armed[key] = self._armed.get(key, 0) + count

    # ------------------------------------------------------------------
    # Consultation (called by the storage stack)
    # ------------------------------------------------------------------
    def _record(self, key: tuple[str, str], n: int = 1) -> None:
        self.injected[key] = self.injected.get(key, 0) + n

    def consume(self, target: str, kind: str) -> bool:
        """One yes/no consultation: drains one armed one-shot if any,
        else rolls the configured rate (no rng draw when no rate is
        set, preserving determinism for armed-only runs)."""
        key = (target, kind)
        armed = self._armed.get(key, 0)
        if armed:
            self._armed[key] = armed - 1
            self._record(key)
            return True
        rate = self._rates.get(key)
        if rate is not None and float(self.rng.random()) < rate:
            self._record(key)
            return True
        return False

    def roll(self, target: str, kind: str, n: int) -> int:
        """How many of ``n`` blocks at ``target`` are hit by ``kind``:
        armed one-shots (up to ``n``) plus a binomial draw at the
        configured per-block rate."""
        if n <= 0:
            return 0
        key = (target, kind)
        hits = 0
        armed = self._armed.get(key, 0)
        if armed:
            hits = min(armed, n)
            self._armed[key] = armed - hits
        rate = self._rates.get(key)
        if rate is not None:
            hits += int(self.rng.binomial(n - hits, rate)) if hits < n else 0
        hits = min(hits, n)
        if hits:
            self._record(key, hits)
        return hits

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())


# ----------------------------------------------------------------------
# Damage helpers (applied by drill events / tests)
# ----------------------------------------------------------------------

def corrupt_bytes(
    data: bytes, nbytes: int, rng: int | np.random.Generator | None = None
) -> bytes:
    """Flip one random bit in each of ``nbytes`` random positions — the
    torn/corrupted-write model for persisted pages (TopAA)."""
    if not data:
        return data
    rng = make_rng(rng)
    buf = bytearray(data)
    positions = rng.choice(len(buf), size=min(nbytes, len(buf)), replace=False)
    for pos in np.atleast_1d(positions):
        buf[int(pos)] ^= 1 << int(rng.integers(8))
    return bytes(buf)


def flip_bitmap_bits(
    bitmap,
    nbits: int,
    rng: int | np.random.Generator | None = None,
    direction: str = "both",
) -> dict[str, int]:
    """Silently flip ``nbits`` bits of a free-space bitmap, bypassing
    all score/metafile accounting (that is the corruption).

    ``direction`` selects the damage model:

    * ``"clear"`` — allocated bits flip to free (torn write losing
      allocations): Iron reports them as **corrupt** (referenced but
      marked free).
    * ``"set"`` — free bits flip to allocated (a lost free): Iron
      reports them as **leaked**.
    * ``"both"`` — an even split.

    Returns ``{"set": n, "cleared": n}`` actually flipped (bounded by
    available bits of each polarity).
    """
    if direction not in ("set", "clear", "both"):
        raise FaultError(f"unknown flip direction {direction!r}")
    rng = make_rng(rng)
    want_clear = nbits if direction == "clear" else nbits // 2 if direction == "both" else 0
    want_set = nbits - want_clear if direction != "clear" else 0
    flipped = {"set": 0, "cleared": 0}
    if want_clear:
        allocated = bitmap.allocated_in_range(0, bitmap.nblocks)
        if allocated.size:
            take = min(want_clear, int(allocated.size))
            picks = rng.choice(allocated, size=take, replace=False)
            bitmap.free(np.asarray(picks, dtype=np.int64))
            flipped["cleared"] = take
    if want_set:
        free = bitmap.free_in_range(0, bitmap.nblocks)
        if free.size:
            take = min(want_set, int(free.size))
            picks = rng.choice(free, size=take, replace=False)
            bitmap.allocate(np.asarray(picks, dtype=np.int64))
            flipped["set"] = take
    return flipped
