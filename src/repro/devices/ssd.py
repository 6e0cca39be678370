"""Solid state drive model with an open-unit (hybrid block-mapped) FTL.

The paper's SSD results (sections 3.2.2 and 4.3) hinge on the flash
translation layer's behaviour around *erase units*: "the FTL must
first relocate all active data in the erase block elsewhere on the
drive and then erase the entire block before writing new data there."

We model a hybrid FTL that maps each logical erase-unit-sized range to
physical erase units and keeps a small number of units *open* for
streaming writes:

* writing into a closed unit **opens** it (evicting the least recently
  used open unit when at capacity);
* while a unit is open, arriving writes stream into it with no extra
  cost — consecutive CPs filling the same allocation area therefore
  pay nothing extra, which is exactly how WAFL writes an AA ("the
  write allocator picks an AA and then assigns all free VBNs from the
  AA in sequential order", section 3.1);
* when a unit **closes**, the logical blocks that were live when it
  opened and were neither overwritten nor trimmed during the session
  must be relocated (read + programmed), and the old unit is erased.

Consequences, matching the paper:

* filling a *fully free*, erase-unit-aligned AA costs exactly the host
  writes (write amplification ~1);
* filling an AA whose units are ``u`` fraction live relocates ``u`` of
  each unit once — WA ~ ``1/(1-u)`` — so directing writes to the
  *emptiest* AAs reduces WA (section 4.1.1's 1.77 -> 1.46);
* AAs smaller than the erase unit (Figure 4A) strand partially written
  units whose live remainder is relocated when the unit is evicted,
  the cost SSD AA sizing eliminates (Figure 4B, section 4.3).

WAFL/ONTAP notifies drives of freed blocks, so the CP engine calls
:meth:`SSD.trim` for a CP's freed blocks once the CP has committed;
without those trims the device would consider stale COW data live and
relocate it forever.

DESIGN.md section 1 documents why this substitution preserves the
paper's behaviour even though vendor FTLs differ in detail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.arrayops import group_counts
from ..common.constants import DEFAULT_ERASE_BLOCK_BLOCKS
from .base import Device

__all__ = ["SSDConfig", "SSD"]


@dataclass(frozen=True)
class SSDConfig:
    """Timing and geometry parameters for an enterprise SATA/SAS SSD."""

    #: Logical blocks per erase unit (default 512 x 4 KiB = 2 MiB).
    erase_block_blocks: int = DEFAULT_ERASE_BLOCK_BLOCKS
    #: Effective program time per 4 KiB block (~300 MiB/s effective
    #: stream for mid-range enterprise SATA/SAS under mixed load).
    program_us_per_block: float = 13.0
    #: Effective read time per 4 KiB block.
    read_us_per_block: float = 3.0
    #: Erase time per erase unit, amortized over internal parallelism.
    erase_us: float = 2000.0
    #: Open erase units the FTL streams into concurrently.
    max_open_units: int = 4


class _OpenUnit:
    """Bookkeeping for one open erase unit's write session."""

    __slots__ = ("valid_at_open", "credits")

    def __init__(self, valid_at_open: int) -> None:
        #: Live pages when the session opened (relocation liability).
        self.valid_at_open = valid_at_open
        #: Liability paid down during the session: live pages that were
        #: overwritten or trimmed no longer need relocation.
        self.credits = 0


class SSD(Device):
    """Open-unit hybrid-FTL SSD with write-amplification accounting."""

    def __init__(self, nblocks: int, config: SSDConfig | None = None, name: str = "ssd") -> None:
        super().__init__(nblocks, name)
        self.config = config or SSDConfig()
        eb = self.config.erase_block_blocks
        if eb <= 0:
            raise ValueError("erase_block_blocks must be positive")
        if self.config.max_open_units < 1:
            raise ValueError("max_open_units must be at least 1")
        self.n_erase_blocks = -(-self.nblocks // eb)
        #: Which logical blocks the device believes hold live data.
        self._valid = np.zeros(self.nblocks, dtype=bool)
        #: Live-page count per erase unit (incremental mirror of _valid).
        self._valid_per_eb = np.zeros(self.n_erase_blocks, dtype=np.int64)
        #: Open write sessions, in LRU order (dict preserves insertion).
        self._open: dict[int, _OpenUnit] = {}
        #: Erase cycles per erase unit (endurance metric).
        self.erase_counts = np.zeros(self.n_erase_blocks, dtype=np.int64)
        #: Cumulative pages relocated by the FTL.
        self.relocated_blocks = 0

    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        """Cumulative device-writes / host-writes ratio."""
        return self.stats.write_amplification

    @property
    def open_units(self) -> tuple[int, ...]:
        """Erase units currently open (LRU first)."""
        return tuple(self._open)

    def live(self, dbns: np.ndarray) -> np.ndarray:
        """Which of ``dbns`` hold live data (written, not trimmed since)."""
        return self._valid[dbns]

    def live_fraction(self) -> float:
        """Fraction of logical blocks the device believes are live."""
        return float(self._valid_per_eb.sum()) / self.nblocks

    # ------------------------------------------------------------------
    def _close_unit(self, eb: int) -> float:
        """Close an open unit: relocate its unpaid liability, erase it."""
        sess = self._open.pop(eb)
        relocated = max(sess.valid_at_open - sess.credits, 0)
        self.relocated_blocks += relocated
        self.erase_counts[eb] += 1
        self.stats.device_blocks_written += relocated
        self.stats.blocks_read += relocated  # relocation reads
        c = self.config
        return (
            relocated * (c.program_us_per_block + c.read_us_per_block)
            + c.erase_us
        )

    def flush_open_units(self) -> float:
        """Close every open session (power-down / end-of-run hook)."""
        us = 0.0
        for eb in list(self._open):
            us += self._close_unit(eb)
        self.stats.busy_us += us
        return us

    # ------------------------------------------------------------------
    def _write_cost(self, dbns: np.ndarray) -> float:
        eb_size = self.config.erase_block_blocks
        ebs = dbns // eb_size
        touched, written_per_eb = group_counts(ebs, self.n_erase_blocks)
        already_valid = self._valid[dbns]
        # Live pages per touched unit overwritten by this batch, aligned
        # with `touched` ordering: they pay down relocation liability.
        if already_valid.any():
            overwritten = np.bincount(
                ebs[already_valid], minlength=self.n_erase_blocks
            )[touched]
        else:
            overwritten = np.zeros(touched.size, dtype=np.int64)

        us = 0.0
        open_units = self._open
        max_open = self.config.max_open_units
        for eb, ow in zip(touched.tolist(), overwritten.tolist()):
            # Inlined _touch_open: this runs once per touched unit per
            # write batch and dominates the device hot path.
            sess = open_units.pop(eb, None)
            if sess is None:
                while len(open_units) >= max_open:
                    us += self._close_unit(next(iter(open_units)))
                sess = _OpenUnit(int(self._valid_per_eb[eb]))
            open_units[eb] = sess
            sess.credits += ow

        # State update: everything written is now valid.
        self._valid[dbns] = True
        self._valid_per_eb[touched] += written_per_eb - overwritten

        self.stats.device_blocks_written += int(dbns.size)
        us += dbns.size * self.config.program_us_per_block
        return us

    def _read_cost(self, n_random: int, n_sequential: int) -> float:
        # Flash has no positioning penalty worth modeling at 4 KiB.
        return (n_random + n_sequential) * self.config.read_us_per_block

    def trim(self, dbns: np.ndarray) -> None:
        """Drop validity for freed logical blocks (host TRIM/UNMAP).

        Trims against an *open* unit pay down its relocation liability:
        the freed pages no longer need to move when the unit closes.
        """
        dbns = np.asarray(dbns, dtype=np.int64)
        if dbns.size == 0:
            return
        live = dbns[self._valid[dbns]]
        if live.size == 0:
            return
        self._valid[live] = False
        ebs, counts = group_counts(
            live // self.config.erase_block_blocks, self.n_erase_blocks
        )
        self._valid_per_eb[ebs] -= counts
        # A random free batch touches many units but at most
        # max_open_units (a handful) can have sessions: probe the open
        # dict against the sorted touched array, not the reverse.
        for eb, sess in self._open.items():
            i = int(np.searchsorted(ebs, eb))
            if i < ebs.size and ebs[i] == eb:
                sess.credits += int(counts[i])
