"""Allocation-area sizing policies (paper section 3.2, Figure 4).

The effective AA size balances two forces: smaller AAs differentiate
free space at a finer granularity, while larger AAs reduce tracking
overhead — and, critically, must respect media geometry:

* **HDD RAID groups** — 4k stripes ("historically, experiments showed
  that an AA size of 4k stripes works well", section 3.2.1).
* **RAID-agnostic spaces** — 32k consecutive VBNs, matching one bitmap
  metafile block so filling an AA updates a single metafile block
  (section 3.2.1): a constant, not a policy —
  :data:`~repro.common.constants.RAID_AGNOSTIC_AA_BLOCKS`.
* **SSD RAID groups** — several erase blocks per device, so that
  writing all free blocks of the emptiest AA rewrites whole erase
  blocks and minimizes FTL relocation / write amplification
  (section 3.2.2, Figure 4B).
* **SMR RAID groups** — much larger than the shingle zone, and
  optionally aligned to a multiple of the AZCS checksum region (63 data
  + 1 checksum blocks) so checksum blocks are written sequentially with
  their data (sections 3.2.3-3.2.4, Figure 4C).

Sizes returned here are in *stripes per AA* (the per-device contiguous
extent).  Each helper also guarantees the size divides the space so
:class:`~repro.core.aa.StripeAATopology` accepts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.constants import (
    AZCS_DATA_BLOCKS,
    DEFAULT_ERASE_BLOCK_BLOCKS,
    DEFAULT_RAID_AA_STRIPES,
    DEFAULT_SMR_ZONE_BLOCKS,
)
from ..common.errors import GeometryError
from ..raid.geometry import RAIDGeometry

__all__ = [
    "AASize",
    "fit_aa_size",
    "aa_size_for_hdd",
    "aa_size_for_ssd",
    "aa_size_for_smr",
]

#: Erase blocks per device in one SSD AA ("several", section 3.2.2).
SSD_AA_ERASE_BLOCKS = 4

#: Shingle zones per device in one SMR AA ("much larger than the
#: zone", section 3.2.3).
SMR_AA_ZONES = 2


@dataclass(frozen=True)
class AASize:
    """A chosen AA size with provenance for logs and benchmark output."""

    #: Stripes per AA.
    size: int
    #: Which policy produced it ("hdd", "ssd", "smr").
    policy: str
    #: Human-readable rationale.
    rationale: str


def fit_aa_size(total: int, target: int, align: int = 8) -> int:
    """Largest multiple of ``align`` that divides ``total`` and does not
    exceed ``target`` (falling back to the smallest valid divisor when
    ``target`` is below every aligned divisor).

    AA topologies require the AA size to divide the space; real WAFL
    instead leaves a runt AA at the end, a detail that changes nothing
    for the paper's experiments, so we keep divisibility exact.
    """
    if total <= 0 or align <= 0 or total % align:
        raise GeometryError(f"total {total} must be a positive multiple of align {align}")
    target = max(min(target, total), align)
    best = None
    for cand in range(target - target % align, 0, -align):
        if total % cand == 0:
            best = cand
            break
    if best is None:
        # No aligned divisor <= target; take the smallest aligned divisor.
        cand = align
        while total % cand:
            cand += align
        best = cand
    return best


def aa_size_for_hdd(geometry: RAIDGeometry) -> AASize:
    """Default HDD sizing: 4k stripes per AA (paper section 3.2.1)."""
    size = fit_aa_size(geometry.stripes, DEFAULT_RAID_AA_STRIPES)
    return AASize(size, "hdd", f"{size} stripes per AA (default HDD sizing)")


def aa_size_for_ssd(
    geometry: RAIDGeometry,
    erase_block_blocks: int = DEFAULT_ERASE_BLOCK_BLOCKS,
) -> AASize:
    """SSD sizing: at least :data:`SSD_AA_ERASE_BLOCKS` erase blocks per
    device per AA, aligned to the erase-block size (paper section 3.2.2:
    "we therefore choose an AA size for SSD RAID groups that is several
    erase blocks")."""
    if erase_block_blocks <= 0 or erase_block_blocks % 8:
        raise GeometryError("erase_block_blocks must be a positive multiple of 8")
    want = erase_block_blocks * SSD_AA_ERASE_BLOCKS
    size = fit_aa_size(geometry.stripes, want, align=erase_block_blocks)
    return AASize(
        size,
        "ssd",
        f"{size} stripes per AA = {size // erase_block_blocks} erase blocks of "
        f"{erase_block_blocks} blocks per device",
    )


def aa_size_for_smr(
    geometry: RAIDGeometry,
    zone_blocks: int = DEFAULT_SMR_ZONE_BLOCKS,
    *,
    azcs: bool = True,
) -> AASize:
    """SMR sizing: much larger than the shingle zone, optionally aligned
    to the AZCS region size (paper sections 3.2.3-3.2.4, Figure 4C).

    The AZCS alignment unit is the *data* payload of one checksum
    region — 63 blocks sharing the 64th as checksum.  Checksum blocks
    live outside the VBN space (the device LBA layout interleaves
    them; see :func:`repro.fs.azcs.azcs_expand`), so an AZCS-aligned AA
    is a multiple of 63 VBNs per device.  The classic 4k-stripe AA is
    *not* a multiple of 63, which is exactly the Figure 4A misalignment
    that forces random checksum-block rewrites when switching AAs.
    """
    if zone_blocks <= 0 or zone_blocks % 8:
        raise GeometryError("zone_blocks must be a positive multiple of 8")
    # Topologies require AA sizes that are multiples of 8; combine with
    # the AZCS data-payload alignment.
    align = _lcm(AZCS_DATA_BLOCKS, 8) if azcs else 8
    want = zone_blocks * SMR_AA_ZONES
    # Round the target up to the alignment so AZCS regions never
    # straddle an AA boundary (the Figure 4C requirement).
    want = -(-want // align) * align
    size = fit_aa_size(geometry.stripes, want, align=align)
    zones = size / zone_blocks
    note = f"{size} stripes per AA (~{zones:.1f} shingle zones)"
    if azcs:
        note += f", aligned to {AZCS_DATA_BLOCKS}-data-block AZCS regions"
    return AASize(size, "smr", note)


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)
