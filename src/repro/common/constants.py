"""Modelling constants shared across the reproduction.

Every constant here is traceable to the paper ("Efficient Search for Free
Blocks in the WAFL File System", ICPP 2018) or to a documented
substitution in DESIGN.md.  Values that the paper leaves configurable
(erase-block size, shingle-zone size) are defaults and can be overridden
through the relevant device config dataclasses.  A constant with one
reader lives beside that reader instead (DESIGN section 6).
"""

from __future__ import annotations

#: WAFL addresses its storage in 4 KiB blocks (paper section 2).
BLOCK_SIZE: int = 4096

#: The paper's testbed (section 4.1): one midrange all-SSD filer with
#: 20 cores — the CP pipeline's parallelism in every latency model —
#: driven by 8 closed-loop clients.
CORES: int = 20
NCLIENTS: int = 8

#: Bits per 4 KiB bitmap-metafile block: 4096 bytes * 8 = 32,768 bits,
#: one bit per VBN (paper section 3.2.1).
BITS_PER_BITMAP_BLOCK: int = BLOCK_SIZE * 8

#: Default allocation-area size for RAID groups of HDDs, in stripes
#: (paper section 3.2.1: "an AA size of 4k stripes works well for HDDs").
DEFAULT_RAID_AA_STRIPES: int = 4096

#: Default allocation-area size in VBNs when no RAID geometry applies
#: (paper section 3.2.1: 32k consecutive VBNs, matching the alignment of
#: bitmap metafile blocks).
RAID_AGNOSTIC_AA_BLOCKS: int = BITS_PER_BITMAP_BLOCK

#: A tetris is the unit of write I/O sent from WAFL to a RAID group,
#: composed of 64 consecutive stripes (paper section 4.2).
TETRIS_STRIPES: int = 64

#: HBPS histogram bin width in score units (paper section 3.3.2: "The AA
#: score space is divided into bins covering score ranges of 1K").
HBPS_BIN_WIDTH: int = 1024

#: HBPS list-page capacity (paper section 3.3.2: "This second page
#: stores 1,000 AAs that fall into the top score ranges").
HBPS_LIST_CAPACITY: int = 1000

#: Entries persisted per 4 KiB TopAA block for a RAID-aware AA cache
#: (paper section 3.4: "one 4KiB block ... fills with the 512 best AAs
#: and their scores"; 512 entries * 8 bytes = 4 KiB).
TOPAA_RAID_AWARE_ENTRIES: int = 512

#: Blocks per AZCS checksum region: 63 data blocks share 1 checksum
#: block (paper section 3.2.4).
AZCS_REGION_BLOCKS: int = 64
AZCS_DATA_BLOCKS: int = AZCS_REGION_BLOCKS - 1

#: Default SSD erase-block size in 4 KiB blocks (2 MiB).  The paper keeps
#: the vendor value private; 2 MiB is a typical enterprise NAND erase
#: block and is configurable via :class:`repro.devices.ssd.SSDConfig`.
DEFAULT_ERASE_BLOCK_BLOCKS: int = 512

#: Default SMR shingle-zone size in 4 KiB blocks (256 MiB), the common
#: zone size for drive-managed SMR drives; configurable via
#: :class:`repro.devices.smr.SMRConfig`.
DEFAULT_SMR_ZONE_BLOCKS: int = 65536

