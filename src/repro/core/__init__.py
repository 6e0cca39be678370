"""Core contribution: allocation areas, AA caches, HBPS, TopAA, and the
write allocator (paper section 3)."""

from .aa import AATopology, LinearAATopology, StripeAATopology
from .allocator import AggregateAllocator, LinearAllocator, RAIDGroupAllocator
from .cache import AACache, CacheSource, make_aa_cache
from .delayed_frees import DelayedFreeLog
from .hbps import HBPS
from .hbps_cache import RAIDAgnosticAACache
from .heap_cache import RAIDAwareAACache
from .policies import (
    AASource,
    BitmapWalkSource,
    LinearScanSource,
    RandomSource,
)
from .score import ScoreKeeper
from .sizing import (
    AASize,
    aa_size_for_hdd,
    aa_size_for_smr,
    aa_size_for_ssd,
    fit_aa_size,
)
from .topaa import (
    PAGE_KIND_HBPS,
    PAGE_KIND_HEAP_SEED,
    TOPAA_HEADER_BYTES,
    deserialize_heap_seed,
    seal_page,
    unseal_page,
    load_hbps_cache,
    seed_heap_cache,
    serialize_heap_seed,
    serialize_hbps_cache,
)

__all__ = [
    "AATopology",
    "LinearAATopology",
    "StripeAATopology",
    "AggregateAllocator",
    "LinearAllocator",
    "RAIDGroupAllocator",
    "DelayedFreeLog",
    "HBPS",
    "RAIDAgnosticAACache",
    "RAIDAwareAACache",
    "AACache",
    "CacheSource",
    "make_aa_cache",
    "AASource",
    "BitmapWalkSource",
    "LinearScanSource",
    "RandomSource",
    "ScoreKeeper",
    "AASize",
    "aa_size_for_hdd",
    "aa_size_for_smr",
    "aa_size_for_ssd",
    "fit_aa_size",
    "PAGE_KIND_HBPS",
    "PAGE_KIND_HEAP_SEED",
    "TOPAA_HEADER_BYTES",
    "deserialize_heap_seed",
    "seal_page",
    "unseal_page",
    "load_hbps_cache",
    "seed_heap_cache",
    "serialize_heap_seed",
    "serialize_hbps_cache",
]
