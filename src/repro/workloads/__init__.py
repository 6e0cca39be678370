"""Workload generators and the aging harness (paper section 4)."""

from .aging import age_filesystem, churn, fill_volumes, reset_measurement_state
from .base import Workload
from .filechurn import FileChurnWorkload
from .mixes import OpMix, SequentialMix, UniformOverwriteMix, ZipfOverwriteMix
from .oltp import OLTPWorkload
from .random_overwrite import RandomOverwriteWorkload
from .sequential import SequentialWriteWorkload

__all__ = [
    "Workload",
    "FileChurnWorkload",
    "OLTPWorkload",
    "RandomOverwriteWorkload",
    "SequentialWriteWorkload",
    "OpMix",
    "SequentialMix",
    "UniformOverwriteMix",
    "ZipfOverwriteMix",
    "age_filesystem",
    "churn",
    "fill_volumes",
    "reset_measurement_state",
]
