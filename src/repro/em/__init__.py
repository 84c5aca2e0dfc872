"""Simulated external-memory machine: device, files, loaders, sorting.

This subpackage is the substrate the paper's model (Aggarwal–Vitter
external memory, Section 1.1) runs on: a block device with exact I/O
accounting, page-buffered readers and writers, the skew-aware chunk
loaders of Section 2.3, and external merge sort.
"""

from repro.em.bufferpool import BufferPool, PoolConfig
from repro.em.device import Device
from repro.em.file import (EMFile, FileSegment, SequentialReader,
                           UnchargedAccess, Writer)
from repro.em.loaders import (Group, group_boundaries, load_chunks,
                              load_group_chunks, load_light_chunks,
                              scan_matching, split_heavy_light)
from repro.em.policies import (POLICIES, ClockPolicy, LRUPolicy,
                               MRUPolicy, ReplacementPolicy, make_policy)
from repro.em.sort import external_sort
from repro.em.stats import (CacheStats, IOStats, MemoryBudgetExceeded,
                            MemoryGauge, PhaseTracker)

__all__ = [
    "Device", "EMFile", "FileSegment", "SequentialReader", "Writer",
    "UnchargedAccess",
    "BufferPool", "PoolConfig",
    "POLICIES", "ReplacementPolicy", "LRUPolicy", "ClockPolicy",
    "MRUPolicy", "make_policy",
    "Group", "group_boundaries", "load_chunks", "load_group_chunks",
    "load_light_chunks", "scan_matching", "split_heavy_light",
    "external_sort",
    "CacheStats", "IOStats", "MemoryBudgetExceeded", "MemoryGauge",
    "PhaseTracker",
]
