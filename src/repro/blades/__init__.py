"""Blade substrates: compute-blade kernel model and passive memory blades."""

from .cache import CachedPage, InvalidationOutcome, PageCache
from .compute import ComputeBlade, SegmentationFault
from .consistency import ConsistencyModel, StoreBuffer
from .memory import MemoryBlade, ZERO_PAGE

__all__ = [
    "CachedPage",
    "ComputeBlade",
    "ConsistencyModel",
    "InvalidationOutcome",
    "MemoryBlade",
    "PageCache",
    "SegmentationFault",
    "StoreBuffer",
    "ZERO_PAGE",
]
