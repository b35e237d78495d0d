"""MIND core: in-network memory management (the paper's contribution).

Subpackages split by memory-management function, following the paper's own
decoupling (P1): allocation (re-exported from `repro.alloc`), addressing
(`addressing`), protection (`protection`), caching/coherence (`directory`,
`stt`, `coherence`), region sizing (`bounded_splitting`), the control plane
(`controller`) and the assembled switch (`mmu`).  Switch fail-over
(Section 4.4) keeps the replicated control plane and resets only the
directory (`InNetworkMmu.take_over`); `repro.faults.failover` runs it.
"""

from ..alloc import (
    BladeAllocation,
    FirstFitAllocator,
    GlobalAllocator,
    OutOfMemoryError,
)
from .addressing import AddressSpace, Translation, TranslationFault
from .bounded_splitting import (
    BoundedSplittingConfig,
    BoundedSplittingController,
    worst_case_subregions,
)
from .coherence import COMPUTE_BLADE_GROUP, CoherenceProtocol
from .controller import SwitchController, SyscallError, TaskStruct, ThreadInfo
from .directory import (
    CoherenceState,
    DirectoryFullError,
    Region,
    RegionDirectory,
)
from .fetch import DataPath
from .invalidation import InvalidationEngine
from .mmu import InNetworkMmu, MindConfig
from .protection import PDID_WIDTH, ProtectionTable, pack_key
from .stt import (
    RequesterRole,
    Transition,
    TransitionAction,
    build_mesi_stt,
    build_moesi_stt,
    build_msi_stt,
    stt_size,
)
from .txn import (
    AdmissionController,
    FaultResult,
    PendingTransactionTable,
    Transaction,
    TxnPhase,
)
from .vma import PermissionClass, Vma, align_down, align_up, round_up_pow2


__all__ = [
    "AddressSpace",
    "AdmissionController",
    "BladeAllocation",
    "BoundedSplittingConfig",
    "BoundedSplittingController",
    "COMPUTE_BLADE_GROUP",
    "CoherenceProtocol",
    "CoherenceState",
    "DataPath",
    "DirectoryFullError",
    "FaultResult",
    "FirstFitAllocator",
    "GlobalAllocator",
    "InNetworkMmu",
    "InvalidationEngine",
    "MindConfig",
    "OutOfMemoryError",
    "PDID_WIDTH",
    "PendingTransactionTable",
    "PermissionClass",
    "ProtectionTable",
    "Region",
    "RegionDirectory",
    "RequesterRole",
    "SwitchController",
    "SyscallError",
    "TaskStruct",
    "ThreadInfo",
    "Transaction",
    "Transition",
    "TransitionAction",
    "Translation",
    "TranslationFault",
    "TxnPhase",
    "Vma",
    "align_down",
    "align_up",
    "build_mesi_stt",
    "build_moesi_stt",
    "build_msi_stt",
    "pack_key",
    "round_up_pow2",
    "stt_size",
    "worst_case_subregions",
]
