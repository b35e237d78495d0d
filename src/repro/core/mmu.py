"""The in-network MMU: MIND's complete switch-side program.

This assembles the pieces into the artifact the paper names in its title:
an MMU living in the network fabric.  One :class:`InNetworkMmu` owns

- the data plane: translation TCAM (one prefix per memory blade plus
  outliers), protection TCAM (``<PDID, vma> -> PC``), directory SRAM, the
  MAU pipeline with recirculation, and the multicast engine;
- the coherence engine executing the materialized MSI STT;
- the control plane: the controller (syscalls, allocation, placement), the
  Bounded Splitting epoch process, and the control CPU cost model.

Resource budgets default to the paper's switch: 30 k directory slots and a
45 k match-action rule budget split between translation and protection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..sim.engine import Engine
from ..sim.network import Network
from ..sim.stats import StatsCollector
from ..switchsim.control_cpu import ControlCpu
from ..switchsim.multicast import MulticastEngine
from ..switchsim.pipeline import SwitchPipeline
from ..alloc import AllocCostModel, GlobalAllocator
from ..switchsim.sram import MetadataSram, RegisterArray
from ..switchsim.tcam import Tcam
from .addressing import AddressSpace
from .bounded_splitting import BoundedSplittingConfig, BoundedSplittingController
from .coherence import CoherenceProtocol
from .controller import SwitchController
from .directory import RegionDirectory
from .migration import MigrationManager
from .protection import ProtectionTable
from .stt import build_mesi_stt, build_moesi_stt, build_msi_stt


@dataclass
class MindConfig:
    """Switch-resource and algorithm parameters (paper defaults)."""

    #: directory SRAM slots (Section 7.2: 30 k entries).
    directory_capacity: int = 30_000
    #: total match-action rule budget (Section 7.2: ~45 k).
    match_action_capacity: int = 45_000
    #: share of the rule budget given to the protection table.
    protection_share: float = 0.5
    #: physical capacity per memory blade (must be a power of two).
    memory_blade_capacity: int = 1 << 34  # 16 GB
    #: base of this switch's VA partition (0 for a single rack; the
    #: multi-rack extension gives each rack an aligned slice).
    va_base: int = 0
    #: Bounded Splitting initial region size (paper default 16 kB).
    initial_region_size: int = 16 * 1024
    #: Bounded Splitting maximum region size M (paper's analysis uses 2 MB).
    max_region_size: int = 2 * 1024 * 1024
    #: epoch length (paper default 100 ms).
    epoch_us: float = 100_000.0
    #: coherence protocol: "msi" (paper), or the Section 8
    #: extensions "mesi" / "moesi".
    protocol: str = "msi"
    #: invalidation fan-out: "multicast" (the paper's P3 design) or
    #: "unicast-cpu" (ablation: switch CPU generates per-sharer packets).
    invalidation_mode: str = "multicast"
    #: cap on concurrently admitted fault transactions at the switch (the
    #: MSHR-style pending-transaction table's occupancy).
    pending_table_capacity: int = 256
    #: start the Bounded Splitting epoch loop automatically.
    enable_bounded_splitting: bool = True
    #: allocation-policy axis ("first-fit", "slab", "buddy", "arena",
    #: "bump").  ``None`` keeps the paper's first-fit with allocation-cost
    #: modeling OFF -- the default path stays bit-identical to the
    #: pre-refactor behaviour.  Setting any name (including "first-fit")
    #: activates the cost model, ``alloc`` latency samples, ``alloc:*``
    #: gauges, and SRAM banking of allocator metadata.
    allocator: Optional[str] = None
    #: switch SRAM budget for allocator metadata (free lists, boundary
    #: tags, buddy bitmaps) when the allocator axis is active.
    alloc_metadata_capacity: int = 1 << 22
    bounded_splitting: BoundedSplittingConfig = field(default=None)

    def __post_init__(self) -> None:
        if self.bounded_splitting is None:
            self.bounded_splitting = BoundedSplittingConfig(epoch_us=self.epoch_us)


class InNetworkMmu:
    """The programmable switch running MIND."""

    def __init__(
        self,
        engine: Engine,
        network: Network,
        config: Optional[MindConfig] = None,
        stats: Optional[StatsCollector] = None,
    ):
        self.engine = engine
        self.network = network
        self.config = config or MindConfig()
        self.stats = stats or StatsCollector()

        cfg = self.config
        protection_budget = int(cfg.match_action_capacity * cfg.protection_share)
        translation_budget = cfg.match_action_capacity - protection_budget
        self.translation_tcam = Tcam(translation_budget, name="translation")
        self.protection_tcam = Tcam(protection_budget, name="protection")

        self.pipeline = SwitchPipeline(engine, network.config)
        self.multicast = MulticastEngine()
        self.control_cpu = ControlCpu(engine)

        self.address_space = AddressSpace(
            self.translation_tcam, cfg.memory_blade_capacity, base_va=cfg.va_base
        )
        alloc_modeled = cfg.allocator is not None
        self.alloc_metadata_sram = (
            MetadataSram(cfg.alloc_metadata_capacity, name="alloc-metadata")
            if alloc_modeled
            else None
        )
        self.allocator = GlobalAllocator(
            policy=cfg.allocator or "first-fit",
            cost_model=AllocCostModel() if alloc_modeled else None,
            metadata_sram=self.alloc_metadata_sram,
        )
        self.protection = ProtectionTable(self.protection_tcam)
        self.directory = RegionDirectory(
            RegisterArray(cfg.directory_capacity, name="directory"),
            initial_region_size=cfg.initial_region_size,
            max_region_size=cfg.max_region_size,
        )

        stt = {
            "msi": build_msi_stt,
            "mesi": build_mesi_stt,
            "moesi": build_moesi_stt,
        }[cfg.protocol]()
        self.coherence = CoherenceProtocol(
            engine=engine,
            network=network,
            pipeline=self.pipeline,
            multicast=self.multicast,
            directory=self.directory,
            address_space=self.address_space,
            protection=self.protection,
            stt=stt,
            stats=self.stats,
            invalidation_mode=cfg.invalidation_mode,
            control_cpu=self.control_cpu,
            pending_table_capacity=cfg.pending_table_capacity,
        )
        self.controller = SwitchController(
            control_cpu=self.control_cpu,
            allocator=self.allocator,
            address_space=self.address_space,
            protection=self.protection,
            directory=self.directory,
            stats=self.stats,
        )
        self.migration = MigrationManager(
            engine=engine,
            coherence=self.coherence,
            address_space=self.address_space,
            allocator=self.allocator,
            control_cpu=self.control_cpu,
            stats=self.stats,
        )
        self.controller.set_migration_manager(self.migration)
        self.splitter = BoundedSplittingController(
            engine=engine,
            directory=self.directory,
            pending=self.coherence.pending,
            control_cpu=self.control_cpu,
            stats=self.stats,
            config=cfg.bounded_splitting,
        )
        self._splitter_started = False

    # -- membership -------------------------------------------------------------

    def add_memory_blade(self, blade) -> None:
        """Bring a memory blade online: translation entry + allocator range."""
        va_base = self.address_space.add_blade(blade.blade_id)
        self.allocator.add_blade(
            blade.blade_id, va_base, self.config.memory_blade_capacity
        )
        self.coherence.register_memory_blade(blade.blade_id, blade)
        blade.register()

    def start(self) -> None:
        """Start background control-plane processes (the epoch loop)."""
        if self.config.enable_bounded_splitting and not self._splitter_started:
            self.splitter.start()
            self._splitter_started = True

    # -- fail-over ---------------------------------------------------------------

    def take_over(self) -> None:
        """The backup switch starts serving (Section 4.4).

        The control plane -- translation, protection, allocator -- is
        replicated, so it carries over as is.  Only the directory is lost:
        it restarts all-Invalid in the backup's own SRAM, and re-faults
        re-warm it.
        """
        self.directory.reset(
            RegisterArray(self.config.directory_capacity, name="directory")
        )

    # -- observability -------------------------------------------------------------

    def match_action_rules(self) -> Dict[str, int]:
        """Rule counts per table, the quantity Fig. 8 (center) plots."""
        return {
            "translation": len(self.translation_tcam),
            "protection": len(self.protection_tcam),
            "total": len(self.translation_tcam) + len(self.protection_tcam),
        }

    @property
    def directory_sram(self) -> RegisterArray:
        """The directory's SRAM (the backup's own after a take-over)."""
        return self.directory.sram

    def directory_entries(self) -> int:
        return len(self.directory)
