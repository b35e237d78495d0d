"""Memory blade: a passive, CPU-less page store (Sections 3.2 and 6.2).

MIND memory blades run *no* data-path logic: one-sided RDMA requests are
served entirely by the NIC, which is why the model only charges NIC/DRAM
service time (in ``repro.core.fetch``) and the blade itself is a plain page
store addressed by physical address.  The single CPU-involving step in the
paper -- registering physical memory with the NIC at boot -- is represented
by :meth:`register`.

Payload storage is optional: API-level users (e.g. the KVS example) get
real bytes with coherence-enforced visibility; trace replays can disable it
to keep large simulations cheap.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.network import Network, PAGE_SIZE, Port

ZERO_PAGE = bytes(PAGE_SIZE)


class MemoryBlade:
    """One network-attached memory blade."""

    def __init__(
        self,
        blade_id: int,
        network: Network,
        capacity_bytes: int,
        store_data: bool = True,
    ):
        if capacity_bytes <= 0 or capacity_bytes % PAGE_SIZE:
            raise ValueError("capacity must be a positive multiple of the page size")
        self.blade_id = blade_id
        self.capacity_bytes = capacity_bytes
        self.store_data = store_data
        self.port: Port = network.attach(f"mem{blade_id}")
        self._pages: Dict[int, bytes] = {}
        self.registered = False
        self.reads_served = 0
        self.writes_served = 0
        #: fault injection: NIC/DRAM service-time multiplier (a "slow blade"
        #: interval sets it > 1) and a hard pause (a crashed/stalled blade
        #: answers nothing; requests are lost and the switch retransmits).
        self.slow_factor = 1.0
        self._paused = False
        self.requests_refused = 0

    # -- fault injection ---------------------------------------------------

    @property
    def available(self) -> bool:
        return not self._paused

    def pause(self) -> None:
        """Stop serving requests (crash/stall interval); in-flight and new
        requests are dropped, to be recovered by retransmission."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def refuse(self) -> None:
        """Account one request lost to an unavailable blade."""
        self.requests_refused += 1

    def register(self) -> None:
        """Boot-time: register physical memory with the RDMA NIC."""
        self.registered = True

    def _check_pa(self, pa: int) -> int:
        page_pa = pa - (pa % PAGE_SIZE)
        if not 0 <= page_pa < self.capacity_bytes:
            raise ValueError(
                f"pa {pa:#x} outside blade {self.blade_id} capacity "
                f"{self.capacity_bytes:#x}"
            )
        return page_pa

    def read_page(self, pa: int) -> Optional[bytes]:
        """NIC-served one-sided READ: returns page payload (zeros if never
        written) or None when payload storage is disabled."""
        page_pa = self._check_pa(pa)
        self.reads_served += 1
        if not self.store_data:
            return None
        return self._pages.get(page_pa, ZERO_PAGE)

    def write_page(self, pa: int, data: Optional[bytes]) -> None:
        """NIC-served one-sided WRITE: store a page payload."""
        page_pa = self._check_pa(pa)
        self.writes_served += 1
        if not self.store_data or data is None:
            return
        if len(data) != PAGE_SIZE:
            padded = bytearray(PAGE_SIZE)
            padded[: len(data)] = data
            data = bytes(padded)
        self._pages[page_pa] = bytes(data)

    @property
    def resident_pages(self) -> int:
        return len(self._pages)
