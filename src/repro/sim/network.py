"""Rack network substrate: ports, links, and the calibrated latency model.

The disaggregated rack is a star: every blade connects to the single
programmable switch through a dedicated 100 Gbps full-duplex link (each
compute/memory blade VM in the paper's testbed had its own CX-5 NIC).  A
transfer costs serialization (size / bandwidth, during which the link is
held) plus fixed propagation + NIC processing.  Links are modelled as FIFO
resources so concurrent transfers queue, which produces the bandwidth
ceilings and queueing delays of Fig. 7.

All constants live in :class:`NetworkConfig` and are calibrated so that the
end-to-end transaction latencies match the paper: a one-sided RDMA page
fetch through the switch lands at ~9 us and an ownership handoff (sequential
invalidate + fetch) at ~18 us (Fig. 7 left), with local DRAM under 100 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from .engine import Engine, Resource

#: Bytes in a page; MIND performs all remote accesses at page granularity.
PAGE_SIZE = 4096


@dataclass
class NetworkConfig:
    """Latency/bandwidth constants for the rack model (times in us)."""

    #: One-way wire + NIC processing between a blade and the switch.
    link_propagation_us: float = 1.45
    #: Link rate, used for serialization delay (100 Gbps CX-5 in the paper).
    link_bandwidth_gbps: float = 100.0
    #: One pass through the switch ingress+egress pipelines.
    switch_pipeline_us: float = 0.45
    #: Extra cost of recirculating a packet for the directory write-back MAU.
    recirculation_us: float = 0.25
    #: DRAM access at a blade (paper: local accesses < 100 ns).
    dram_access_us: float = 0.085
    #: Memory-blade NIC DMA setup for serving a one-sided READ/WRITE.
    memory_service_us: float = 0.9
    #: Page-fault entry/exit + PTE fixup at the compute blade kernel.
    fault_overhead_us: float = 0.8
    #: Handling one invalidation request at a compute blade (kernel path).
    invalidation_processing_us: float = 1.2
    #: RDMA verb post + completion polling at the requester.
    rdma_verb_overhead_us: float = 0.35

    def serialization_us(self, size_bytes: int) -> float:
        """Time the link is held to push ``size_bytes`` onto the wire."""
        bits = size_bytes * 8
        return bits / (self.link_bandwidth_gbps * 1e3)  # Gbps = bits/ns -> us

    def page_serialization_us(self) -> float:
        return self.serialization_us(PAGE_SIZE)


#: A small control message (request/ACK/invalidation) on the wire.
CONTROL_MSG_BYTES = 64


@dataclass
class LinkFault:
    """A fault window on one link: packet loss and/or a delay spike.

    During ``[start_us, end_us)`` every packet completing serialization is
    dropped with probability ``drop_prob`` (rolled on ``rng``, a seeded
    generator, so loss patterns are reproducible) and surviving packets pay
    ``extra_delay_us`` of additional propagation.
    """

    start_us: float
    end_us: float
    drop_prob: float = 0.0
    extra_delay_us: float = 0.0
    rng: object = field(default=None, repr=False)

    def covers(self, now: float) -> bool:
        return self.start_us <= now < self.end_us


class Link:
    """A unidirectional link: FIFO serialization + fixed propagation.

    Fault injection: :meth:`install_fault` arms loss/delay windows.  A
    dropped packet still held the link for its full serialization time and
    is counted in :attr:`bytes_carried` -- the wire was genuinely occupied
    -- so :meth:`utilization` and byte totals stay truthful under injected
    loss; the loss itself is tallied separately in :attr:`packets_dropped`
    / :attr:`bytes_dropped`.
    """

    def __init__(self, engine: Engine, config: NetworkConfig, name: str):
        self.engine = engine
        self.config = config
        self.name = name
        self._resource = Resource(engine, capacity=1, name=f"link:{name}")
        self.bytes_carried = 0
        self._faults: List[LinkFault] = []
        self.packets_dropped = 0
        self.bytes_dropped = 0
        #: serialization time by payload size; transfers see a handful of
        #: distinct sizes (page, control message) millions of times.
        self._ser_us: Dict[int, float] = {}

    # -- fault injection ------------------------------------------------

    def install_fault(self, fault: LinkFault) -> None:
        """Arm a loss/delay window; windows self-activate by sim time."""
        if fault.drop_prob and fault.rng is None:
            raise ValueError("a lossy LinkFault needs a seeded rng")
        self._faults.append(fault)

    def clear_faults(self) -> None:
        self._faults.clear()

    def _active_fault(self, now: float) -> Optional[LinkFault]:
        for fault in self._faults:
            if fault.covers(now):
                return fault
        return None

    # -- the wire -------------------------------------------------------

    def try_leg(self, size_bytes: int) -> float:
        """Entire uncontended leg (serialization + propagation) as ONE
        delay; -1.0 means fall back to :meth:`try_start` / :meth:`transfer`.

        It has no data-path caller: on the repo benchmark's workloads the
        guard below admitted at most ~2% of calls, so the protocol code
        uses :meth:`try_start` / :meth:`finish` only.  It is kept for the
        layer microbenchmark of one wire leg.

        Strictly stronger guard than :meth:`try_start`: besides an idle
        wire, a fault-free link and an empty ready deque, no parked timer
        may be due before ``now + ser + prop`` and no ``run(until=...)``
        limit may cut inside that window.  Under those conditions *no
        other event can execute* anywhere in the open interval -- events
        only spring from the ready deque, the timer heap, or code this
        frame runs -- so nobody can observe (or contend for) the wire
        mid-leg.  The hold is therefore virtual: the busy-time integral
        is credited as a lump sum at the start and the server is never
        marked in use, which collapses the leg's two scheduler events
        into a single timer.

        A timer or ``until`` limit landing *exactly* at the leg's end is
        safe: the slow path would have released the wire at the
        serialization boundary, so an observer at the endpoint sees a
        free wire and identical accounting either way.
        """
        engine = self.engine
        res = self._resource
        if self._faults or engine._ready or res._in_use:
            return -1.0
        ser_us = self._ser_us.get(size_bytes)
        if ser_us is None:
            ser_us = self._ser_us[size_bytes] = self.config.serialization_us(size_bytes)
        now = engine.now
        # Float discipline: the slow path wakes at fl(fl(now+ser)+prop),
        # and every timestamp is doc-visible, so the single fused delay
        # must reproduce that exact sum -- addition is not associative.
        # When no representable delta lands there, take the slow path.
        mid = now + ser_us
        done = mid + self.config.link_propagation_us
        if engine._due_head < done or engine._until < done:
            return -1.0
        delta = done - now
        if now + delta != done:
            return -1.0
        if now != res._last_change:  # fold the open busy interval
            res.busy_time += res._in_use * (now - res._last_change)
            res._last_change = now
        # The lump-sum hold, in the exact floats the slow path accrues.
        res.busy_time += mid - now
        res.grants += 1
        self.bytes_carried += size_bytes
        return delta

    def try_start(self, size_bytes: int) -> float:
        """Claim the wire for a fast-path leg; -1.0 means take
        :meth:`transfer`.

        The generator protocol costs real time on legs that dominate the
        kernel profile, and an uncontended, fault-free leg does nothing a
        plain pair of delays cannot express.  On success the link is held
        (exactly as :meth:`transfer` would hold it) and the caller must::

            yield ser_us              # the value returned here
            yield link.finish(size)   # releases at now, pays propagation

        which reproduces transfer()'s yield sequence -- serialization
        while holding the wire, release at the serialization boundary,
        then propagation -- with no generator frame.  Contended links and
        links with armed fault windows refuse (-1.0): queueing and
        loss/delay injection stay on the one authoritative path.

        The quiet-window guard (ready deque empty, no timer due now) is
        load-bearing: transfer() driven through subtask() acquires the
        wire one-or-more *events* later at the same timestamp, so
        claiming it here is only unobservable when no other event can
        run at this instant -- exactly the condition under which
        subtask() would have fused the transfer inline anyway.
        """
        engine = self.engine
        if (
            self._faults
            or engine._ready
            or engine._due_head <= engine.now
            or not self._resource._take()
        ):
            return -1.0
        ser_us = self._ser_us.get(size_bytes)
        if ser_us is None:
            ser_us = self._ser_us[size_bytes] = self.config.serialization_us(size_bytes)
        return ser_us

    def finish(self, size_bytes: int) -> float:
        """Complete a :meth:`try_start` leg: account the payload, free the
        wire, and return the propagation delay still to be paid."""
        self.bytes_carried += size_bytes
        self._resource.release()
        return self.config.link_propagation_us

    def transfer(self, size_bytes: int) -> Generator:
        """Process generator: completes when the payload has fully arrived.

        Returns True if the payload was delivered, False if a fault window
        swallowed it (the sender cannot tell until a timeout elapses; the
        serialization time and bytes are accounted either way).
        """
        ser_us = self._ser_us.get(size_bytes)
        if ser_us is None:
            ser_us = self._ser_us[size_bytes] = self.config.serialization_us(size_bytes)
        yield self._resource.acquire()
        try:
            yield ser_us
            self.bytes_carried += size_bytes
        finally:
            self._resource.release()
        delay = self.config.link_propagation_us
        if self._faults:
            fault = self._active_fault(self.engine.now)
            if fault is not None:
                delay += fault.extra_delay_us
                if fault.drop_prob and fault.rng.random() < fault.drop_prob:
                    self.packets_dropped += 1
                    self.bytes_dropped += size_bytes
                    tracer = self.engine.tracer
                    if tracer.enabled:
                        tracer.instant(
                            self.engine.now,
                            "fault",
                            f"drop:{self.name}",
                            track=tracer.track("faults"),
                        )
                    return False
        yield delay
        return True

    def utilization(self) -> float:
        return self._resource.utilization()


class CompositePath:
    """A multi-segment one-way path that quacks like a :class:`Link`.

    Cross-rack traffic traverses several real legs -- the blade's edge
    link, a forwarding pass through its rack switch, the source rack's
    spine uplink and the destination rack's spine downlink -- but the
    coherence engine only speaks the single-``transfer`` link protocol.
    A ``CompositePath`` chains the legs behind that interface, so a home
    switch charges cross-rack distance without knowing about racks.

    Steps are ``(kind, payload, tier)`` tuples: ``LINK`` carries the
    payload over a real :class:`Link`, ``DELAY`` pays a fixed latency,
    and ``PROC`` runs a zero-argument generator factory (e.g. a pipeline
    forwarding pass).  Time spent in steps tagged ``"spine"`` accumulates
    in a deferred bucket; the fault path pops it (:func:`pop_deferred_us`)
    to attribute spine time in its span breakdown.  A dropped leg stops
    the traversal -- the payload never reached later legs.

    Bytes and drops are accounted on the underlying real links only; the
    path itself reports zero so fabric byte totals never double count.
    """

    LINK = "link"
    DELAY = "delay"
    PROC = "proc"

    def __init__(
        self,
        engine: Engine,
        name: str,
        steps: List[Tuple[str, object, str]],
    ):
        self.engine = engine
        self.name = name
        self.steps = tuple(steps)
        self._deferred_spine_us = 0.0
        # Link-protocol accounting attributes (see class docstring).
        self.bytes_carried = 0
        self.packets_dropped = 0
        self.bytes_dropped = 0

    def try_start(self, size_bytes: int) -> float:
        """Multi-leg paths always take the full :meth:`transfer` path."""
        return -1.0

    def transfer(self, size_bytes: int) -> Generator:
        """Traverse every leg in order; True iff all legs delivered."""
        for kind, payload, tier in self.steps:
            t0 = self.engine.now
            if kind == self.LINK:
                delivered = yield from payload.transfer(size_bytes)  # type: ignore[attr-defined]
            elif kind == self.DELAY:
                yield payload
                delivered = True
            else:
                delivered = yield from payload()  # type: ignore[operator]
                if delivered is None:
                    delivered = True
            if tier == "spine":
                self._deferred_spine_us += self.engine.now - t0
            if not delivered:
                return False
        return True

    def pop_deferred_us(self) -> float:
        """Spine-tier time banked since the last pop (attribution only)."""
        us = self._deferred_spine_us
        self._deferred_spine_us = 0.0
        return us

    def utilization(self) -> float:
        return 0.0

    def clear_faults(self) -> None:
        for kind, payload, _tier in self.steps:
            if kind == self.LINK:
                payload.clear_faults()  # type: ignore[attr-defined]


def pop_deferred_us(link) -> float:
    """Deferred spine time banked on ``link``; 0.0 for plain links."""
    pop = getattr(link, "pop_deferred_us", None)
    return pop() if pop is not None else 0.0


class Port:
    """A blade's full-duplex attachment point to the switch."""

    def __init__(self, engine: Engine, config: NetworkConfig, name: str, port_id: int):
        self.name = name
        self.port_id = port_id
        self.to_switch = Link(engine, config, f"{name}->switch")
        self.from_switch = Link(engine, config, f"switch->{name}")

    @property
    def links(self) -> Tuple[Link, Link]:
        return (self.to_switch, self.from_switch)

    def packets_dropped(self) -> int:
        return self.to_switch.packets_dropped + self.from_switch.packets_dropped


class Network:
    """The rack's star topology: blades attached to one switch.

    ``port_id_base`` offsets this network's port ids; multi-switch fabrics
    use it to keep port ids globally unique (they key the coherence
    engine's blade registries).
    """

    def __init__(
        self, engine: Engine, config: NetworkConfig = None, port_id_base: int = 0
    ):
        self.engine = engine
        self.config = config or NetworkConfig()
        self.ports: Dict[str, Port] = {}
        self._next_port_id = port_id_base

    def attach(self, name: str) -> Port:
        """Attach a blade; returns its port.  Names must be unique."""
        if name in self.ports:
            raise ValueError(f"port name already attached: {name}")
        port = Port(self.engine, self.config, name, self._next_port_id)
        self._next_port_id += 1
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        return self.ports[name]

    def total_bytes(self) -> int:
        """Bytes that occupied any link, including ones later dropped by an
        injected fault (they were serialized onto the wire regardless)."""
        return sum(
            p.to_switch.bytes_carried + p.from_switch.bytes_carried
            for p in self.ports.values()
        )

    def total_packets_dropped(self) -> int:
        return sum(p.packets_dropped() for p in self.ports.values())

    def total_bytes_dropped(self) -> int:
        return sum(
            p.to_switch.bytes_dropped + p.from_switch.bytes_dropped
            for p in self.ports.values()
        )

    def links(self, port_name: Optional[str] = None, direction: str = "both"):
        """Iterate links, optionally filtered by port name and direction
        ("to_switch", "from_switch", or "both").  Deterministic order."""
        if direction not in ("to_switch", "from_switch", "both"):
            raise ValueError(f"unknown link direction {direction!r}")
        for name, port in self.ports.items():
            if port_name is not None and name != port_name:
                continue
            if direction in ("to_switch", "both"):
                yield port.to_switch
            if direction in ("from_switch", "both"):
                yield port.from_switch
