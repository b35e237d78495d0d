"""Multi-tenant elastic KVS: the serving workload behind ``repro.service``.

Promoted from ``examples/elastic_kvs.py``: the paper's motivating scenario
is a KVS whose hash table lives in the single global address space, so
serving capacity scales by *adding threads on new blades* mid-run with no
sharding or data movement.  This module packages the reusable pieces --
deterministic request generation, the per-request serving generator, and
a :class:`KvsTenant` that isolates each tenant behind its own
:class:`~repro.workloads.kvs.MindKvs` table and protection domain
(Section 4.2 sessions) -- so the example, the service scenario, and the
tests all drive the same code.

Determinism: request sequences are pure functions of
``(service name, seed, tenant, client)`` via :func:`stable_seed`, exactly
like trace generation -- identical across processes and ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..core.vma import PermissionClass
from ..sim.rng import ZipfianSampler, make_rng
from .kvs import MindKvs
from .trace import stable_seed

#: CPU time to parse/handle one request (why serving is compute-bound and
#: worth scaling out in the first place).
REQUEST_CPU_US = 8.0

#: tenant protection-domain ids start here, clear of process pids
#: (the controller allocates pids upward from 1000).
TENANT_PDID_BASE = 50_000


@dataclass(frozen=True)
class KvsOp:
    """One KVS request: a get or a put."""

    op: str
    key: bytes
    value: bytes = b""


def make_ops(
    name: str,
    seed: int,
    tenant: int,
    client: int,
    count: int,
    num_keys: int,
    read_fraction: float = 0.9,
    zipf_theta: float = 0.9,
    value_bytes: int = 24,
) -> List[KvsOp]:
    """A deterministic op sequence for one tenant client.

    Keys follow a Zipfian popularity distribution over the tenant's key
    universe; the read/write mix follows ``read_fraction``.  A pure
    function of the identity tuple -- no simulator state involved.
    """
    rng = make_rng(stable_seed(name, seed, tenant, client, "ops"))
    sampler = ZipfianSampler(
        num_keys, theta=zipf_theta,
        seed=stable_seed(name, seed, tenant, client, "zipf"),
    )
    reads = rng.random(count) < read_fraction if count else []
    # One draw for every key: the same doubles, hence the same keys, as
    # ``count`` calls of ``sample_one``.
    keys = sampler.sample(count).tolist()
    ops = []
    for i in range(count):
        key = tenant_key(tenant, keys[i])
        if reads[i]:
            ops.append(KvsOp("get", key))
        else:
            value = _pad_value(b"v%d.%d.%d" % (tenant, client, i), value_bytes)
            ops.append(KvsOp("put", key, value))
    return ops


def tenant_key(tenant: int, index: int) -> bytes:
    return b"t%d-key-%d" % (tenant, index)


def _pad_value(prefix: bytes, value_bytes: int) -> bytes:
    return prefix.ljust(value_bytes, b".")[:value_bytes]


class KvsTenant:
    """One tenant of a multi-tenant KVS service.

    Owns a private :class:`MindKvs` table in the serving process's address
    space and a protection domain granted read-write access to exactly
    that table -- serving threads execute each tenant's ops through the
    tenant's ``pdid``, so a request can never touch another tenant's
    slots.  Lower ``tenant_id`` means higher priority: the *last* tenant
    sheds first under retry-storm degradation.
    """

    def __init__(
        self,
        process,
        tenant_id: int,
        num_keys: int = 64,
        num_slots: int = 512,
        value_bytes: int = 24,
    ):
        if num_slots < 2 * num_keys:
            raise ValueError(
                "tenant table needs slack: num_slots should be >= 2x num_keys"
            )
        self.tenant_id = tenant_id
        self.num_keys = num_keys
        self.value_bytes = value_bytes
        self.pdid = TENANT_PDID_BASE + tenant_id
        self.kvs = MindKvs(process, num_slots=num_slots)
        process.grant_domain(self.kvs.base, self.pdid, PermissionClass.READ_WRITE)

    def preload_gen(self, thread) -> Generator:
        """Insert every key with a deterministic initial value."""
        for k in range(self.num_keys):
            value = _pad_value(
                b"init.%d.%d" % (self.tenant_id, k), self.value_bytes
            )
            yield from self.kvs.put_gen(
                thread, tenant_key(self.tenant_id, k), value, pdid=self.pdid
            )

    def serve_gen(self, thread, op: KvsOp) -> Generator:
        """Execute one op on ``thread`` through this tenant's domain."""
        if op.op == "get":
            return (yield from self.kvs.get_gen(thread, op.key, pdid=self.pdid))
        yield from self.kvs.put_gen(thread, op.key, op.value, pdid=self.pdid)
        return None


def server_loop(
    kvs: MindKvs, thread, requests: List[KvsOp], cpu_us: float = REQUEST_CPU_US
) -> Generator:
    """A closed-loop serving thread: drain ``requests`` back to back.

    The single-tenant, fixed-batch form the elastic-KVS example uses;
    the service scenario replaces it with an open-loop pool.
    """
    served = 0
    for op in requests:
        yield cpu_us  # request parsing + protocol handling
        if op.op == "get":
            yield from kvs.get_gen(thread, op.key)
        else:
            yield from kvs.put_gen(thread, op.key, op.value)
        served += 1
    return served
