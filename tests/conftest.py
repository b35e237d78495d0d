"""Shared fixtures: small, fast cluster configurations for tests."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, MindCluster
from repro.core.coherence import CoherenceProtocol
from repro.core.mmu import MindConfig
from repro.faults import FaultPlan


def small_cluster(
    num_compute: int = 2,
    num_memory: int = 1,
    cache_pages: int = 64,
    **mind_kwargs,
) -> MindCluster:
    """A tiny rack that builds in milliseconds for unit-level tests."""
    mind = MindConfig(
        directory_capacity=mind_kwargs.pop("directory_capacity", 256),
        memory_blade_capacity=mind_kwargs.pop("memory_blade_capacity", 1 << 26),
        enable_bounded_splitting=mind_kwargs.pop("enable_bounded_splitting", False),
        **mind_kwargs,
    )
    return MindCluster(
        ClusterConfig(
            num_compute_blades=num_compute,
            num_memory_blades=num_memory,
            cache_capacity_pages=cache_pages,
            mind=mind,
        )
    )


def arm_loss(
    cluster: MindCluster,
    port: str,
    prob: float,
    direction: str = "both",
    duration_us: float = 1e6,
    seed: int = 7,
):
    """Drop packets on ``port``'s links with probability ``prob`` from now
    until ``duration_us`` later: one seeded ``FaultPlan`` loss window."""
    start = cluster.engine.now
    plan = FaultPlan(seed=seed).packet_loss(
        start, start + duration_us, prob, port=port, direction=direction
    )
    return cluster.inject_faults(plan)


def lose_first_attempt(cluster: MindCluster, port: str, direction: str):
    """Drop what ``port``'s ``direction`` link carries for one ACK timeout
    from now: the first attempt of a message is lost, and its
    retransmission, a full timeout later, is not."""
    return arm_loss(
        cluster, port, 0.99, direction=direction,
        duration_us=CoherenceProtocol.ACK_TIMEOUT_US,
    )


@pytest.fixture
def cluster() -> MindCluster:
    return small_cluster()


@pytest.fixture
def big_cache_cluster() -> MindCluster:
    return small_cluster(cache_pages=4096)
