"""The kernel-fast-path determinism contract, enforced end to end.

The checked-in CI baseline (``benchmarks/BENCH_baseline.json``) predates
the kernel fast paths, so replaying its spec today and getting *exactly*
the recorded metrics proves the fast paths changed no simulated result
-- not within a tolerance: to the last bit of every float.  Any
intentional model change that re-blesses the baseline keeps this test
meaningful for the next kernel change.

The malloc ablation baseline (``benchmarks/BENCH_alloc.json``) holds the
same contract for the control plane: its churn points are the only ones
that recompile protection domains at volume.  The serving baseline
(``benchmarks/BENCH_service.json``, the ``kvs-service-quick`` preset) holds
it for fail-over: its two ``chaos=crash`` points are the only sweep points
that crash the switch and rebuild the data plane.
"""

import json
import os

import pytest

from repro.sweep.engine import execute_point
from repro.sweep.spec import SweepPoint

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


def _baseline_points(name):
    with open(os.path.join(BENCHMARKS, name)) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "repro.sweep/v1"
    return doc["points"]


def _assert_replays_exactly(recorded):
    point = SweepPoint.from_json(recorded)
    fresh = execute_point(point).metrics
    # Newer code may *add* metrics (e.g. the transaction-engine counters
    # postdate this baseline), but every metric the baseline records must
    # still exist and be bit-for-bit identical.
    missing = set(recorded["metrics"]) - set(fresh)
    assert not missing, f"metrics vanished since the baseline: {sorted(missing)}"
    mismatched = {
        name: (fresh[name], want)
        for name, want in recorded["metrics"].items()
        if fresh[name] != want
    }
    assert not mismatched, f"simulated results drifted: {mismatched}"


@pytest.mark.parametrize(
    "recorded",
    _baseline_points("BENCH_baseline.json"),
    ids=lambda rec: rec["point_id"][:12],
)
def test_ci_quick_cell_matches_baseline_exactly(recorded):
    _assert_replays_exactly(recorded)


@pytest.mark.parametrize(
    "recorded",
    _baseline_points("BENCH_alloc.json"),
    ids=lambda rec: rec["point_id"][:12],
)
def test_malloc_bench_point_matches_baseline_exactly(recorded):
    _assert_replays_exactly(recorded)


@pytest.mark.parametrize(
    "recorded",
    _baseline_points("BENCH_service.json"),
    ids=lambda rec: rec["point_id"][:12],
)
def test_kvs_service_point_matches_baseline_exactly(recorded):
    _assert_replays_exactly(recorded)
