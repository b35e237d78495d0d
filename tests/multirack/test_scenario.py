"""The multirack scenario driver and its sweep integration.

The contract the CI smoke leans on: a scenario point is a pure function
of its config, so the ``multirack-quick`` preset produces the same bytes
serially, under spawned workers, and across repeated runs.
"""

import pytest

from repro.faults import FaultPlan
from repro.multirack import (
    MultiRackScenarioConfig,
    config_from_params,
    run_multirack,
)
from repro.sweep import SweepSpec, execute_point, run_sweep
from repro.sweep.engine import extract_metrics

QUICK = dict(
    racks=2,
    compute_blades_per_rack=2,
    accesses_per_thread=80,
    pages_per_rack=64,
    cache_capacity_pages=128,
)

GRID = (
    "system=mind;workload=multirack;blades=2;threads_per_blade=1;"
    "racks=1,2;cross_fraction=0.3;accesses_per_thread=60;"
    "pages_per_rack=64;read_ratio=0.7;cache_capacity_pages=128"
)


class TestScenarioDeterminism:
    def test_repeat_runs_are_identical(self):
        a = run_multirack(MultiRackScenarioConfig(**QUICK))
        b = run_multirack(MultiRackScenarioConfig(**QUICK))
        assert extract_metrics(a) == extract_metrics(b)
        assert a.runtime_us == b.runtime_us

    def test_open_loop_repeat_runs_are_identical(self):
        config = MultiRackScenarioConfig(
            arrival_process="poisson", arrival_rate_per_thread=0.01, **QUICK
        )
        a = run_multirack(config)
        b = run_multirack(config)
        assert extract_metrics(a) == extract_metrics(b)

    def test_seed_changes_the_run(self):
        a = run_multirack(MultiRackScenarioConfig(seed=1, **QUICK))
        b = run_multirack(MultiRackScenarioConfig(seed=2, **QUICK))
        assert extract_metrics(a) != extract_metrics(b)

    def test_scenario_exposes_the_crossover_metrics(self):
        result = run_multirack(MultiRackScenarioConfig(**QUICK))
        metrics = extract_metrics(result)
        assert metrics["counter:intra_rack_faults"] > 0
        assert metrics["counter:cross_rack_faults"] > 0
        assert (
            metrics["latency:fault:cross:p50"]
            > metrics["latency:fault:intra:p50"]
        )
        assert metrics["gauge:tier:spine:bytes"] > 0


class TestPayloads:
    def test_replay_holds_no_page_buffers(self, monkeypatch):
        """A trace replay never stores bytes, so every fill and write-back
        shares the one zero page: no blade holds a private page buffer."""
        from repro.blades.memory import ZERO_PAGE
        from repro.multirack import runner

        fabrics = []

        class RecordingFabric(runner.MultiRackFabric):
            def __init__(self, config):
                super().__init__(config)
                fabrics.append(self)

        monkeypatch.setattr(runner, "MultiRackFabric", RecordingFabric)
        result = run_multirack(MultiRackScenarioConfig(**QUICK))
        assert result.stats.counter("pages_written_back") > 0
        (fabric,) = fabrics
        pages = [
            page
            for blade in fabric.compute_blades
            for page in blade.cache.pages_in(0, 1 << 62)
        ]
        assert any(page.dirty for page in pages)
        assert all(page.data is ZERO_PAGE for page in pages)
        assert all(
            data is ZERO_PAGE
            for blade in fabric.memory_blades
            for data in blade._pages.values()
        )


class TestConfigFromParams:
    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="unknown multirack scenario"):
            config_from_params({"rakcs": 4})

    def test_overrides_win(self):
        config = config_from_params({"racks": 2}, seed=7)
        assert config.racks == 2
        assert config.seed == 7


class TestSweepIntegration:
    def test_jobs_do_not_change_the_bytes(self):
        spec = SweepSpec.from_grids([GRID], seeds=[1])
        serial = run_sweep(spec, jobs=1).to_json_text()
        spawned = run_sweep(spec, jobs=2).to_json_text()
        assert serial == spawned

    def test_structural_axes_map_to_the_scenario(self):
        spec = SweepSpec.from_grids([GRID], seeds=[1])
        points = spec.points()
        assert len(points) == 2
        record = execute_point(points[1])  # racks=2
        assert record.metrics["counter:cross_rack_faults"] > 0
        # blades axis means compute blades per rack: 2 racks x 2 blades.
        assert record.metrics["total_accesses"] == 4 * 60

    def test_external_fault_plan_rejected(self):
        (point, _) = SweepSpec.from_grids([GRID], seeds=[1]).points()
        with pytest.raises(ValueError, match="fault schedule"):
            execute_point(point, fault_plan=FaultPlan(seed=1))

    def test_trace_rejected(self):
        (point, _) = SweepSpec.from_grids([GRID], seeds=[1]).points()
        with pytest.raises(ValueError, match="trace"):
            execute_point(point, with_trace=True)

    def test_non_mind_system_rejected_by_the_grid(self):
        with pytest.raises(ValueError, match="topology workload"):
            SweepSpec.from_grids(
                [GRID.replace("system=mind", "system=gam")], seeds=[1]
            ).points()
