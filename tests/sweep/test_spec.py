"""Unit tests for the sweep grid language and point handles."""

import pickle

import pytest

from repro.runner import RunnerConfig
from repro.sweep import (
    GridSpec,
    SweepPoint,
    SweepSpec,
    build_workload_cached,
    parse_grid,
)
from repro.sweep.presets import PRESETS, preset_grids
from repro.sweep.spec import RUNNER_AXES, clear_workload_cache


class TestParseGrid:
    def test_axes_and_value_types(self):
        grid = parse_grid("system=mind,gam;blades=1,2;read_ratio=0.5;name=x")
        assert grid.axes["system"] == ["mind", "gam"]
        assert grid.axes["blades"] == [1, 2]
        assert grid.axes["read_ratio"] == [0.5]
        assert grid.axes["name"] == ["x"]

    def test_axis_order_preserved(self):
        grid = parse_grid("b=1;a=2;c=3")
        assert list(grid.axes) == ["b", "a", "c"]

    @pytest.mark.parametrize(
        "text", ["", "=1,2", "system", "system=mind;system=gam", "blades="]
    )
    def test_malformed_grids_rejected(self, text):
        with pytest.raises(ValueError):
            parse_grid(text)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            parse_grid("system=nonsense")

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            parse_grid("workload=nonsense")

    @pytest.mark.parametrize("knob", ["trace", "trace_capacity"])
    def test_trace_knobs_are_not_grid_axes(self, knob):
        # A traced grid point would run traced and drop the trace, and
        # execute_point(point, with_trace=True) would pass trace twice.
        assert knob not in RUNNER_AXES
        with pytest.raises(ValueError, match="not a grid axis"):
            parse_grid(f"system=mind;{knob}=1")


class TestExpansion:
    def test_cartesian_product_with_seeds(self):
        grid = parse_grid("system=mind,gam;blades=1,2")
        points = grid.expand(seeds=[1, 2])
        assert len(points) == 8
        # Deterministic order: declaration order, seeds innermost.
        assert [(p.system, p.num_blades, p.seed) for p in points[:4]] == [
            ("mind", 1, 1),
            ("mind", 1, 2),
            ("mind", 2, 1),
            ("mind", 2, 2),
        ]

    def test_seed_axis_overrides_seed_list(self):
        grid = parse_grid("system=mind;seed=7")
        points = grid.expand(seeds=[1, 2, 3])
        assert [p.seed for p in points] == [7]

    def test_param_split_runner_vs_workload(self):
        grid = parse_grid(
            "system=mind;workload=uniform;read_ratio=0.5;num_memory_blades=2;"
            "epoch_us=2000;accesses_per_thread=100"
        )
        (point,) = grid.expand()
        assert dict(point.runner_params) == {
            "num_memory_blades": 2,
            "epoch_us": 2000,
        }
        assert dict(point.workload_params) == {
            "read_ratio": 0.5,
            "accesses_per_thread": 100,
        }
        config = point.runner_config()
        assert isinstance(config, RunnerConfig)
        assert config.num_memory_blades == 2

    def test_num_threads(self):
        grid = parse_grid("blades=4;threads_per_blade=10")
        (point,) = grid.expand()
        assert point.num_threads == 40

    def test_spec_dedupes_overlapping_grids(self):
        spec = SweepSpec.from_grids(
            ["system=mind;blades=1,2", "system=mind;blades=2,4"], seeds=[1]
        )
        assert [p.num_blades for p in spec.points()] == [1, 2, 4]


class TestIdentity:
    def test_point_id_stable_and_seed_sensitive(self):
        a = SweepPoint("mind", "uniform", 2, 2, 1)
        b = SweepPoint("mind", "uniform", 2, 2, 1)
        c = SweepPoint("mind", "uniform", 2, 2, 2)
        assert a.point_id == b.point_id
        assert a.point_id != c.point_id
        # Seeds share a cell; systems do not.
        assert a.cell_id == c.cell_id
        assert a.cell_id != SweepPoint("gam", "uniform", 2, 2, 1).cell_id

    def test_roundtrip_json(self):
        point = SweepPoint(
            "mind", "uniform", 2, 2, 3,
            workload_params=(("read_ratio", 0.5),),
            runner_params=(("epoch_us", 2000),),
        )
        again = SweepPoint.from_json(point.to_json())
        assert again == point
        assert again.point_id == point.point_id

    def test_points_pickle(self):
        point = SweepPoint("mind", "uniform", 1, 2, 1)
        assert pickle.loads(pickle.dumps(point)) == point


class TestWorkloadCache:
    def test_same_handle_reuses_instance_across_systems(self):
        clear_workload_cache()
        mind = SweepPoint("mind", "uniform", 1, 2, 1,
                          workload_params=(("accesses_per_thread", 50),))
        gam = SweepPoint("gam", "uniform", 1, 2, 1,
                         workload_params=(("accesses_per_thread", 50),))
        assert build_workload_cached(mind) is build_workload_cached(gam)

    def test_different_seed_different_instance(self):
        clear_workload_cache()
        a = SweepPoint("mind", "uniform", 1, 2, 1)
        b = SweepPoint("mind", "uniform", 1, 2, 2)
        assert build_workload_cached(a) is not build_workload_cached(b)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_parse_and_expand(self, name):
        grids = preset_grids(name)
        assert grids
        for grid in grids:
            assert isinstance(grid, GridSpec)
            assert grid.expand(seeds=[1])

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_grids("nope")
