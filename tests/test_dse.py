"""Tests for the design-space exploration subsystem: overrides,
spaces, strategies, the engine, determinism, and the ``dse`` CLI."""

import dataclasses
import json
import random

import pytest

from repro.cli import main
from repro.config.accelerator import (
    ConfigError,
    DenseEngineConfig,
    DramConfig,
    GNNeratorConfig,
    GraphEngineConfig,
)
from repro.config.overrides import (
    apply_overrides,
    candidate_config,
    fig5_overrides,
    freeze_overrides,
    knob_paths,
    overrides_between,
)
from repro.config.platforms import (
    gnnerator_config,
    next_generation_variants,
)
from repro.config.workload import WorkloadSpec
from repro.dse import (
    Budget,
    DseEngine,
    DseError,
    EvolutionarySearch,
    GridSearch,
    Knob,
    RandomSearch,
    build_strategy,
    dse_csv,
    render_dse,
)
from repro.dse.space import DesignSpace
from repro.sweep import NullCache, ResultCache, SweepPoint, SweepRunner
from repro.sweep.plan import METRIC_DSE, SweepPlanError

TINY_GCN = WorkloadSpec(dataset="tiny", network="gcn")


def tiny_space() -> DesignSpace:
    """A 3x2x2 space cheap enough for exhaustive smoke searches."""
    return DesignSpace((
        Knob("dense.rows", (32, 64, 128)),
        Knob("graph.num_gpes", (16, 32)),
        Knob("dram.bandwidth_bytes_per_s", (128e9, 256e9)),
    ))


def make_engine(strategy, cache=None, jobs=1,
                budget=Budget(area_mm2=20.0)) -> DseEngine:
    runner = SweepRunner(jobs=jobs,
                         cache=cache if cache is not None else NullCache())
    return DseEngine(tiny_space(), strategy, [TINY_GCN], runner,
                     budget=budget)


# ---------------------------------------------------------------------
# Config overrides
# ---------------------------------------------------------------------
class TestOverrides:
    def test_apply_and_nesting(self):
        config = apply_overrides(gnnerator_config(), {
            "dense.rows": 128,
            "graph.num_gpes": 64,
            "dram.bandwidth_bytes_per_s": 512e9,
            "feature_block": 32,
        })
        assert config.dense.rows == 128
        assert config.dense.cols == 64  # untouched
        assert config.graph.num_gpes == 64
        assert config.dram.bandwidth_bytes_per_s == 512e9
        assert config.feature_block == 32

    def test_unknown_paths_rejected(self):
        with pytest.raises(ConfigError, match="unknown knob"):
            apply_overrides(gnnerator_config(), {"dense.rowz": 8})
        with pytest.raises(ConfigError, match="unknown config section"):
            apply_overrides(gnnerator_config(), {"alu.rows": 8})
        with pytest.raises(ConfigError, match="top-level"):
            apply_overrides(gnnerator_config(), {"name": 3})

    def test_int_fields_coerce_integral_floats_only(self):
        config = apply_overrides(gnnerator_config(), {"dense.rows": 32.0})
        assert config.dense.rows == 32 and isinstance(
            config.dense.rows, int)
        with pytest.raises(ConfigError, match="integer"):
            apply_overrides(gnnerator_config(), {"dense.rows": 32.5})

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ConfigError, match="numeric"):
            apply_overrides(gnnerator_config(), {"dense.rows": "big"})
        with pytest.raises(ConfigError, match="numeric"):
            apply_overrides(gnnerator_config(), {"dense.rows": True})
        # True == 1, but a remembered 1 must not let True through.
        candidate_config(64, (("dense.rows", 1),))
        with pytest.raises(ConfigError, match="numeric"):
            candidate_config(64, (("dense.rows", True),))

    def test_freeze_is_canonical(self):
        a = freeze_overrides({"b.x": 1, "a.y": 2})
        b = freeze_overrides([("a.y", 2), ("b.x", 1)])
        assert a == b == (("a.y", 2), ("b.x", 1))

    def test_knob_paths_cover_all_sections(self):
        paths = knob_paths()
        assert "feature_block" in paths
        assert "dense.rows" in paths
        assert "graph.simd_width" in paths
        assert "dram.bandwidth_bytes_per_s" in paths
        assert "dense.dataflow" not in paths  # non-numeric

    def test_inexpressible_differences_raise(self):
        base = gnnerator_config()
        with pytest.raises(ConfigError, match="non-numeric"):
            overrides_between(base, dataclasses.replace(
                base, dense=dataclasses.replace(base.dense,
                                                dataflow="ws")))
        with pytest.raises(ConfigError, match="non-numeric"):
            overrides_between(base, dataclasses.replace(
                base, sparsity_elimination=True))
        with pytest.raises(ConfigError, match="feature_block=None"):
            overrides_between(base, base.with_feature_block(None))

    def test_variants_round_trip_through_overrides(self):
        """Every Fig 5 variant is expressible as overrides that rebuild
        an equivalent config (modulo the cosmetic name), and so is its
        named override set."""
        base = gnnerator_config()
        for name, variant in next_generation_variants(base).items():
            rebuilt = apply_overrides(base, overrides_between(base,
                                                              variant))
            assert dataclasses.replace(rebuilt, name=variant.name) \
                == variant, name
            named = candidate_config(64, fig5_overrides()[name])
            assert dataclasses.replace(named, name=variant.name) \
                == variant, name
        assert list(fig5_overrides()) == list(next_generation_variants())


# ---------------------------------------------------------------------
# ConfigError coverage for degenerate DSE candidates
# ---------------------------------------------------------------------
class TestDegenerateConfigs:
    def test_zero_sized_buffer_split(self):
        # 4 B nominal, but the double-buffered half holds 2 B < one
        # fp32 element: must be a clear ConfigError, not a deadlock.
        with pytest.raises(ConfigError, match="double-buffer"):
            GraphEngineConfig(src_feature_buffer_bytes=4)
        with pytest.raises(ConfigError, match="double-buffer"):
            GraphEngineConfig(edge_buffer_bytes=8)
        with pytest.raises(ConfigError, match="double-buffer"):
            DenseEngineConfig(weight_buffer_bytes=4)

    def test_zero_bandwidth(self):
        with pytest.raises(ConfigError, match="bandwidth"):
            DramConfig(bandwidth_bytes_per_s=0)

    def test_zero_frequency(self):
        with pytest.raises(ConfigError, match="frequency"):
            DenseEngineConfig(frequency_ghz=0)
        with pytest.raises(ConfigError, match="frequency"):
            GraphEngineConfig(frequency_ghz=-1)
        with pytest.raises(ConfigError, match="frequency"):
            DramConfig(frequency_ghz=0.0)

    def test_block_overflowing_a_scratchpad_half(self):
        # A 512-dim block needs 2048 B/node; half of a 2048 B buffer
        # holds 1024 B. Previously this died deep in shard planning.
        graph = GraphEngineConfig(src_feature_buffer_bytes=2048,
                                  dst_feature_buffer_bytes=2048)
        with pytest.raises(ConfigError, match="shrink the block"):
            GNNeratorConfig(graph=graph, feature_block=512)
        # The same split is fine with a block that fits.
        GNNeratorConfig(graph=graph, feature_block=64)

    def test_degenerate_candidates_reported_not_raised(self):
        """Mid-search, a degenerate candidate becomes an 'invalid'
        evaluation carrying the ConfigError message."""
        space = DesignSpace((
            Knob("dram.bandwidth_bytes_per_s", (0, 256e9)),))
        engine = DseEngine(space, GridSearch(), [TINY_GCN],
                           SweepRunner(cache=NullCache()))
        result = engine.run()
        by_status = {e.status for e in result.evaluations}
        assert by_status == {"ok", "invalid"}
        bad = [e for e in result.evaluations if e.status == "invalid"]
        assert len(bad) == 1
        assert "bandwidth" in bad[0].message


# ---------------------------------------------------------------------
# Design space
# ---------------------------------------------------------------------
class TestDesignSpace:
    def test_size_and_grid(self):
        space = tiny_space()
        assert space.size == 12
        grid = list(space.grid())
        assert len(grid) == 12
        assert len({space.freeze(c) for c in grid}) == 12

    def test_unknown_knob_path_rejected_at_space_build(self):
        with pytest.raises(ConfigError, match="unknown knob paths"):
            DesignSpace((Knob("dense.rowz", (1, 2)),))

    def test_duplicate_knob_values_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            Knob("dense.rows", (32, 32))

    def test_sample_is_seed_deterministic(self):
        space = tiny_space()
        a = [space.sample(random.Random(5)) for _ in range(4)]
        b = [space.sample(random.Random(5)) for _ in range(4)]
        assert a == b

    def test_mutate_moves_exactly_one_knob_one_rung(self):
        space = tiny_space()
        start = {"dense.rows": 64, "graph.num_gpes": 16,
                 "dram.bandwidth_bytes_per_s": 128e9}
        rng = random.Random(3)
        for _ in range(30):
            child = space.mutate(start, rng)
            changed = [path for path in start
                       if child[path] != start[path]]
            assert len(changed) == 1
            knob = space.knob(changed[0])
            delta = abs(knob.index_of(child[changed[0]])
                        - knob.index_of(start[changed[0]]))
            assert delta == 1

    def test_mutate_at_ladder_end_moves_inward(self):
        space = DesignSpace((Knob("dense.rows", (32, 64)),))
        rng = random.Random(0)
        for value in (32, 64):
            child = space.mutate({"dense.rows": value}, rng)
            assert child["dense.rows"] != value

    def test_with_knob_replaces_and_appends(self):
        space = tiny_space().with_knob("dense.rows", (8, 16))
        assert space.knob("dense.rows").values == (8, 16)
        space = space.with_knob("graph.simd_width", (16,))
        assert space.knob("graph.simd_width").values == (16,)


# ---------------------------------------------------------------------
# Sweep integration: points that carry config overrides
# ---------------------------------------------------------------------
class TestDsePoints:
    def test_overrides_are_canonicalised(self):
        a = SweepPoint(dataset="tiny", network="gcn", metric=METRIC_DSE,
                       config_overrides=(("graph.num_gpes", 16),
                                         ("dense.rows", 32)))
        b = SweepPoint(dataset="tiny", network="gcn", metric=METRIC_DSE,
                       config_overrides=(("dense.rows", 32),
                                         ("graph.num_gpes", 16)))
        assert a == b
        assert a.config_overrides == (("dense.rows", 32),
                                      ("graph.num_gpes", 16))

    def test_cache_keys_distinguish_candidates(self):
        from repro.sweep import cache_key

        base = SweepPoint(dataset="tiny", network="gcn",
                          metric=METRIC_DSE)
        cand = SweepPoint(dataset="tiny", network="gcn",
                          metric=METRIC_DSE,
                          config_overrides=(("dense.rows", 32),))
        assert cache_key(base.payload(), "v") \
            != cache_key(cand.payload(), "v")
        assert base.label != cand.label

    def test_payload_is_json_able(self):
        point = SweepPoint(dataset="tiny", network="gcn",
                           metric=METRIC_DSE,
                           config_overrides=(("dense.rows", 32),))
        json.dumps(point.payload())
        assert point.payload() == dataclasses.asdict(point)

    def test_degenerate_overrides_fail_at_plan_time(self):
        with pytest.raises(ConfigError):
            SweepPoint(dataset="tiny", network="gcn",
                       config_overrides=(("dram.bandwidth_bytes_per_s",
                                          0),))

    def test_overrides_restricted_to_gnnerator(self):
        with pytest.raises(SweepPlanError, match="gnnerator"):
            SweepPoint(dataset="tiny", network="gcn", platform="gpu",
                       config_overrides=(("dense.rows", 32),))
        with pytest.raises(SweepPlanError, match="gnnerator"):
            SweepPoint(dataset="tiny", network="gcn", platform="hygcn",
                       metric=METRIC_DSE)

    def test_dse_metric_bundles_all_objectives(self):
        from repro.eval.harness import Harness
        from repro.sweep.runner import evaluate_point

        point = SweepPoint(dataset="tiny", network="gcn",
                           metric=METRIC_DSE,
                           config_overrides=(("dense.rows", 32),))
        metrics = evaluate_point(point, Harness())
        for key in ("cycles", "seconds", "area_mm2", "energy_pj",
                    "avg_power_w", "edp_js", "total_dram_bytes"):
            assert key in metrics, key
        # 32x64 MACs + 1024 lanes + 30 MiB SRAM under the area model.
        assert metrics["area_mm2"] == pytest.approx(
            (32 * 64 + 1024) * 5e-4 + 30 * 0.4)


# ---------------------------------------------------------------------
# Engine + strategies
# ---------------------------------------------------------------------
class TestEngineSmoke:
    def test_grid_search_full_coverage(self):
        result = make_engine(GridSearch()).run()
        assert result.num_candidates == 12
        assert result.num_invalid == 0 and result.num_errors == 0
        assert result.frontier

    def test_frontier_is_feasible_and_undominated(self):
        from repro.dse.pareto import dominates

        result = make_engine(RandomSearch(samples=8, seed=1)).run()
        assert result.frontier
        evaluated = [e for e in result.evaluations if e.ok]
        for member in result.frontier:
            assert member.feasible
            assert member.objectives["area_mm2"] <= 20.0
            assert not any(dominates(other.vector(), member.vector())
                           for other in evaluated)

    def test_budget_marks_infeasible(self):
        result = make_engine(GridSearch(),
                             budget=Budget(area_mm2=10.0)).run()
        over = [e for e in result.evaluations
                if e.ok and not e.feasible]
        assert over, "a 10 mm^2 budget must exclude some designs"
        assert all("area" in v for e in over for v in e.violations)
        assert all(e.objectives["area_mm2"] <= 10.0
                   for e in result.frontier)

    def test_impossible_budget_empties_the_frontier(self):
        result = make_engine(GridSearch(),
                             budget=Budget(area_mm2=0.001)).run()
        assert result.frontier == []
        assert result.num_infeasible == result.num_candidates

    def test_duplicate_candidates_collapse(self):
        engine = make_engine(RandomSearch(samples=64, seed=0))
        result = engine.run()
        frozen = [e.overrides for e in result.evaluations]
        assert len(frozen) == len(set(frozen)) <= 12

    def test_one_generation_builds_each_candidate_config_once(
            self, monkeypatch):
        """The points of a candidate share one config: a generation
        over three workloads builds each distinct candidate once, not
        once per point and again to validate the candidate."""
        from repro.config import overrides

        builds = []
        apply = overrides.apply_overrides

        def counting(base, candidate):
            builds.append(freeze_overrides(candidate))
            return apply(base, candidate)

        monkeypatch.setattr(overrides, "apply_overrides", counting)
        overrides._built_config.cache_clear()
        workloads = [TINY_GCN, WorkloadSpec(dataset="tiny", network="gat"),
                     WorkloadSpec(dataset="tiny", network="gcn",
                                  hidden_dim=8)]
        engine = DseEngine(tiny_space(), RandomSearch(samples=6, seed=3),
                           workloads, SweepRunner(cache=NullCache()))
        evaluations = engine.evaluate(
            engine.strategy.initial(engine.space), set())
        assert len(evaluations) > 1 and all(e.ok for e in evaluations)
        assert sorted(builds) == sorted(e.overrides for e in evaluations)

    def test_empty_workloads_rejected(self):
        with pytest.raises(DseError, match="workload"):
            DseEngine(tiny_space(), GridSearch(), [],
                      SweepRunner(cache=NullCache()))

    def test_grid_cap_enforced(self):
        with pytest.raises(ConfigError, match="max-candidates"):
            make_engine(GridSearch(max_candidates=4)).run()

    def test_custom_space_base_shapes_the_evaluated_configs(self):
        """Candidates must be measured on the space's base, not the
        Table IV default (area reflects the base's 128-row array)."""
        base = gnnerator_config()
        big = dataclasses.replace(
            base, dense=dataclasses.replace(base.dense, rows=128))
        space = DesignSpace((Knob("graph.num_gpes", (16, 32)),), big)
        engine = DseEngine(space, GridSearch(), [TINY_GCN],
                           SweepRunner(cache=NullCache()))
        result = engine.run()
        default_area = (64 * 64 + 32 * 32) * 5e-4 + 30 * 0.4
        for evaluation in result.evaluations:
            assert evaluation.ok
            assert evaluation.objectives["area_mm2"] > default_area

    def test_engine_and_strategy_are_reusable(self):
        engine = make_engine(
            EvolutionarySearch(population=4, generations=3, seed=9))
        a = engine.run()
        b = engine.run()
        assert TestDeterminism.comparable(a) \
            == TestDeterminism.comparable(b)
        assert a.num_candidates > 4  # later generations actually ran

    def test_build_strategy_registry(self):
        assert build_strategy("grid").name == "grid"
        assert build_strategy("random").name == "random"
        assert build_strategy("evolutionary").name == "evolutionary"
        with pytest.raises(ConfigError, match="unknown strategy"):
            build_strategy("annealing")


class TestDeterminism:
    @staticmethod
    def comparable(result) -> dict:
        blob = result.to_dict()
        blob.pop("elapsed_s")
        blob.pop("cache")
        for entry in blob["evaluations"] + blob["frontier"]:
            entry.pop("cached")
        return blob

    @pytest.mark.parametrize("strategy_factory", [
        lambda: RandomSearch(samples=6, seed=11),
        lambda: EvolutionarySearch(population=4, generations=3, seed=11),
    ])
    def test_reruns_are_bit_identical(self, strategy_factory):
        a = make_engine(strategy_factory()).run()
        b = make_engine(strategy_factory()).run()
        assert self.comparable(a) == self.comparable(b)

    def test_jobs_levels_are_bit_identical(self):
        serial = make_engine(
            EvolutionarySearch(population=4, generations=2, seed=3)).run()
        parallel = make_engine(
            EvolutionarySearch(population=4, generations=2, seed=3),
            jobs=2).run()
        assert self.comparable(serial) == self.comparable(parallel)

    def test_seeds_change_the_search(self):
        a = make_engine(RandomSearch(samples=6, seed=0)).run()
        b = make_engine(RandomSearch(samples=6, seed=1)).run()
        assert [e.overrides for e in a.evaluations] \
            != [e.overrides for e in b.evaluations]


class TestCacheReuse:
    def test_warm_rerun_recomputes_nothing(self, tmp_path):
        cache_dir = tmp_path / "dse-cache"
        cold = make_engine(RandomSearch(samples=6, seed=2),
                           cache=ResultCache(cache_dir)).run()
        assert cold.cache_misses > 0
        warm = make_engine(RandomSearch(samples=6, seed=2),
                           cache=ResultCache(cache_dir)).run()
        assert warm.cache_misses == 0
        assert warm.cache_hits == cold.cache_misses
        assert all(e.cached for e in warm.evaluations if e.ok)
        assert TestDeterminism.comparable(warm) \
            == TestDeterminism.comparable(cold)

    def test_evolutionary_shares_cache_across_generations(self, tmp_path):
        """Children that revisit a parent's design are pure hits."""
        cache_dir = tmp_path / "dse-cache"
        engine = make_engine(
            EvolutionarySearch(population=4, generations=3, seed=5),
            cache=ResultCache(cache_dir))
        engine.run()
        warm = make_engine(
            EvolutionarySearch(population=4, generations=3, seed=5),
            cache=ResultCache(cache_dir)).run()
        assert warm.cache_misses == 0


class TestFig5Check:
    @pytest.fixture(scope="class")
    def checked(self):
        engine = make_engine(GridSearch(), budget=Budget())
        result = engine.run()
        engine.check_fig5(result)
        return result

    def test_references_present(self, checked):
        names = [c.name for c in checked.fig5]
        assert names == ["baseline", "more-graph-memory",
                         "more-dense-compute", "more-feature-bandwidth"]

    def test_reference_evaluations_are_ok(self, checked):
        assert all(c.evaluation.ok for c in checked.fig5)

    def test_dominators_really_dominate(self, checked):
        from repro.dse.pareto import dominates

        frontier = {e.label: e for e in checked.frontier}
        for check in checked.fig5:
            for label in check.dominated_by:
                assert dominates(frontier[label].vector(),
                                 check.evaluation.vector())

    def test_frontier_stays_undominated_by_references(self):
        """A reference design that beats a frontier member evicts it
        (the published-frontier invariant covers fig5 points too)."""
        from repro.dse.pareto import dominates

        engine = make_engine(RandomSearch(samples=10, seed=6),
                             budget=Budget())
        result = engine.run()
        engine.check_fig5(result)
        references = [c.evaluation for c in result.fig5
                      if c.evaluation.ok]
        for member in result.frontier:
            assert not any(dominates(ref.vector(), member.vector())
                           for ref in references)


# ---------------------------------------------------------------------
# Reports + CLI
# ---------------------------------------------------------------------
class TestReports:
    @pytest.fixture(scope="class")
    def result(self):
        engine = make_engine(RandomSearch(samples=6, seed=4))
        result = engine.run()
        engine.check_fig5(result)
        return result

    def test_render_mentions_frontier_and_fig5(self, result):
        text = render_dse(result)
        assert "Pareto frontier" in text
        assert "Fig 5" in text
        assert result.summary() in text

    def test_json_round_trips(self, result):
        blob = json.loads(result.to_json())
        assert blob["counts"]["candidates"] == result.num_candidates
        assert len(blob["frontier"]) == len(result.frontier)
        assert blob["objectives"] == ["cycles", "area_mm2", "energy_pj"]

    def test_csv_has_one_row_per_candidate(self, result):
        lines = dse_csv(result).strip().splitlines()
        assert len(lines) == 1 + result.num_candidates
        assert lines[0].startswith("label,status,feasible,on_frontier")


class TestCli:
    def test_dse_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["dse", "--strategy", "random", "--budget-area", "20",
             "--networks", "gcn", "--datasets", "tiny"])
        assert callable(args.handler)
        assert args.budget_area == 20.0

    def test_dse_runs_end_to_end(self, tmp_path, capsys):
        argv = ["dse", "--strategy", "random", "--samples", "5",
                "--budget-area", "20", "--networks", "gcn",
                "--datasets", "tiny", "--space", "small",
                "--cache-dir", str(tmp_path / "cache"),
                "--format", "json"]
        assert main(argv) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["frontier"]
        assert all(e["objectives"]["area_mm2"] <= 20.0
                   for e in blob["frontier"])
        # Warm rerun: zero recomputed points, identical frontier.
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"]["misses"] == 0
        assert [e["objectives"] for e in warm["frontier"]] \
            == [e["objectives"] for e in blob["frontier"]]

    def test_dse_knob_flag_restricts_the_space(self, capsys):
        argv = ["dse", "--strategy", "grid", "--space", "small",
                "--knob", "dense.rows=32", "--knob", "dense.cols=32",
                "--knob", "graph.num_gpes=16",
                "--knob", "dram.bandwidth_bytes_per_s=256e9",
                "--datasets", "tiny", "--no-cache", "--format", "json"]
        assert main(argv) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["counts"]["candidates"] == 1

    def test_dse_exit_code_on_empty_frontier(self, capsys):
        argv = ["dse", "--strategy", "random", "--samples", "3",
                "--datasets", "tiny", "--no-cache",
                "--budget-area", "0.001"]
        assert main(argv) == 1

    def test_configs_shows_derived_models(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "Derived models" in out
        assert "pJ/MAC" in out and "W TDP" in out
