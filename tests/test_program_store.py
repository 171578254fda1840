"""Tests for the persistent compiled-program store and incremental
recompilation (DESIGN.md §6).

Mirrors the ResultCache suite's durability idioms (truncated and
corrupt entries are misses that heal, source edits rotate the key)
and pins the two tentpole guarantees: a warm store means *zero* full
lowerings across fresh harnesses/processes with byte-identical cycles,
and a DSE sweep whose candidates differ mostly in simulate-only knobs
compiles only once per compile-relevant config projection.
"""

from __future__ import annotations

import os
import pickle
import pickletools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.accelerator import GNNerator
from repro.analysis.verify import VerificationError, verify_program
from repro.compiler import program as program_module
from repro.compiler.lowering import (
    COST_FIELDS,
    STRUCTURE_FIELDS,
    compile_workload,
    fill_costs,
    full_lowering_count,
    program_projection,
    resolve_geometry,
)
from repro.compiler.runtime import run_functional
from repro.compiler.store import (
    PROGRAM_CACHE_ENV,
    ProgramStore,
    _encode,
    default_program_store,
    program_key_payload,
)
from repro.config.accelerator import GNNeratorConfig
from repro.config.overrides import apply_overrides
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph import datasets as dataset_registry
from repro.graph.datasets import dataset_fingerprint
from repro.graph.graph import Graph
from repro.graph.partition import (
    _GRID_CACHE_MAX_ENTRIES,
    ShardGrid,
    shard_grid,
)
from repro.obs.spans import tracing
from repro.sweep import NullCache, SweepRunner
from repro.sweep.plan import METRIC_DSE, SweepPlan, SweepPoint
from repro.sweep.runner import ProcessPoolScheduler, run_point

TINY_GCN = WorkloadSpec(dataset="tiny", network="gcn", hidden_dim=16)
TINY_GAT = WorkloadSpec(dataset="tiny", network="gat", hidden_dim=16)


class SubclassedGraph(Graph):
    """A Graph subclass (module-level, so pickle could take it by value)."""


def fresh_harness(store) -> Harness:
    """A harness modelling a brand-new process: even the dataset memo
    is cold, so its Graph objects (and the per-graph compiler memos
    hanging off them) are fresh."""
    dataset_registry._synthesize.cache_clear()
    return Harness(program_store=store)


def store_key(store: ProgramStore, harness: Harness,
              spec: WorkloadSpec) -> str:
    config = harness._config(spec, None)
    return store.key(program_key_payload(
        dataset_fingerprint=dataset_fingerprint(spec.dataset),
        network=spec.network, hidden_dim=spec.hidden_dim,
        traversal=spec.traversal, feature_block=config.feature_block,
        config_projection=program_projection(config)))


class TestProgramStore:
    def test_warm_store_skips_compile_same_cycles(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        cold = fresh_harness(store)
        result_cold = cold.gnnerator_result(TINY_GCN)
        # A cold compile misses the program key and the structure name.
        assert store.stats == {"hits": 0, "misses": 1,
                               "structure_hits": 0, "structure_misses": 1}
        assert len(store) == 1  # one program, named twice

        lowerings = full_lowering_count()
        warm = fresh_harness(store)
        result_warm = warm.gnnerator_result(TINY_GCN)
        assert full_lowering_count() == lowerings  # zero recompiles
        assert store.stats == {"hits": 1, "misses": 1,
                               "structure_hits": 0, "structure_misses": 1}
        assert result_warm.cycles == result_cold.cycles
        assert result_warm.seconds == result_cold.seconds

    def test_warm_store_compile_probes_nothing(self, tmp_path,
                                               monkeypatch):
        """A fresh process's compile asks the store by program key
        before it resolves a geometry: a hit opens no ``geometry`` span
        and probes no interval of the graph (10-15 ms per flickr
        workload on a graph whose probe memo is cold)."""
        from repro.graph import partition

        store = ProgramStore(tmp_path, code_version="v1")
        spec = WorkloadSpec(dataset="cora", network="gcn")
        fresh_harness(store).gnnerator_program(spec)
        probes = []
        probe = partition._max_cell_edges
        monkeypatch.setattr(partition, "_max_cell_edges",
                            lambda *args: probes.append(args) or probe(*args))
        harness = fresh_harness(store)  # a cold probe memo
        with tracing() as tracer:
            harness.gnnerator_program(spec)
        assert harness.last_compile_tier() == "store"
        assert "geometry" not in {r.name for r in tracer.spans}
        assert probes == []
        # Resolving the geometry would have probed.
        harness._geometry(spec, harness._config(spec, None),
                          harness.graph(spec.dataset))
        assert probes

    def test_one_entry_serves_every_seed(self, tmp_path):
        """A program holds no values, so its key has no parameter seed:
        a harness under another seed reads the first one's entry."""
        store = ProgramStore(tmp_path, code_version="v1")
        dataset_registry._synthesize.cache_clear()
        first = Harness(seed=0, program_store=store).gnnerator_result(
            TINY_GAT)
        lowerings = full_lowering_count()
        dataset_registry._synthesize.cache_clear()
        second = Harness(seed=1, program_store=store).gnnerator_result(
            TINY_GAT)
        assert full_lowering_count() == lowerings  # zero recompiles
        assert store.stats == {"hits": 1, "misses": 1,
                               "structure_hits": 0, "structure_misses": 1}
        assert second.cycles == first.cycles

    def test_truncated_entry_is_miss_that_heals(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        first = fresh_harness(store)
        result = first.gnnerator_result(TINY_GCN)
        key = store_key(store, first, TINY_GCN)
        path = store._path(key)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])  # killed mid-write

        second = fresh_harness(store)
        healed = second.gnnerator_result(TINY_GCN)
        assert healed.cycles == result.cycles
        assert store.stats["misses"] == 2  # cold miss + truncated miss
        # The recompile republished a complete entry.
        third = fresh_harness(store)
        assert third.gnnerator_result(TINY_GCN).cycles == result.cycles
        assert store.stats["hits"] == 1

    def test_corrupt_entry_is_dropped(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        harness.gnnerator_program(TINY_GCN)
        key = store_key(store, harness, TINY_GCN)
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.get(key, harness.graph("tiny")) is None
        assert not path.exists()

    def test_get_tolerates_concurrent_removal(self, tmp_path,
                                              monkeypatch):
        """The sibling worker already unlinked the corrupt entry: our
        ``os.remove`` fails, which must still read as a plain miss."""
        import repro.compiler.store as store_module

        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        harness.gnnerator_program(TINY_GCN)
        key = store_key(store, harness, TINY_GCN)
        store._path(key).write_bytes(b"garbage")

        real_remove = os.remove

        def racing_remove(target):
            real_remove(target)
            real_remove(target)  # second unlink raises FileNotFoundError

        monkeypatch.setattr(store_module.os, "remove", racing_remove)
        assert store.get(key, harness.graph("tiny")) is None

    def test_concurrent_writers_last_wins_readable(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        program = harness.gnnerator_program(TINY_GCN)
        graph = harness.graph("tiny")
        key = store_key(store, harness, TINY_GCN)
        errors = []

        def writer():
            try:
                for _ in range(5):
                    assert store.put(key, program, graph)
                    store.get(key, graph)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = store.get(key, graph)
        assert loaded is not None
        assert loaded.num_operations == program.num_operations
        # No temp-file litter survives the stampede.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_compiler_source_edit_changes_key(self, tmp_path):
        code = tmp_path / "code"
        code.mkdir()
        module = code / "module.py"
        module.write_text("VALUE = 1\n")
        first = ProgramStore(tmp_path / "store", code_root=code)
        module.write_text("VALUE = 2\n")
        second = ProgramStore(tmp_path / "store", code_root=code)
        assert first.code_version != second.code_version
        payload = program_key_payload(
            dataset_fingerprint="fp", network="gcn", hidden_dim=16,
            traversal="dst", feature_block=64,
            config_projection=program_projection(gnnerator_config()))
        assert first.key(payload) != second.key(payload)

    def test_key_ignores_simulate_only_knobs(self):
        store = ProgramStore("unused", code_version="v1")
        base = gnnerator_config(feature_block=64)
        dram_only = apply_overrides(base, {
            "dram.bandwidth_bytes_per_s": 512e9,
            "dram.burst_latency_cycles": 7,
            "graph.frequency_ghz": 1.7,
        })
        compute = apply_overrides(base, {"graph.num_gpes": 16})

        def key_for(config):
            return store.key(program_key_payload(
                dataset_fingerprint="fp", network="gcn", hidden_dim=16,
                traversal="dst", feature_block=64,
                config_projection=program_projection(config)))

        assert key_for(base) == key_for(dram_only)
        assert key_for(base) != key_for(compute)

    def test_put_failure_leaves_no_partial_file(self, tmp_path,
                                                monkeypatch):
        import repro.compiler.store as store_module

        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(None)
        program = harness.gnnerator_program(TINY_GCN)
        graph = harness.graph("tiny")
        monkeypatch.setattr(store_module.os, "replace",
                            lambda *a: (_ for _ in ()).throw(OSError()))
        assert store.put("ab" * 32, program, graph) is False
        assert len(store) == 0
        assert not list(tmp_path.rglob("*.tmp"))

    def test_put_of_a_present_entry_links_its_name(self, tmp_path,
                                                   monkeypatch):
        """A put of a present entry keeps it (same inode, nothing
        re-encoded) and still links the structure name it is given."""
        import repro.compiler.store as store_module

        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(None)
        program = harness.gnnerator_program(TINY_GCN)
        graph = harness.graph("tiny")
        assert store.put("ab" * 32, program, graph)
        entry = store._path("ab" * 32)
        inode = entry.stat().st_ino

        def encode(*args):
            pytest.fail("a present entry was encoded again")

        monkeypatch.setattr(store_module, "_encode", encode)
        assert store.put("ab" * 32, program, graph, structure="cd" * 32)
        assert entry.stat().st_ino == inode
        assert os.path.samefile(store._path("cd" * 32, "structure"), entry)

    @pytest.mark.parametrize("foreign", ["other-dataset", "same-named-copy",
                                         "subclass-instance"])
    def test_refuses_to_cache_foreign_graph(self, tmp_path, foreign):
        """A program whose graph is not the very object it is keyed
        under must never be persisted — it would deserialize against
        the wrong graph. Neither an equal-named copy nor an instance of
        a Graph subclass passes for the keyed graph."""
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(None)
        graph = harness.graph("tiny")
        program = harness.gnnerator_program(TINY_GCN)
        if foreign == "other-dataset":
            keyed = harness.graph("cora")
        elif foreign == "same-named-copy":
            keyed = Graph(graph.num_nodes, graph.src, graph.dst,
                          name=graph.name)
        else:
            keyed = graph
            subgraph = SubclassedGraph(graph.num_nodes, graph.src,
                                       graph.dst, features=graph.features,
                                       name=graph.name)
            config = gnnerator_config(
                feature_block=TINY_GCN.feature_block)
            program = GNNerator(config).compile(
                subgraph, harness.model(TINY_GCN))
        assert store.put("cd" * 32, program, keyed) is False
        assert len(store) == 0
        assert not list(tmp_path.rglob("*.tmp"))

    def test_env_var_controls_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        store = default_program_store()
        assert store is not None and store.root == tmp_path / "ps"
        assert Harness().program_store.root == tmp_path / "ps"
        for off in ("", "0", "off", "none", " OFF "):
            monkeypatch.setenv(PROGRAM_CACHE_ENV, off)
            assert default_program_store() is None
        monkeypatch.setenv(PROGRAM_CACHE_ENV, "off")
        assert Harness().program_store is None


def _ancestor_names(tracer, record) -> list[str]:
    """Names of ``record``'s enclosing spans, innermost first."""
    by_uid = {span.uid: span for span in tracer.spans}
    names = []
    while record.parent in by_uid:
        record = by_uid[record.parent]
        names.append(record.name)
    return names


class TestGridsByReference:
    """A stored program names each shard grid by (graph, interval
    size): loading it yields the graph's memoized grids, and nothing
    sorts until something reads a grid's edges. Verification reads
    every grid, so these tests switch it off."""

    @pytest.fixture(autouse=True)
    def _no_verify(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")

    def test_store_hit_shares_the_memoized_grid(self, tmp_path):
        """Regression: a program loaded into a process whose graph
        memo already holds its intervals must use the memo's grids,
        not a second copy of the |E|-sized arrays and per-shard
        caches."""
        store = ProgramStore(tmp_path, code_version="v1")
        fresh_harness(store).gnnerator_program(TINY_GAT)
        reader = Harness(program_store=store)  # same process and graph
        program = reader.gnnerator_program(TINY_GAT)
        assert reader.last_compile_tier() == "store"
        graph = reader.graph("tiny")
        assert program.grids
        for grid in program.grids.values():
            assert grid is shard_grid(graph, grid.interval_size)

    def test_loaded_grids_hold_no_sort_until_first_use(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        fresh_harness(store).gnnerator_program(TINY_GAT)
        reader = fresh_harness(store)
        program = reader.gnnerator_program(TINY_GAT)
        assert reader.last_compile_tier() == "store"
        grids = list(program.grids.values())
        assert grids
        for grid in grids:
            assert "_order" not in grid.__dict__
            assert grid.grid_side == grid.num_intervals == len(
                grid.intervals)
            assert not grid.built
        # The first read sorts, to exactly what a fresh build holds.
        grid = grids[0]
        fresh = ShardGrid(reader.graph("tiny"), grid.interval_size)
        np.testing.assert_array_equal(grid._order, fresh._order)
        assert grid.built

    def test_store_hit_then_simulate_builds_no_grid(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        expected = fresh_harness(store).gnnerator_result(TINY_GAT).cycles
        reader = fresh_harness(store)
        with tracing() as tracer:
            result = reader.gnnerator_result(TINY_GAT)
        assert reader.last_compile_tier() == "store"
        assert result.cycles == expected
        names = [record.name for record in tracer.spans]
        assert "store-get" in names
        assert "plan-shards" not in names
        program = reader.gnnerator_program(TINY_GAT)
        assert not any(grid.built for grid in program.grids.values())

    def test_store_hit_then_recost_sorts_each_interval_once(self,
                                                            tmp_path):
        """A re-cost reads the stored shard loads: a cost variant of a
        store hit sorts no grid. A GPE count with no stored loads (48)
        sorts each interval once to count them, under its re-cost, and
        counts each grid once: another variant at 48 GPEs counts none.
        """
        store = ProgramStore(tmp_path, code_version="v1")
        # 1 KiB scratchpads give the 32- and 16-wide aggregate stages
        # intervals of their own.
        base = apply_overrides(
            gnnerator_config(feature_block=TINY_GCN.feature_block),
            {"graph.src_feature_buffer_bytes": 1024,
             "graph.dst_feature_buffer_bytes": 1024})
        fresh_harness(store).gnnerator_program(TINY_GCN, base)
        reader = fresh_harness(store)
        program = reader.gnnerator_program(TINY_GCN, base)
        intervals = sorted({grid.interval_size
                            for grid in program.grids.values()})
        assert len(intervals) == 2
        variant = apply_overrides(base, {"graph.num_gpes": 16,
                                         "dense.rows": 128})
        with tracing() as tracer:
            reader.gnnerator_program(TINY_GCN, variant)
        assert reader.last_compile_tier() == "recost"
        assert "recost" in {record.name for record in tracer.spans}
        assert "plan-shards" not in {record.name for record in tracer.spans}
        assert not any(grid.built for grid in program.grids.values())

        odd = apply_overrides(base, {"graph.num_gpes": 48})
        with tracing() as tracer:
            reader.gnnerator_program(TINY_GCN, odd)
        assert reader.last_compile_tier() == "recost"
        builds = [record for record in tracer.spans
                  if record.name == "plan-shards"]
        assert sorted(record.attrs["interval"]
                      for record in builds) == intervals
        assert all("recost" in _ancestor_names(tracer, record)
                   for record in builds)
        counted = {grid: grid._gpe_loads[48]
                   for grid in program.grids.values()}
        reader.gnnerator_program(TINY_GCN, apply_overrides(
            odd, {"graph.simd_width": 64}))
        assert reader.last_compile_tier() == "recost"
        assert all(grid._gpe_loads[48] is loads
                   for grid, loads in counted.items())


class TestLazyOps:
    """A stored program's ops stay one checked, undecoded blob until an
    op walker reads them; every timing path reads arrays instead."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        """The op blobs decoded while the test runs: the holder's
        ``__getattr__`` is reached only to decode."""
        blobs = []
        decode = program_module._Ops.__getattr__

        def counted(ops, name):
            blobs.append(ops.blob)
            return decode(ops, name)

        monkeypatch.setattr(program_module._Ops, "__getattr__", counted)
        return blobs

    def test_timing_paths_decode_no_op(self, tmp_path, monkeypatch,
                                       decodes):
        """A store hit, its re-costs, a structure-name hit, their
        simulations and the energy model (the DSE metrics) decode no op
        and sort no grid."""
        monkeypatch.setenv("REPRO_VERIFY", "0")
        store = ProgramStore(tmp_path, code_version="v1")
        expected = fresh_harness(store).gnnerator_dse_metrics(TINY_GAT)
        reader = fresh_harness(store)
        base = reader._config(TINY_GAT, None)
        variants = [apply_overrides(base, {"graph.num_gpes": gpes,
                                           "graph.simd_width": simd})
                    for gpes in (16, 64) for simd in (16, 64)]
        with tracing() as tracer:
            assert reader.gnnerator_dse_metrics(TINY_GAT) == expected
            assert reader.last_compile_tier() == "store"
            recosts = []
            for variant in variants:
                recosts.append(reader.gnnerator_dse_metrics(TINY_GAT,
                                                            variant))
                assert reader.last_compile_tier() == "recost"
                assert recosts[-1]["num_operations"] == \
                    expected["num_operations"]
            # A new process asks for a variant first: the program key
            # misses and the structure name hits.
            named = fresh_harness(store)
            assert named.gnnerator_dse_metrics(TINY_GAT, variants[0]) \
                == recosts[0]
            assert named.last_compile_tier() == "store"
            assert store.stats["structure_hits"] == 1
        assert decodes == []
        assert "plan-shards" not in {record.name for record in tracer.spans}

    def test_op_walkers_decode_once(self, tmp_path, monkeypatch, decodes):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        store = ProgramStore(tmp_path, code_version="v1")
        fresh_harness(store).gnnerator_program(TINY_GCN)
        reader = fresh_harness(store)
        program = reader.gnnerator_program(TINY_GCN)
        assert decodes == []
        assert verify_program(program, reader._config(TINY_GCN, None)).ok
        run_functional(program, reader.graph("tiny"),
                       reader.params(TINY_GCN))
        assert len(decodes) == 1
        assert program.num_operations == len(program.order)

    def test_racing_first_reads_share_one_set_of_ops(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        harness.gnnerator_program(TINY_GAT)
        program = store.get(store_key(store, harness, TINY_GAT),
                            harness.graph("tiny"))
        barrier = threading.Barrier(8)

        def first_read(index: int):
            barrier.wait(10.0)
            if index % 2:
                return program.queues, program.order
            order = program.order
            return program.queues, order

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                reads = list(pool.map(first_read, range(8)))
        finally:
            sys.setswitchinterval(interval)
        queues, order = reads[0]
        assert all(q is queues and o is order for q, o in reads)
        in_order = {id(op) for op in order}
        assert all(id(op) in in_order
                   for ops in queues.values() for op in ops)
        assert sum(map(len, queues.values())) == len(order)

    @staticmethod
    def _flip_a_byte_of(tmp_path, part) -> None:
        """Flip a byte in the middle of ``part(program)``'s bytes inside
        a stored entry: the get is a miss that removes the entry."""
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        harness.gnnerator_program(TINY_GCN)
        key = store_key(store, harness, TINY_GCN)
        graph = harness.graph("tiny")
        target = part(store.get(key, graph))
        path = store._path(key)
        data = bytearray(path.read_bytes())
        assert data.count(target) == 1
        data[data.find(target) + len(target) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.get(key, graph) is None
        assert not path.exists()
        assert store.stats["misses"] == 2  # the cold miss, then the flip

    def test_flipped_blob_byte_is_a_miss_that_removes_it(self, tmp_path):
        self._flip_a_byte_of(tmp_path, lambda program: program._ops.blob)

    def test_flipped_shard_load_byte_is_a_miss_that_removes_it(
            self, tmp_path):
        """The shard loads are raw int32 bytes that unpickle whatever
        their value; the entry's CRC-32 keeps a flip there from
        re-costing to wrong cycles."""
        self._flip_a_byte_of(
            tmp_path, lambda program: program.cost_inputs["shards"].tobytes())


def _pickled_names_and_buffers(data: bytes) -> tuple[set[str], list[int]]:
    """Every string a pickle holds (so every name of a global it
    references) and the length of every byte buffer (an array's data,
    a nested pickle) in it."""
    names: set[str] = set()
    buffers: list[int] = []
    for _, arg, _ in pickletools.genops(data):
        if isinstance(arg, str):
            names.update(arg.split())  # GLOBAL's arg is "module name"
        elif isinstance(arg, (bytes, bytearray)):
            buffers.append(len(arg))
    return names, buffers


class TestEntryFormat:
    def test_entry_pickles_no_graph_grid_or_edge_array(self, tmp_path):
        """An entry names its grids by interval size alone: neither it
        nor its nested ops pickle references a Graph, a ShardGrid or
        the grid memo, and no buffer in them holds an int32 per edge.
        This is the only guard against a stray graph in an entry."""
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(None)
        graph = harness.graph("tiny")
        program = harness.gnnerator_program(TINY_GAT)
        assert program.grids
        key = "ab" * 32
        assert store.put(key, program, graph)
        body = store._path(key).read_bytes()[:-4]
        blob = pickle.loads(body)[0]._ops.blob
        names, buffers = _pickled_names_and_buffers(body)
        buffers.remove(len(blob))  # the nested ops pickle
        blob_names, blob_buffers = _pickled_names_and_buffers(blob)
        assert not (names | blob_names) & {"Graph", "ShardGrid",
                                           "memoize_grid"}
        assert max(buffers + blob_buffers) < 4 * graph.num_edges
        # The walk does see a grid, its graph and the graph's edges.
        names, buffers = _pickled_names_and_buffers(pickle.dumps(
            next(iter(program.grids.values())), protocol=5))
        assert {"Graph", "ShardGrid"} <= names
        assert max(buffers) >= 4 * graph.num_edges

    def test_entry_needs_the_callers_graph(self, tmp_path):
        """An entry holds no graph: a plain unpickle of it gives the
        program without grids and each grid's interval size, and the
        store refuses to load it against a differently named graph (a
        miss that removes it, never a program over the wrong
        dataset)."""
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(None)
        graph = harness.graph("tiny")
        program = harness.gnnerator_program(TINY_GCN)
        key = "ef" * 32
        assert store.put(key, program, graph)
        path = store._path(key)
        loaded, intervals = pickle.loads(path.read_bytes()[:-4])
        assert loaded.grids == {}
        assert intervals == {stage: grid.interval_size
                             for stage, grid in program.grids.items()}
        renamed = Graph(graph.num_nodes, graph.src, graph.dst,
                        name="not-tiny")
        assert store.get(key, renamed) is None
        assert not path.exists()
        assert store.stats == {"hits": 0, "misses": 1,
                               "structure_hits": 0, "structure_misses": 0}

    def test_store_loads_respect_grid_memo_bound(self, tmp_path):
        """Grids that come with stored programs enter the graph's grid
        memo through plan_shards' own locked, FIFO-bounded insert: many
        distinct-interval programs never pin more than the bound."""
        store = ProgramStore(tmp_path, code_version="v1")
        base = gnnerator_config(feature_block=TINY_GCN.feature_block)
        # Scratchpads of 1 KiB + 256 B steps: each buffer size gives
        # the 32- and 16-wide aggregate stages their own intervals.
        configs = [apply_overrides(base, {
            "graph.src_feature_buffer_bytes": 1024 + 256 * step,
            "graph.dst_feature_buffer_bytes": 1024 + 256 * step})
            for step in range(12)]
        writer = fresh_harness(store)
        for config in configs:
            writer.gnnerator_program(TINY_GCN, config)
        reader = fresh_harness(store)
        intervals = set()
        for config in configs:
            program = reader.gnnerator_program(TINY_GCN, config)
            intervals |= {grid.interval_size
                          for grid in program.grids.values()}
        assert store.stats["hits"] == len(configs)
        assert len(intervals) > _GRID_CACHE_MAX_ENTRIES
        memo = reader.graph("tiny")._shard_grid_cache
        assert len(memo) <= _GRID_CACHE_MAX_ENTRIES

    def test_get_and_put_are_spans(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        with tracing() as tracer:
            fresh_harness(store).gnnerator_program(TINY_GCN)
            fresh_harness(store).gnnerator_program(TINY_GCN)
        names = [record.name for record in tracer.spans]
        assert names.count("store-put") == 1
        # The program-key miss and the structure-name miss, then the hit.
        assert names.count("store-get") == 3
        assert [record.attrs["structure"] for record in tracer.spans
                if record.name == "store-get"] == [False, True, False]
        assert "plan-shards" in names


class TestHarnessIncrementalKeying:
    def test_dram_only_variants_share_one_program(self):
        harness = fresh_harness(None)
        base = gnnerator_config(feature_block=TINY_GCN.feature_block)
        before = full_lowering_count()
        p_base = harness.gnnerator_program(TINY_GCN, base)
        variant = apply_overrides(base, {
            "dram.bandwidth_bytes_per_s": 512e9,
            "dram.burst_latency_cycles": 7,
        })
        p_variant = harness.gnnerator_program(TINY_GCN, variant)
        assert p_base is p_variant
        assert full_lowering_count() - before == 1
        # ...and the shared program still simulates each DRAM config
        # with its own coalesced chains.
        r_base = harness.gnnerator_result(TINY_GCN, base)
        r_variant = harness.gnnerator_result(TINY_GCN, variant)
        assert r_base.cycles != r_variant.cycles

    #: Two values for every field of the config and of its sections,
    #: away from Table IV (sparsity elimination has one other value).
    #: Where a pass reads a field, at least one of its values moves
    #: what that pass yields for some workload.
    FIELD_VALUES = {
        "name": ("renamed", "other"),
        "feature_block": (32, 128),
        "sparsity_elimination": (True,),
        "dense.rows": (48, 96),
        "dense.cols": (32, 128),
        "dense.input_buffer_bytes": (256 * 1024, 8 * 1024 * 1024),
        "dense.weight_buffer_bytes": (64 * 1024, 8 * 1024 * 1024),
        "dense.output_buffer_bytes": (64 * 1024, 8 * 1024 * 1024),
        "dense.dataflow": ("ws", "os"),
        "dense.frequency_ghz": (0.5, 2.0),
        "graph.num_gpes": (16, 64),
        "graph.simd_width": (16, 64),
        "graph.src_feature_buffer_bytes": (1024 * 1024, 32 * 1024 * 1024),
        "graph.dst_feature_buffer_bytes": (1024 * 1024, 32 * 1024 * 1024),
        "graph.edge_buffer_bytes": (64 * 1024, 8 * 1024 * 1024),
        "graph.frequency_ghz": (0.5, 2.0),
        "graph.pipeline_depth": (0, 8),
        "dram.bandwidth_bytes_per_s": (128e9, 512e9),
        "dram.burst_latency_cycles": (50, 200),
        "dram.frequency_ghz": (0.5, 2.0),
    }
    WORKLOADS = [WorkloadSpec(dataset=dataset, network=network)
                 for dataset in ("cora", "pubmed")
                 for network in ("gcn", "gat")]

    @staticmethod
    def with_field(config, path, value):
        """``config`` with the field at dotted ``path`` set to ``value``."""
        import dataclasses

        if "." not in path:
            return dataclasses.replace(config, **{path: value})
        section, name = path.split(".")
        return dataclasses.replace(config, **{section: dataclasses.replace(
            getattr(config, section), **{name: value})})

    def variants(self, base):
        """``(path, config)`` for every field at each of its values."""
        return [(path, self.with_field(base, path, value))
                for path, values in self.FIELD_VALUES.items()
                for value in values]

    def test_field_values_cover_every_config_field(self):
        """A new config field fails here until it gets values, and then
        the tests below until the pass that reads it declares it."""
        import dataclasses

        base = GNNeratorConfig()
        paths = set()
        for f in dataclasses.fields(base):
            value = getattr(base, f.name)
            if dataclasses.is_dataclass(value):
                paths |= {f"{f.name}.{g.name}"
                          for g in dataclasses.fields(value)}
            else:
                paths.add(f.name)
        assert set(self.FIELD_VALUES) == paths
        assert set(STRUCTURE_FIELDS) | set(COST_FIELDS) < paths

    def test_geometry_memo_key_is_complete(self):
        """The harness's geometry memo (keyed by the structure-pass
        fields) returns what a fresh ``resolve_geometry`` does for
        every field at two values, on cora and pubmed x gcn and gat.
        Each structure-pass field moves some workload's geometry, so a
        key without it would re-cost the wrong structure; every other
        field hits the memo and moves no geometry."""
        moved = set()
        for spec in self.WORKLOADS:
            harness = fresh_harness(None)
            graph, model = harness.graph(spec.dataset), harness.model(spec)
            base = harness._config(spec, None)
            expected = harness._geometry(spec, base, graph)
            for path, config in self.variants(base):
                with tracing() as tracer:
                    memoized = harness._geometry(spec, config, graph)
                fresh = resolve_geometry(graph, model, config,
                                         spec.traversal,
                                         config.feature_block)
                assert memoized == fresh, (spec, path)
                if path not in STRUCTURE_FIELDS:
                    assert [r.name for r in tracer.spans] == [], (spec, path)
                    assert fresh == expected, (spec, path)
                elif fresh != expected:
                    moved.add(path)
        assert moved == set(STRUCTURE_FIELDS)

    def test_only_declared_fields_reach_a_program(self):
        """Each cost-pass field moves some workload's cost lists, and
        every field neither pass declares, at two values, compiles to
        the base config's op queues, cost inputs and cost lists."""
        declared = set(STRUCTURE_FIELDS) | set(COST_FIELDS)
        moved = set()
        for spec in self.WORKLOADS:
            harness = fresh_harness(None)
            graph, model = harness.graph(spec.dataset), harness.model(spec)
            base = harness._config(spec, None)
            program = compile_workload(graph, model, base)
            for path, config in self.variants(base):
                if path in COST_FIELDS:
                    if fill_costs(program, config) != program.costs:
                        moved.add(path)
                elif path not in declared:
                    other = compile_workload(graph, model, config)
                    assert other.queues == program.queues, (spec, path)
                    assert other.costs == program.costs, (spec, path)
                    assert other.cost_inputs.keys() \
                        == program.cost_inputs.keys()
                    for unit, inputs in program.cost_inputs.items():
                        assert np.array_equal(other.cost_inputs[unit],
                                              inputs), (spec, path, unit)
        assert moved == set(COST_FIELDS)

    def test_cache_stats_shape(self, tmp_path):
        store = ProgramStore(tmp_path, code_version="v1")
        harness = fresh_harness(store)
        harness.gnnerator_program(TINY_GCN)
        harness.gnnerator_program(TINY_GCN)
        stats = harness.cache_stats()
        assert stats["memo"] == {"hits": 1, "misses": 1}
        assert stats["store"]["misses"] == 1
        assert stats["store"]["root"] == str(tmp_path)
        assert "store" not in fresh_harness(None).cache_stats()


class TestSweepAndDseIntegration:
    def test_jobs_4_workers_share_store_race_safely(self, tmp_path,
                                                    monkeypatch):
        """Eight points sharing one compile key under 4 spawned
        workers: every worker may compile and publish concurrently;
        the run must succeed and leave a healthy, warm store."""
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        points = tuple(
            SweepPoint(dataset="tiny", network="gcn", metric=METRIC_DSE,
                       config_overrides=(
                           ("dram.bandwidth_bytes_per_s", bw),))
            for bw in (64e9, 128e9, 192e9, 256e9,
                       320e9, 384e9, 448e9, 512e9))
        result = SweepRunner(jobs=4, cache=NullCache()).run(
            SweepPlan("store-race", points))
        assert result.ok
        cycles = [result.metrics_for(p)["cycles"] for p in points]
        assert len(set(cycles)) > 1  # DRAM knobs did change timing
        store = ProgramStore(tmp_path / "ps")
        assert len(store) == 1  # one compile-relevant projection
        warm = fresh_harness(store)
        warm.gnnerator_program(
            TINY_GCN, gnnerator_config(
                feature_block=TINY_GCN.feature_block))
        assert store.stats == {"hits": 1, "misses": 0,
                               "structure_hits": 0, "structure_misses": 0}

    def test_dse_200_candidates_at_most_10_lowerings(self, tmp_path,
                                                     monkeypatch):
        """Incremental recompilation: a 200-candidate tiny-gcn grid
        whose knobs are simulate-only or compute-only lowers once. Its
        2 x 2 compile-relevant projections share one geometry, so three
        of them are re-costs of the first."""
        from repro.dse import Budget, DseEngine, build_strategy
        from repro.dse.space import DesignSpace, Knob

        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        space = DesignSpace((
            Knob("dram.bandwidth_bytes_per_s",
                 (128e9, 192e9, 256e9, 384e9, 512e9)),
            Knob("dram.burst_latency_cycles", (25, 50, 100, 200, 400)),
            Knob("dense.rows", (32, 64)),
            Knob("graph.num_gpes", (16, 32)),
            Knob("graph.frequency_ghz", (1.0, 2.0)),
        ))
        assert space.size == 200
        engine = DseEngine(space, build_strategy("grid"), [TINY_GCN],
                           SweepRunner(jobs=1, cache=NullCache()),
                           budget=Budget(), seed=0)
        before = full_lowering_count()
        result = engine.run()
        lowerings = full_lowering_count() - before
        assert len(result.evaluations) == 200
        assert all(e.ok for e in result.evaluations)
        assert result.frontier
        assert lowerings == 1  # one per geometry


#: One default-store harness per pool worker process (forked workers
#: start with it empty, like the sweep runner's own).
_POOL_HARNESSES: dict[int, Harness] = {}


def _lowerings_per_point(point: SweepPoint) -> tuple[bool, int, int]:
    """Pool ``worker_fn``: evaluate ``point`` on this worker's harness;
    returns (ok, cycles, full lowerings it ran)."""
    harness = _POOL_HARNESSES.get(0)
    if harness is None:
        harness = _POOL_HARNESSES[0] = Harness()
    before = full_lowering_count()
    result = run_point(point, harness)
    return (result.ok, result.metrics.get("cycles", 0),
            full_lowering_count() - before)


class TestStructureNames:
    """A lowered program is also named by its structure, so a process
    whose memos never saw a geometry loads a stored program of it and
    re-costs it instead of lowering."""

    BASE = gnnerator_config(feature_block=TINY_GCN.feature_block)

    def test_forked_workers_load_stored_structures(self, tmp_path,
                                                   monkeypatch):
        """Two pool batches on one store, each forking fresh workers
        with empty memos: the second batch holds only cost and buffer
        variants of the first's structures, and lowers nothing."""
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        variants = [("graph.num_gpes", 16), ("graph.simd_width", 64),
                    ("dense.rows", 32),
                    ("graph.src_feature_buffer_bytes", 23068672),
                    ("graph.edge_buffer_bytes", 4194304),
                    ("dense.weight_buffer_bytes", 4194304)]
        networks = ("gcn", "gat")
        harness = Harness(program_store=None)
        for network in networks:
            spec = WorkloadSpec(dataset="cora", network=network)
            graph, model = harness.graph("cora"), harness.model(spec)
            geometry = resolve_geometry(graph, model, gnnerator_config())
            for path, value in variants:
                assert resolve_geometry(graph, model, apply_overrides(
                    gnnerator_config(), {path: value})) == geometry, path

        def batch(overrides):
            points = [SweepPoint(dataset="cora", network=network,
                                 metric=METRIC_DSE,
                                 config_overrides=override)
                      for network in networks for override in overrides]
            outcomes = ProcessPoolScheduler(
                jobs=2, worker_fn=_lowerings_per_point).run(points)
            assert all(ok for ok, _, _ in outcomes)
            for point, (_, cycles, _) in zip(points, outcomes):
                spec = WorkloadSpec(dataset="cora", network=point.network)
                config = apply_overrides(gnnerator_config(),
                                         dict(point.config_overrides))
                assert cycles == harness.gnnerator_result(
                    spec, config).cycles
            return sum(lowerings for _, _, lowerings in outcomes)

        assert batch([()]) == len(networks)
        assert batch([((path, value),) for path, value in variants]) == 0
        store = ProgramStore(tmp_path / "ps")
        assert len(store) == len(networks)  # one program per lowering
        assert len(list(store.root.rglob("*.structure"))) == len(networks)

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
    def test_damaged_name_is_a_miss_that_heals_both_names(self, tmp_path,
                                                          damage):
        store = ProgramStore(tmp_path, code_version="v1")
        expected = fresh_harness(store).gnnerator_result(TINY_GCN).cycles
        (name,) = tmp_path.rglob("*.structure")
        (entry,) = tmp_path.rglob("*.pkl")
        assert os.path.samefile(name, entry)  # one file, two names
        data = name.read_bytes()
        if damage == "truncated":
            name.write_bytes(data[:len(data) // 2])
        else:  # the last byte (of the entry's CRC-32) flipped
            name.write_bytes(data[:-1] + bytes([data[-1] ^ 0x80]))
        assert entry.read_bytes() != data  # both names see the damage

        lowerings = full_lowering_count()
        healed = fresh_harness(store).gnnerator_result(TINY_GCN)
        assert healed.cycles == expected
        assert full_lowering_count() == lowerings + 1
        assert store.stats == {"hits": 0, "misses": 2,
                               "structure_hits": 0, "structure_misses": 2}
        (name,) = tmp_path.rglob("*.structure")
        (entry,) = tmp_path.rglob("*.pkl")
        assert os.path.samefile(name, entry)
        # Both names serve again: the key, and the name for a variant.
        reader = fresh_harness(store)
        reader.gnnerator_program(TINY_GCN, self.BASE)
        assert reader.last_compile_tier() == "store"
        reader = fresh_harness(store)
        reader.gnnerator_program(TINY_GCN, apply_overrides(
            self.BASE, {"graph.num_gpes": 16}))
        assert reader.last_compile_tier() == "store"
        assert full_lowering_count() == lowerings + 1
        assert store.stats["structure_hits"] == 1

    def test_name_hit_verifies_its_recost(self, tmp_path, monkeypatch):
        """A program under a structure name is checked through its
        re-cost: with REPRO_VERIFY=1 a damaged structure fails the
        compile instead of simulating."""
        store = ProgramStore(tmp_path, code_version="v1")
        writer = fresh_harness(store)
        program = writer.gnnerator_program(TINY_GCN, self.BASE)
        program.queues["graph.fetch"][0].add_wait("never-signalled")
        (name,) = tmp_path.rglob("*.structure")
        name.unlink()  # the program key keeps the good entry
        name.write_bytes(_encode(program, writer.graph("tiny")))
        variant = apply_overrides(self.BASE, {"graph.num_gpes": 16})

        monkeypatch.setenv("REPRO_VERIFY", "0")
        unchecked = fresh_harness(store)
        unchecked.gnnerator_program(TINY_GCN, variant)
        assert unchecked.last_compile_tier() == "store"
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(VerificationError, match="never-signalled"):
            fresh_harness(store).gnnerator_program(TINY_GCN, variant)

    def test_unlinkable_name_is_skipped(self, tmp_path, monkeypatch):
        import repro.compiler.store as store_module

        def no_links(*args):
            raise OSError("hard links unsupported")

        monkeypatch.setattr(store_module.os, "link", no_links)
        store = ProgramStore(tmp_path, code_version="v1")
        fresh_harness(store).gnnerator_program(TINY_GCN)
        assert len(store) == 1
        assert not list(tmp_path.rglob("*.structure"))
        reader = fresh_harness(store)
        reader.gnnerator_program(TINY_GCN)
        assert reader.last_compile_tier() == "store"

    def test_name_depends_on_the_geometry_alone(self):
        """Equal geometries give equal names whatever config produced
        them; the entry class is part of the encoding."""
        from repro.compiler.lowering import (
            AggregateGeometry,
            ExtractGeometry,
            Geometry,
        )
        from repro.compiler.store import structure_key_payload

        store = ProgramStore("unused", code_version="v1")
        harness = fresh_harness(None)
        spec = WorkloadSpec(dataset="cora", network="gcn")
        graph, model = harness.graph("cora"), harness.model(spec)

        def name(config=None, geometry=None):
            if geometry is None:
                geometry = resolve_geometry(graph, model, config)
            return store.key(structure_key_payload(
                dataset_fingerprint="fp", network="gcn", hidden_dim=16,
                geometry=geometry))

        base = gnnerator_config()
        assert name(base) == name(apply_overrides(base, {
            "graph.num_gpes": 16, "dense.weight_buffer_bytes": 4194304}))
        assert name(base) != name(apply_overrides(base, {
            "graph.src_feature_buffer_bytes": 1024}))
        extract = ExtractGeometry(weight_buffer_bytes=1, input_rows=(),
                                  row_chunk=0, spills=False)
        aggregate = AggregateGeometry(interval_size=1, edge_buffer_bytes=0)
        assert name(geometry=Geometry("dst", 64, False, ((extract,),))) \
            != name(geometry=Geometry("dst", 64, False, ((aggregate,),)))
