"""Differential harness: compiled runtime == numpy reference, for every
zoo network on every graph shape.

This is the repository's acceptance bar for aggregation semantics: any
network registered in :mod:`repro.models.zoo` is automatically run over
random graphs *and* the degenerate shapes that break naive aggregation
code (isolated nodes, self-loop-only graphs, a single node), with the
compiled, sharded, dimension-blocked runtime compared against
:func:`repro.models.reference.reference_forward` to 1e-5. Adding a new
network to the zoo picks up all of these cases with zero test edits —
replacing the ad-hoc per-model equivalence checks this file supersedes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.accelerator import GNNerator
from repro.analysis.passes.validation import validate_program
from repro.compiler.ir import COMPUTE_OPS, ShardAggregateOp
from repro.compiler.lowering import (
    compile_workload,
    fill_costs,
    worst_gpe_edges,
)
from repro.compiler.runtime import run_functional
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.engines.graph.gpe import gpe_edge_distribution
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.partition import GPE_COUNTS
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.zoo import NETWORK_NAMES, build_network
from tests.conftest import make_tiny_config
from tests.oracle import simulate_event
from tests.oracle.costs import fill_costs_walk

#: runtime == reference tolerance (float32 reassociation only).
TOLERANCE = dict(rtol=1e-5, atol=1e-5)

FEATURE_DIM = 9
NUM_CLASSES = 3


def _with_features(graph: Graph, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    graph.features = rng.standard_normal(
        (graph.num_nodes, FEATURE_DIM)).astype(np.float32)
    return graph


def _isolated_nodes_graph() -> Graph:
    """A sparse cluster plus nodes no edge touches (rows 6..11)."""
    src = [0, 1, 2, 3, 4, 0]
    dst = [1, 2, 3, 4, 5, 5]
    return _with_features(Graph(12, src, dst, name="isolated"), seed=21)


def _self_loop_only_graph() -> Graph:
    """Every edge is a self loop — softmax groups of one, unit shards."""
    loops = np.arange(7, dtype=np.int64)
    return _with_features(Graph(7, loops, loops, name="selfloops"),
                          seed=22)


def _single_node_graph() -> Graph:
    """One node, zero edges — the smallest compilable workload."""
    return _with_features(Graph(1, [], [], name="lonely"), seed=23)


def _edgeless_graph() -> Graph:
    """Many nodes, zero edges — every segment reduction is empty and
    every accumulator must fall back to its init/self term."""
    return _with_features(Graph(10, [], [], name="edgeless"), seed=24)


def _duplicate_edges_graph() -> Graph:
    """A multigraph: repeated (multi-)edges, including a duplicated
    self loop — duplicates must each contribute to sums, softmax
    denominators, and max-reduce segments."""
    src = [0, 0, 0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4, 5, 5]
    dst = [1, 1, 2, 2, 2, 3, 3, 3, 3, 0, 5, 5, 1, 5, 5]
    return _with_features(Graph(6, src, dst, name="multi"), seed=25)


def _hub_graph() -> Graph:
    """A high-degree hub: every other node feeds node 0 (plus a ring),
    concentrating one destination's edges on a single GPE and one
    accumulator — the worst case for load balance and segment sizes."""
    n = 24
    src = list(range(1, n)) + list(range(n))
    dst = [0] * (n - 1) + [(i + 1) % n for i in range(n)]
    return _with_features(Graph(n, src, dst, name="hub"), seed=26)


def _random_graph(seed: int) -> Graph:
    sizes = {3: (26, 140), 4: (40, 90), 5: (33, 260)}
    nodes, edges = sizes[seed]
    return erdos_renyi(nodes, edges, feature_dim=FEATURE_DIM, seed=seed)


GRAPH_CASES = {
    "random-0": lambda: _random_graph(3),
    "random-1": lambda: _random_graph(4),
    "random-2": lambda: _random_graph(5),
    "isolated-nodes": _isolated_nodes_graph,
    "self-loops-only": _self_loop_only_graph,
    "single-node": _single_node_graph,
    "edgeless": _edgeless_graph,
    "duplicate-edges": _duplicate_edges_graph,
    "hub": _hub_graph,
}


@pytest.mark.parametrize("network", NETWORK_NAMES)
@pytest.mark.parametrize("graph_case", sorted(GRAPH_CASES))
class TestDifferential:
    """Every network x every graph shape, blocked + sharded."""

    def _check(self, network: str, graph: Graph, feature_block: int | None,
               traversal: str, seeds: tuple[int, ...] = (7,)) -> None:
        model = build_network(network, FEATURE_DIM, NUM_CLASSES,
                              hidden_dim=8)
        program = compile_workload(
            graph, model, make_tiny_config(feature_block),
            traversal=traversal, feature_block=feature_block)
        validate_program(program)
        for seed in seeds:
            params = init_parameters(model, seed=seed)
            expected = reference_forward(model, graph, params)
            actual = run_functional(program, graph, params)
            assert actual.shape == expected.shape
            np.testing.assert_allclose(actual, expected, **TOLERANCE)

    def test_blocked_dst_stationary(self, network, graph_case):
        self._check(network, GRAPH_CASES[graph_case](), feature_block=4,
                    traversal=DST_STATIONARY)

    def test_blocked_src_stationary(self, network, graph_case):
        self._check(network, GRAPH_CASES[graph_case](), feature_block=4,
                    traversal=SRC_STATIONARY)

    def test_unblocked(self, network, graph_case):
        self._check(network, GRAPH_CASES[graph_case](), feature_block=None,
                    traversal=DST_STATIONARY)

    def test_one_program_serves_two_seeds(self, network, graph_case):
        """A program holds no values: one compile runs under the
        parameters of any seed, GAT's attention coefficients included."""
        self._check(network, GRAPH_CASES[graph_case](), feature_block=4,
                    traversal=DST_STATIONARY, seeds=(7, 8))


@pytest.mark.parametrize("network", NETWORK_NAMES)
@pytest.mark.parametrize("graph_case", sorted(GRAPH_CASES))
def test_array_costs_equal_the_op_walk(network, graph_case):
    """On the three differential programs of each case (blocked dst-
    and src-stationary, unblocked), each shard op's worst-GPE load
    equals its GPE distribution counted on the grid, and the array cost
    pass equals the per-op walk under every combination of each
    engine's compute knobs. 48 GPEs is no power of two: its loads are
    counted on the grid, not stored."""
    graph = GRAPH_CASES[graph_case]()
    model = build_network(network, FEATURE_DIM, NUM_CLASSES, hidden_dim=8)
    for block, traversal in ((4, DST_STATIONARY), (4, SRC_STATIONARY),
                             (None, DST_STATIONARY)):
        config = make_tiny_config(block)
        program = compile_workload(graph, model, config,
                                   traversal=traversal, feature_block=block)
        compute = [op for op in program.queues["graph.compute"]
                   if isinstance(op, COMPUTE_OPS)]
        for gpes in (*GPE_COUNTS, 48):
            assert worst_gpe_edges(program, gpes) == [
                int(gpe_edge_distribution(program.grids[
                    (op.layer, op.stage)].shard(*op.shard), gpes).max())
                if isinstance(op, ShardAggregateOp) else 0
                for op in compute], gpes
        # Graph costs read only graph knobs and dense costs only dense
        # ones, so pairing the two products covers both in full.
        dense_knobs = itertools.cycle(itertools.product(
            (32, 128), (32, 128), ("ws", "os", "auto")))
        for (gpes, simd, depth), (rows, cols, dataflow) in zip(
                itertools.product((16, 32, 48, 64), (16, 64), (0, 4)),
                dense_knobs):
            variant = dataclasses.replace(
                config,
                graph=dataclasses.replace(config.graph, num_gpes=gpes,
                                          simd_width=simd,
                                          pipeline_depth=depth),
                dense=dataclasses.replace(config.dense, rows=rows,
                                          cols=cols, dataflow=dataflow))
            assert fill_costs(program, variant) == fill_costs_walk(
                program, variant), (gpes, simd, depth, rows, cols,
                                    dataflow)


# ---------------------------------------------------------------------
# Large-graph differential: reduced-scale million-edge structure
# ---------------------------------------------------------------------
@pytest.mark.parametrize("network", NETWORK_NAMES)
class TestLargeGraphDifferential:
    """One large-graph case per network at reduced scale.

    The graph is drawn by the same chunked power-law generator that
    synthesises ``flickr``/``reddit-s`` — duplicate multi-edges, hub
    destinations, multi-interval grids under the tiny config — so the
    streamed shard compiler and coalesced simulator face the exact
    structure of the scale-up datasets without their cost. Kept out of
    ``GRAPH_CASES`` so the pinned cycle goldens stay byte-identical.
    """

    def _graph(self) -> Graph:
        from repro.graph.generators import powerlaw_graph

        return powerlaw_graph(350, 2800, feature_dim=FEATURE_DIM,
                              exponent=1.1, seed=13, name="powerlaw-s")

    def test_runtime_matches_reference(self, network):
        graph = self._graph()
        model = build_network(network, FEATURE_DIM, NUM_CLASSES,
                              hidden_dim=8)
        params = init_parameters(model, seed=7)
        program = compile_workload(
            graph, model, make_tiny_config(4), traversal=DST_STATIONARY,
            feature_block=4)
        validate_program(program)
        # The tiny config must actually shard this graph — otherwise
        # the case exercises nothing the small graphs don't.
        assert max(grid.grid_side for grid in program.grids.values()) > 1
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, **TOLERANCE)

    def test_kernels_agree_on_large_structure(self, network):
        graph = self._graph()
        model = build_network(network, FEATURE_DIM, NUM_CLASSES,
                              hidden_dim=8)
        config = make_tiny_config(4)
        accelerator = GNNerator(config)
        program = accelerator.compile(graph, model, feature_block=4)
        assert accelerator.simulate(program).cycles == \
            simulate_event(program, config).cycles


# ---------------------------------------------------------------------
# Cycle goldens: the host-side vectorization must never move a cycle
# ---------------------------------------------------------------------
CYCLE_GOLDEN_PATH = (Path(__file__).parent / "goldens"
                     / "differential_cycles.json")


def _compute_cycles() -> dict:
    """Simulated cycle counts for every (network, graph case) pair,
    blocked and unblocked — integers, compared exactly."""
    payload: dict[str, dict[str, dict[str, int]]] = {}
    for network in NETWORK_NAMES:
        model = build_network(network, FEATURE_DIM, NUM_CLASSES,
                              hidden_dim=8)
        payload[network] = {}
        for case in sorted(GRAPH_CASES):
            graph = GRAPH_CASES[case]()
            entry = {}
            for mode, block in (("blocked", 4), ("unblocked", None)):
                accelerator = GNNerator(make_tiny_config(block))
                program = accelerator.compile(graph, model,
                                              feature_block=block)
                entry[mode] = accelerator.simulate(program).cycles
            payload[network][case] = entry
    return payload


def test_cycles_match_goldens_exactly():
    """Wall-clock optimisations must be cycle-neutral: every (network,
    graph shape) pair's simulated cycle count is pinned exactly."""
    actual = _compute_cycles()
    if os.environ.get("REGEN_GOLDENS"):
        CYCLE_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        CYCLE_GOLDEN_PATH.write_text(
            json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {CYCLE_GOLDEN_PATH}")
    if not CYCLE_GOLDEN_PATH.exists():
        pytest.fail(f"golden file {CYCLE_GOLDEN_PATH} is missing; "
                    f"regenerate with REGEN_GOLDENS=1")
    expected = json.loads(CYCLE_GOLDEN_PATH.read_text())
    drift = []
    for network in sorted(set(expected) | set(actual)):
        exp_net = expected.get(network, {})
        act_net = actual.get(network, {})
        for case in sorted(set(exp_net) | set(act_net)):
            exp_entry = exp_net.get(case)
            act_entry = act_net.get(case)
            if exp_entry != act_entry:
                drift.append(f"{network}/{case}: expected {exp_entry}, "
                             f"got {act_entry}")
    assert not drift, (
        "cycle counts drifted from the goldens (vectorization must "
        "never change cycles, only wall time):\n  " + "\n  ".join(drift)
        + "\n(intentional modelling change? regenerate with "
          "REGEN_GOLDENS=1 and review the JSON diff)")
