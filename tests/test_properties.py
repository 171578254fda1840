"""Property-based tests (hypothesis) for the core invariants.

The heavyweight invariant — compiled/blocked/sharded execution equals
the numpy reference — is exercised over *random* graphs, networks, block
sizes and traversal orders, alongside structural invariants of the
sharder, the cost model, and the DES kernel.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.passes.validation import validate_program
from repro.compiler.lowering import compile_workload
from repro.compiler.runtime import run_functional
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.dataflow.blocking import BlockPlan
from repro.dataflow.costs import dst_stationary_cost, src_stationary_cost
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.partition import ShardGrid
from repro.graph.traversal import (
    simulate_residency,
    traversal_order,
)
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
)
from repro.models.zoo import build_network
from tests.conftest import make_tiny_config

# Limit example counts: each example compiles and simulates a program.
FAST = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)
SLOW = settings(max_examples=10,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


@st.composite
def random_graphs(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=40))
    max_edges = min(num_nodes * (num_nodes - 1), 120)
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    feature_dim = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    if num_edges == 0:
        graph = Graph(num_nodes, [], [], name="empty")
        rng = np.random.default_rng(seed)
        graph.features = rng.standard_normal(
            (num_nodes, feature_dim)).astype(np.float32)
        return graph
    return erdos_renyi(num_nodes, num_edges, feature_dim=feature_dim,
                       seed=seed)


class TestShardingProperties:
    @FAST
    @given(graph=random_graphs(),
           interval=st.integers(min_value=1, max_value=50))
    def test_partition_conserves_edges(self, graph, interval):
        grid = ShardGrid(graph, interval_size=interval)
        grid.validate()
        assert grid.num_edges == graph.num_edges
        total = sum(s.num_edges for s in grid.nonempty_shards())
        assert total == graph.num_edges

    @FAST
    @given(graph=random_graphs(),
           interval=st.integers(min_value=1, max_value=50))
    def test_edge_ids_bijective(self, graph, interval):
        grid = ShardGrid(graph, interval_size=interval)
        ids = np.concatenate(
            [s.edge_ids for s in grid.nonempty_shards()]
            or [np.empty(0, np.int64)])
        assert len(np.unique(ids)) == graph.num_edges


class TestTraversalProperties:
    @settings(max_examples=50, deadline=None)
    @given(side=st.integers(min_value=1, max_value=12),
           order_name=st.sampled_from([SRC_STATIONARY, DST_STATIONARY]))
    def test_replay_matches_closed_forms(self, side, order_name):
        replay = simulate_residency(traversal_order(order_name, side),
                                    side)
        cost_fn = (src_stationary_cost if order_name == SRC_STATIONARY
                   else dst_stationary_cost)
        cost = cost_fn(side, 1)
        assert replay.src_loads + replay.dst_loads == cost.read_rows
        assert replay.dst_stores == cost.write_rows

    @settings(max_examples=50, deadline=None)
    @given(side=st.integers(min_value=1, max_value=12))
    def test_orders_cover_grid_once(self, side):
        for name in (SRC_STATIONARY, DST_STATIONARY):
            cells = traversal_order(name, side)
            assert sorted(set(cells)) == [
                (r, c) for r in range(side) for c in range(side)]


class TestBlockPlanProperties:
    @settings(max_examples=100, deadline=None)
    @given(dim=st.integers(min_value=1, max_value=500),
           block=st.integers(min_value=1, max_value=500))
    def test_slices_partition(self, dim, block):
        block = min(block, dim)
        plan = BlockPlan(dim=dim, block=block)
        slices = plan.slices()
        assert len(slices) == plan.num_blocks
        cursor = 0
        for chunk in slices:
            assert chunk.start == cursor
            assert chunk.stop - chunk.start <= block
            cursor = chunk.stop
        assert cursor == dim


@st.composite
def random_aggregate_stages(draw, dim: int) -> AggregateStage:
    """Any aggregation form the stage IR supports, including the
    computed-weight (attention) and ε-scaled-self (GIN) extensions."""
    form = draw(st.sampled_from(
        ["plain", "mean", "sym", "max", "attention", "epsilon"]))
    include_self = draw(st.booleans())
    if form == "mean":
        return AggregateStage(dim=dim, reduce="sum", normalization="mean",
                              include_self=include_self)
    if form == "sym":
        return AggregateStage(dim=dim, reduce="sum", normalization="sym",
                              include_self=include_self)
    if form == "max":
        return AggregateStage(dim=dim, reduce="max",
                              include_self=include_self)
    if form == "attention":
        slope = draw(st.sampled_from([0.0, 0.2, 0.5]))
        return AggregateStage(dim=dim, weighting="attention",
                              include_self=include_self,
                              leaky_slope=slope)
    if form == "epsilon":
        epsilon = draw(st.floats(min_value=-0.9, max_value=2.0,
                                 allow_nan=False, allow_infinity=False))
        return AggregateStage(dim=dim, epsilon=epsilon, include_self=True)
    return AggregateStage(dim=dim, reduce="sum",
                          include_self=include_self)


@st.composite
def random_models(draw) -> GNNModel:
    """Random stage orders / dims / aggregation forms, always dim-valid.

    Patterns cover both producer orders and multi-extract pipelines:
    A=aggregate, E=extract; ``AE`` (GCN-like), ``EA`` (GAT-like),
    ``EAE`` (pool-like, optionally with concat), ``AEE`` (GIN-like).
    """
    in_dim = draw(st.integers(min_value=1, max_value=10))
    num_layers = draw(st.integers(min_value=1, max_value=2))
    layers = []
    current = in_dim
    for layer_index in range(num_layers):
        pattern = draw(st.sampled_from(["AE", "EA", "EAE", "AEE"]))
        out_dim = draw(st.integers(min_value=1, max_value=10))
        mid = draw(st.integers(min_value=1, max_value=10))
        activation = draw(st.sampled_from(["relu", "sigmoid", "none"]))
        concat = draw(st.booleans())
        name = f"rand-l{layer_index}"
        stages: list
        if pattern == "AE":
            stages = [
                draw(random_aggregate_stages(current)),
                ExtractStage(in_dim=current, out_dim=out_dim,
                             activation=activation, concat_self=concat,
                             self_dim=current if concat else 0,
                             name=f"{name}-e0"),
            ]
        elif pattern == "EA":
            stages = [
                ExtractStage(in_dim=current, out_dim=out_dim,
                             activation=activation, name=f"{name}-e0"),
                draw(random_aggregate_stages(out_dim)),
            ]
        elif pattern == "EAE":
            stages = [
                ExtractStage(in_dim=current, out_dim=mid,
                             activation="relu", name=f"{name}-e0"),
                draw(random_aggregate_stages(mid)),
                ExtractStage(in_dim=mid, out_dim=out_dim,
                             activation=activation, concat_self=concat,
                             self_dim=current if concat else 0,
                             name=f"{name}-e1"),
            ]
        else:  # "AEE"
            stages = [
                draw(random_aggregate_stages(current)),
                ExtractStage(in_dim=current, out_dim=mid,
                             activation="relu", name=f"{name}-e0"),
                ExtractStage(in_dim=mid, out_dim=out_dim,
                             activation=activation, name=f"{name}-e1"),
            ]
        layers.append(GNNLayer(name=name, stages=tuple(stages)))
        current = out_dim
    return GNNModel(name="random-model", layers=tuple(layers))


class TestFunctionalEquivalenceProperty:
    """The big one: random workload -> compiled == reference."""

    @SLOW
    @given(graph=random_graphs(),
           network=st.sampled_from(
               ["gcn", "graphsage", "graphsage-pool", "gat", "gin"]),
           block=st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=16)),
           traversal=st.sampled_from([SRC_STATIONARY, DST_STATIONARY]),
           seed=st.integers(min_value=0, max_value=99))
    def test_compiled_equals_reference(self, graph, network, block,
                                       traversal, seed):
        model = build_network(network, graph.feature_dim, 3, hidden_dim=8)
        params = init_parameters(model, seed=seed)
        config = make_tiny_config(block)
        program = compile_workload(graph, model, config,
                                   traversal=traversal, feature_block=block)
        validate_program(program)
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=2e-3, atol=1e-3)


class TestRandomModelProperties:
    """Random *models* (not just zoo networks): lowering round-trips and
    shape invariants hold for any dim-valid stage pipeline."""

    @SLOW
    @given(graph=random_graphs(),
           model_seed=st.integers(min_value=0, max_value=2 ** 16),
           block=st.one_of(st.none(), st.integers(min_value=1,
                                                  max_value=16)),
           traversal=st.sampled_from([SRC_STATIONARY, DST_STATIONARY]),
           data=st.data())
    def test_lowering_round_trips(self, graph, model_seed, block,
                                  traversal, data):
        model = data.draw(random_models())
        if model.in_dim != graph.feature_dim:
            rng = np.random.default_rng(model_seed)
            graph.features = rng.standard_normal(
                (graph.num_nodes, model.in_dim)).astype(np.float32)
        params = init_parameters(model, seed=model_seed % 100)
        program = compile_workload(graph, model, make_tiny_config(block),
                                   traversal=traversal,
                                   feature_block=block)
        validate_program(program)
        # Round-trip: the program carries the model.
        assert program.model is model
        # Shape invariants: every declared array is (N, dim>0) and the
        # output matches the model's out_dim.
        assert all(dim > 0 for dim in program.arrays.values())
        assert program.arrays[program.output_array] == model.out_dim
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        assert actual.shape == (graph.num_nodes, model.out_dim)
        np.testing.assert_allclose(actual, expected, rtol=2e-3, atol=1e-3)


class TestResidencyProperties:
    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(min_value=10, max_value=200),
           accesses=st.lists(
               st.tuples(st.integers(min_value=0, max_value=8),
                         st.integers(min_value=1, max_value=10)),
               min_size=1, max_size=60))
    def test_lru_never_exceeds_capacity(self, capacity, accesses):
        from repro.compiler.residency import LruResidency
        lru = LruResidency(capacity)
        for key, size in accesses:
            if size > capacity:
                continue
            lru.access(key, size)
            assert lru.used_bytes <= capacity

    @settings(max_examples=50, deadline=None)
    @given(accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=40))
    def test_src_buffer_load_iff_key_change(self, accesses):
        from repro.compiler.residency import SrcBufferState
        state = SrcBufferState()
        previous = None
        for interval, block in accesses:
            key = ("h", interval, block)
            loaded = state.access(*key)
            assert loaded == (key != previous)
            previous = key


class TestSemaphoreProperty:
    @settings(max_examples=30, deadline=None)
    @given(initial=st.integers(min_value=1, max_value=4),
           workers=st.integers(min_value=1, max_value=12),
           hold=st.integers(min_value=1, max_value=20))
    def test_concurrency_never_exceeds_credits(self, initial, workers,
                                               hold):
        from tests.oracle.kernel import Environment
        from tests.oracle.queues import Semaphore
        env = Environment()
        sem = Semaphore(env, initial=initial)
        active = [0]
        peak = [0]

        def worker(env):
            yield sem.wait()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1
            sem.signal()

        for _ in range(workers):
            env.process(worker(env))
        env.run()
        assert peak[0] <= initial
        assert active[0] == 0


class TestKernelProperties:
    @settings(max_examples=50, deadline=None)
    @given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                           min_size=1, max_size=20))
    def test_clock_reaches_max_delay(self, delays):
        from tests.oracle.kernel import Environment
        env = Environment()
        for delay in delays:
            def proc(env, d=delay):
                yield env.timeout(d)
            env.process(proc(env))
        env.run()
        assert env.now == max(delays)

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.01, max_value=1e6),
                           min_size=1, max_size=10))
    def test_geometric_mean_bounds(self, values):
        from repro.eval.harness import geometric_mean
        gm = geometric_mean(values)
        assert min(values) <= gm * (1 + 1e-9)
        assert gm <= max(values) * (1 + 1e-9)
