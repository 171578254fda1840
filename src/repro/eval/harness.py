"""Experiment harness: run (dataset x network x platform) points.

Caches datasets, models, parameters and compiled programs so sweeps
(Fig 4's block sweep, Fig 5's scaling study) don't redo shared work.
All latencies are reported in seconds; speedups are computed by the
experiment modules.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

from repro.accelerator import ExecutionResult, GNNerator
from repro.baselines.gpu import GpuModel
from repro.baselines.hygcn import HyGCNModel
from repro.config.accelerator import GNNeratorConfig
from repro.config.platforms import hygcn_config, rtx_2080_ti_config
from repro.config.overrides import candidate_config
from repro.config.workload import WorkloadSpec
from repro.compiler.lowering import (
    Geometry,
    compile_workload,
    finish_program,
    program_geometry,
    program_projection,
    recost,
    resolve_geometry,
    structure_projection,
)
from repro.compiler.program import Program
from repro.compiler.store import (
    default_program_store,
    program_key_payload,
    structure_key_payload,
)
from repro.graph.datasets import dataset_fingerprint, dataset_stats
from repro.graph.graph import Graph
from repro.models.layers import Parameters, init_parameters
from repro.models.stages import GNNModel
from repro.models.zoo import build_network
from repro.obs.spans import span
from repro.sweep.cache import DatasetCache


def geometric_mean(values: list[float]) -> float:
    """Geometric mean, the aggregate the paper's Gmean bars use."""
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class PlatformLatencies:
    """Latencies of one workload on every evaluated platform."""

    spec: WorkloadSpec
    gpu_seconds: float
    gnnerator_seconds: float
    gnnerator_no_blocking_seconds: float
    hygcn_seconds: float

    @property
    def speedup_blocked(self) -> float:
        return self.gpu_seconds / self.gnnerator_seconds

    @property
    def speedup_no_blocking(self) -> float:
        return self.gpu_seconds / self.gnnerator_no_blocking_seconds

    @property
    def speedup_over_hygcn(self) -> float:
        return self.hygcn_seconds / self.gnnerator_seconds

    @property
    def no_blocking_speedup_over_hygcn(self) -> float:
        return self.hygcn_seconds / self.gnnerator_no_blocking_seconds


class Harness:
    """Shared-state experiment runner.

    ``program_store`` selects the persistent compiled-program store
    (:mod:`repro.compiler.store`): the default sentinel resolves it
    from the environment (``REPRO_PROGRAM_CACHE``), ``None`` disables
    persistence for this harness, and an explicit
    :class:`~repro.compiler.store.ProgramStore` is used as given (tests
    point one at a temp directory).

    Thread safety: one harness may be shared by concurrent request
    threads (the ``repro serve`` daemon). Every memo (params, datasets,
    fingerprints, compiled programs, program structures) is guarded,
    and compilation uses per-key locks so N threads asking for the
    *same* program — or for cost variants of one structure — run
    exactly one lowering while threads asking for *different* programs
    compile in parallel.
    """

    #: Compiled programs, and program structures, kept per harness (each
    #: memo separately); evicted FIFO beyond this.
    PROGRAM_CACHE_MAX_ENTRIES = 64
    #: Geometries (a few hundred bytes each) kept likewise.
    GEOMETRY_CACHE_MAX_ENTRIES = 1024

    def __init__(self, seed: int = 0, program_store="default") -> None:
        self.seed = seed
        self._params: dict[tuple, Parameters] = {}
        self._datasets = DatasetCache()
        self._programs: dict[tuple, Program] = {}
        #: Programs by ``(spec, Geometry)``: what a cost-only variant
        #: re-costs instead of lowering (see :meth:`_structure`).
        self._structures: dict[tuple, Program] = {}
        #: Geometries by ``(spec, structure_projection(config))``.
        self._geometries: dict[tuple, Geometry] = {}
        self._fingerprints: dict[str, str | None] = {}
        self._memo_hits = 0
        self._memo_misses = 0
        self._structure_hits = 0
        self._structure_misses = 0
        #: Guards every memo dict and counter on this harness.
        self._lock = threading.RLock()
        #: One lock per in-flight compile key and per structure being
        #: lowered (see :meth:`_compiled`).
        self._compile_locks: dict[tuple, threading.Lock] = {}
        self._structure_locks: dict[tuple, threading.Lock] = {}
        #: Which cache layer satisfied this *thread's* most recent
        #: :meth:`_compiled` call ("memo" | "store" | "recost" |
        #: "compiled").
        #: Thread-local so concurrent daemon workers can attribute a
        #: tier to their own request without racing on a counter delta.
        self._tier = threading.local()
        if program_store == "default":
            program_store = default_program_store()
        self.program_store = program_store

    # -- workload materialisation --------------------------------------
    def graph(self, dataset: str) -> Graph:
        """The (cached) benchmark graph; caching is per harness, so
        instances never share mutable cache state."""
        with span("load", dataset=dataset):
            return self._datasets.get(dataset)

    def model(self, spec: WorkloadSpec) -> GNNModel:
        stats = dataset_stats(spec.dataset)
        return build_network(spec.network, stats.feature_dim,
                             stats.num_classes, hidden_dim=spec.hidden_dim)

    def params(self, spec: WorkloadSpec) -> Parameters:
        key = (spec.dataset, spec.network, spec.hidden_dim)
        # Held across init_parameters so concurrent callers of one key
        # all receive the same Parameters object.
        with self._lock:
            if key not in self._params:
                self._params[key] = init_parameters(self.model(spec),
                                                    seed=self.seed)
            return self._params[key]

    # -- per-platform latencies ----------------------------------------
    def _config(self, spec: WorkloadSpec,
                config: GNNeratorConfig | None) -> GNNeratorConfig:
        """``config``, or the Table IV baseline at the spec's feature
        block. An explicit config's own feature block governs: Fig 5
        ties B to the Dense Engine width."""
        if config is None:
            return candidate_config(spec.feature_block, ())
        return config

    def _fingerprint(self, dataset: str) -> str | None:
        """Cached dataset fingerprint (None = not store-addressable, or
        no program store)."""
        if self.program_store is None:
            return None
        with self._lock:
            if dataset not in self._fingerprints:
                self._fingerprints[dataset] = dataset_fingerprint(dataset)
            return self._fingerprints[dataset]

    @contextlib.contextmanager
    def _key_lock(self, locks: dict, key):
        """Hold ``key``'s lock in ``locks``, created on demand and
        dropped once its holder is done — whether the work succeeded
        or raised, so failing keys never accumulate locks."""
        with self._lock:
            lock = locks.setdefault(key, threading.Lock())
        try:
            with lock:
                yield
        finally:
            with self._lock:
                if locks.get(key) is lock:
                    del locks[key]

    def _compiled(self, spec: WorkloadSpec,
                  config: GNNeratorConfig) -> Program:
        """The memoized compiled program for one (workload, config).

        Compilation is deterministic and simulation never mutates the
        program, so sweep points and DSE candidates sharing a software
        shape skip recompilation entirely. Keyed by
        :func:`~repro.compiler.lowering.program_projection`, so
        candidates that differ only in simulate-only knobs (DRAM, clock
        frequencies) share one program. A miss asks the program store
        by that key before the structure memo, because a hit needs no
        geometry: a cold graph resolves one by probing its intervals
        (10–15 ms per flickr workload). Otherwise it re-costs
        (:func:`~repro.compiler.lowering.recost`) the structure of the
        config's geometry (:meth:`_geometry`, :meth:`_structure`),
        unless that stage lowered it for ``config``. Re-costs are never
        published to the store: one costs less to rebuild than a store
        round trip. A stored program seeds the structure memo too. Both
        memos are bounded FIFO, so long searches never pin every
        program ever compiled.
        """
        from repro.eval.energy import _program_terms

        projection = program_projection(config)
        key = (spec, projection)
        # Fast path + per-key lock: concurrent requests for the same key
        # serialize on the key lock (one lowering, the rest hit the
        # memo on re-check) while distinct keys compile concurrently.
        with self._lock:
            program = self._programs.get(key)
            if program is not None:
                self._memo_hits += 1
                self._tier.value = "memo"
                return program
        with self._key_lock(self._compile_locks, key):
            with self._lock:
                program = self._programs.get(key)
                if program is not None:
                    # Another thread compiled it while we waited.
                    self._memo_hits += 1
                    self._tier.value = "memo"
                    return program
                self._memo_misses += 1
            graph = self.graph(spec.dataset)
            with span("compile", workload=spec.label):
                fingerprint = self._fingerprint(spec.dataset)
                store_key = program = None
                if fingerprint is not None:
                    store_key = program_key_payload(
                        dataset_fingerprint=fingerprint,
                        network=spec.network, hidden_dim=spec.hidden_dim,
                        traversal=spec.traversal,
                        feature_block=config.feature_block,
                        config_projection=projection)
                    program = self.program_store.get(store_key, graph)
                if program is not None:
                    tier = "store"
                    # Re-timed, and verified against corrupted or stale
                    # entries when REPRO_VERIFY is on, like a fresh
                    # compile.
                    finish_program(program, config, f"store:{spec.label}")
                    _program_terms(program)
                    structure_key = (spec, program_geometry(
                        program, graph, config))
                    with self._lock:
                        self._remember(self._structures, structure_key,
                                       program)
                else:
                    structure, tier = self._structure(
                        spec, self._geometry(spec, config, graph), graph,
                        config, store_key)
                    program = structure if tier == "compiled" else recost(
                        structure, config, workload=f"recost:{spec.label}")
            self._tier.value = tier
            with self._lock:
                self._remember(self._programs, key, program)
            return program

    def _geometry(self, spec: WorkloadSpec, config: GNNeratorConfig,
                  graph: Graph) -> Geometry:
        """``config``'s geometry for ``spec``, resolved once per distinct
        :func:`~repro.compiler.lowering.structure_projection`; only a
        miss opens a ``geometry`` span."""
        key = (spec, structure_projection(config))
        with self._lock:
            geometry = self._geometries.get(key)
        if geometry is None:
            with span("geometry", workload=spec.label):
                geometry = resolve_geometry(graph, self.model(spec), config,
                                            spec.traversal,
                                            config.feature_block)
            with self._lock:
                self._remember(self._geometries, key, geometry,
                               self.GEOMETRY_CACHE_MAX_ENTRIES)
        return geometry

    def _structure(self, spec: WorkloadSpec, geometry: Geometry,
                   graph: Graph, config: GNNeratorConfig | None = None,
                   store_key: dict | None = None
                   ) -> tuple[Program | None, str | None]:
        """The structure stage: the structure ``spec`` lowers to under
        ``geometry``, and the tier that served it — the structure memo
        (``"recost"``), the program store by structure name
        (``"store"``), or, given the ``config`` to compile for, a
        lowering (``"compiled"``), stored under ``store_key`` and that
        name. Without a config it lowers nothing and may give ``(None,
        None)``. Memoized structures carry their energy terms, for
        their re-costs to share; only a compile's memo lookups count in
        :meth:`cache_stats`. One lowering per structure: concurrent
        cost variants of one geometry wait for it here.
        """
        from repro.eval.energy import _program_terms

        key = (spec, geometry)
        with span("structure", workload=spec.label), \
                self._key_lock(self._structure_locks, key):
            with self._lock:
                structure = self._structures.get(key)
                if config is not None:
                    if structure is None:
                        self._structure_misses += 1
                    else:
                        self._structure_hits += 1
            if structure is not None:
                return structure, "recost"
            fingerprint = self._fingerprint(spec.dataset)
            tier = name = None
            if fingerprint is not None:
                name = structure_key_payload(
                    dataset_fingerprint=fingerprint, network=spec.network,
                    hidden_dim=spec.hidden_dim, geometry=geometry)
                structure = self.program_store.get(name, graph,
                                                   structure=True)
                tier = "store"
            if structure is None:
                if config is None:
                    return None, None
                structure = compile_workload(
                    graph, self.model(spec), config, traversal=spec.traversal,
                    feature_block=config.feature_block, geometry=geometry)
                tier = "compiled"
            _program_terms(structure)
            with self._lock:
                self._remember(self._structures, key, structure)
        if tier == "compiled" and store_key is not None:
            self.program_store.put(store_key, structure, graph,
                                   structure=name)
        return structure, tier

    def load_structures(self, workloads) -> None:
        """The geometry and structure stages over a batch of ``(spec,
        config)`` pairs, lowering nothing: every geometry resolves
        under one ``geometry`` span, then the structure stage loads
        each distinct ``(spec, Geometry)`` not yet memoized — what a
        process forked from here re-costs without a load. A geometry
        that raises is left to its compile to report."""
        graphs: dict[tuple, Graph] = {}
        with span("geometry"):
            for spec, config in workloads:
                with contextlib.suppress(Exception):
                    graph = self.graph(spec.dataset)
                    graphs[spec, self._geometry(spec, self._config(
                        spec, config), graph)] = graph
            with self._lock:
                missing = [key for key in graphs
                           if key not in self._structures]
        for spec, geometry in missing:
            self._structure(spec, geometry, graphs[spec, geometry])

    def _remember(self, memo: dict, key, value,
                  bound: int | None = None) -> None:
        """FIFO-bounded insert (the caller holds the harness lock)."""
        if key in memo:
            return
        if len(memo) >= (bound or self.PROGRAM_CACHE_MAX_ENTRIES):
            memo.pop(next(iter(memo)))
        memo[key] = value

    def last_compile_tier(self) -> str | None:
        """Which layer served this thread's most recent compile:
        ``"memo"``, ``"store"``, ``"recost"`` or ``"compiled"`` (None
        = no compile on this thread yet). The daemon joins this to its
        per-request logs — a thread-local, not a counter delta, so it
        stays accurate under concurrent workers."""
        return getattr(self._tier, "value", None)

    def cache_stats(self) -> dict:
        """Hit/miss counters of this harness's program caches."""
        with self._lock:
            stats = {"memo": {"hits": self._memo_hits,
                              "misses": self._memo_misses},
                     "structure": {"hits": self._structure_hits,
                                   "misses": self._structure_misses}}
        if self.program_store is not None:
            stats["store"] = dict(self.program_store.stats)
            stats["store"]["root"] = str(self.program_store.root)
        return stats

    def gnnerator_program(self, spec: WorkloadSpec,
                          config: GNNeratorConfig | None = None
                          ) -> Program:
        """Compile ``spec`` without simulating (Table I's traffic
        accounting needs only the program's DMA bytes)."""
        return self._compiled(spec, self._config(spec, config))

    def gnnerator_result(self, spec: WorkloadSpec,
                         config: GNNeratorConfig | None = None
                         ) -> ExecutionResult:
        """Run ``spec`` on GNNerator (see :meth:`_config`)."""
        config = self._config(spec, config)
        return GNNerator(config).simulate(self._compiled(spec, config))

    def gnnerator_seconds(self, spec: WorkloadSpec,
                          config: GNNeratorConfig | None = None) -> float:
        return self.gnnerator_result(spec, config).seconds

    def gnnerator_dse_metrics(self, spec: WorkloadSpec,
                              config: GNNeratorConfig | None = None
                              ) -> dict:
        """The DSE objective bundle for one (workload, config) point.

        One compile + one simulation yields every objective the
        design-space search optimises: latency (cycles/seconds), DRAM
        traffic, first-order silicon area of the config, and the
        event-energy estimate (with derived average power and EDP).
        """
        from repro.eval.area import gnnerator_area
        from repro.eval.energy import estimate_energy

        config = self._config(spec, config)
        program = self._compiled(spec, config)
        result = GNNerator(config).simulate(program)
        energy = estimate_energy(program, result)
        area = gnnerator_area(config)
        return {
            "seconds": result.seconds,
            "cycles": result.cycles,
            "num_operations": result.num_operations,
            "total_dram_bytes": result.total_dram_bytes,
            "area_mm2": area.total_mm2,
            "energy_pj": energy.total_pj,
            "energy_breakdown_pj": {
                "compute": energy.compute_pj,
                "sram": energy.sram_pj,
                "dram": energy.dram_pj,
                "idle": energy.idle_pj,
            },
            "avg_power_w": energy.average_power_w(result.seconds),
            "edp_js": energy.total_joules * result.seconds,
        }

    def gpu_seconds(self, spec: WorkloadSpec) -> float:
        model = GpuModel(rtx_2080_ti_config())
        return model.run(self.graph(spec.dataset), self.model(spec)).seconds

    def hygcn_seconds(self, spec: WorkloadSpec,
                      sparsity_elimination: bool = True) -> float:
        model = HyGCNModel(hygcn_config(sparsity_elimination))
        return model.run(self.graph(spec.dataset), self.model(spec)).seconds

    # -- combined -------------------------------------------------------
    def all_platforms(self, spec: WorkloadSpec) -> PlatformLatencies:
        return PlatformLatencies(
            spec=spec,
            gpu_seconds=self.gpu_seconds(spec),
            gnnerator_seconds=self.gnnerator_seconds(spec),
            gnnerator_no_blocking_seconds=self.gnnerator_seconds(
                spec.with_block(None)),
            hygcn_seconds=self.hygcn_seconds(spec),
        )
