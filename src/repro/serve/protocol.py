"""One request model and one executor per job, for the CLI and daemon.

``repro run|sweep|dse|perf`` build field mappings from argparse, and
``repro serve`` from JSON bodies; :func:`parse_request` validates either
*eagerly* into a frozen request, so bad input is a one-line exit 2 or a
400 before anything is queued. A request's :meth:`~ServeRequest.key`
covers every field, and every input that changes a result is a field,
so equal keys compute equal results: what makes the daemon's sharing
of one in-flight computation sound. The executors run a request over
the caller's harness and caches (DESIGN.md §7).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import ClassVar

from repro.config.accelerator import ConfigError
from repro.config.overrides import (
    FrozenOverrides,
    apply_overrides,
    freeze_overrides,
)
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.graph.datasets import DATASETS
from repro.models.zoo import NETWORK_NAMES
from repro.sweep import SweepRunner, build_plan
from repro.sweep.plan import PLAN_NAMES

#: Endpoints served through the work queue (``POST /<endpoint>``).
ENDPOINTS = ("run", "sweep", "dse", "perf")


class ProtocolError(ValueError):
    """An invalid request: HTTP 400 on the daemon, exit 2 on the CLI."""


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _set(request, name: str, value) -> None:
    object.__setattr__(request, name, value)


def _check_name(kind: str, value, valid) -> None:
    if not isinstance(value, str) or value not in valid:
        raise ProtocolError(f"unknown {kind} {value!r}; valid choices: "
                            f"{', '.join(valid)}")


def _name(request, name: str, valid) -> None:
    value = getattr(request, name)
    if value is None:
        raise ProtocolError(f"missing required field {name!r}")
    _check_name(name, value, valid)


def _names(request, name: str, valid) -> None:
    """A non-empty list of names (or one bare name), kept as a tuple."""
    value = getattr(request, name)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise ProtocolError(f"{name} must be a non-empty list of names")
    for entry in value:
        _check_name(name[:-1], entry, valid)
    _set(request, name, tuple(value))


def _int(request, *names: str, minimum: int | None = None) -> None:
    for name in names:
        value = getattr(request, name)
        if (isinstance(value, bool) or not isinstance(value, int)
                or (minimum is not None and value < minimum)):
            bound = "" if minimum is None else f" >= {minimum}"
            raise ProtocolError(f"{name} must be an integer{bound}, "
                                f"got {value!r}")


def _frozen_overrides(raw) -> FrozenOverrides:
    """``{dotted.path: number}``, checked against the config so a bad
    knob is a 400, not a 500 from a worker."""
    raw = raw or {}
    if not isinstance(raw, dict):
        raise ProtocolError("overrides must be an object of "
                            "{dotted.path: number}")
    for path, value in raw.items():
        if not isinstance(path, str) or not _is_number(value):
            raise ProtocolError(
                f"override {path!r}={value!r} is not a numeric knob")
    frozen = freeze_overrides(raw)
    if frozen:
        try:
            apply_overrides(gnnerator_config(), dict(frozen))
        except ConfigError as exc:
            raise ProtocolError(str(exc)) from None
    return frozen


def _knob_ladders(raw) -> tuple[tuple[str, tuple[float, ...]], ...]:
    """``{dotted.path: [number, ...]}`` (or its pairs) in order. A
    repeated path keeps its first position and its last ladder, as
    successive ``DesignSpace.with_knob`` calls do."""
    try:
        ladders = dict(raw or {})
    except (TypeError, ValueError):
        raise ProtocolError("knobs must be an object of "
                            "{dotted.path: [number, ...]}") from None
    for path, values in ladders.items():
        if (not isinstance(path, str)
                or not isinstance(values, (list, tuple))
                or not all(_is_number(v) for v in values)):
            raise ProtocolError(
                f"knob {path!r} needs a list of numbers, got {values!r}")
    return tuple((path, tuple(values)) for path, values in ladders.items())


@dataclass(frozen=True)
class ServeRequest:
    """Base class: a validated request with a coalescing identity.

    Subclasses validate and normalise their fields in
    ``__post_init__``, so every construction — from JSON, from
    argparse, or in code — is checked by the same rules.
    """

    endpoint: ClassVar[str] = ""
    #: Max seconds the request may wait *queued* before the daemon
    #: answers 504 instead of computing (None = wait forever).
    #: Deliberately NOT part of :meth:`key`: the deadline changes when
    #: a caller gets an answer, never what the answer is, so requests
    #: differing only in patience still coalesce (the shared job keeps
    #: the latest deadline — see ``WorkQueue.submit``).
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.timeout_s is not None:
            if not _is_number(self.timeout_s) or self.timeout_s <= 0:
                raise ProtocolError(
                    f"timeout_s must be a number > 0 (seconds), got "
                    f"{self.timeout_s!r}")
            _set(self, "timeout_s", float(self.timeout_s))

    def key(self) -> tuple:
        """Canonical hashable identity; equal keys ⇒ equal results."""
        return (self.endpoint,) + tuple(
            getattr(self, f.name) for f in fields(self)
            if f.name != "timeout_s")


@dataclass(frozen=True)
class RunRequest(ServeRequest):
    endpoint: ClassVar[str] = "run"
    dataset: str | None = None
    network: str | None = None
    block: int | None = 64
    hidden_dim: int = 16
    overrides: FrozenOverrides = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        _name(self, "dataset", tuple(DATASETS))
        _name(self, "network", NETWORK_NAMES)
        if self.block is not None:
            _int(self, "block", minimum=1)
        _int(self, "hidden_dim", minimum=1)
        _set(self, "overrides", _frozen_overrides(self.overrides))

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(dataset=self.dataset, network=self.network,
                            feature_block=self.block,
                            hidden_dim=self.hidden_dim)


@dataclass(frozen=True)
class SweepRequest(ServeRequest):
    endpoint: ClassVar[str] = "sweep"
    plan: str = "smoke"
    networks: tuple[str, ...] | None = None
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _name(self, "plan", PLAN_NAMES)
        if self.networks is not None:
            _names(self, "networks", NETWORK_NAMES)
        _int(self, "seed")
        _int(self, "jobs", minimum=1)
        try:
            build_plan(self.plan, seed=self.seed, networks=self.networks)
        except ConfigError as exc:
            raise ProtocolError(str(exc)) from None


@dataclass(frozen=True)
class DseRequest(ServeRequest):
    endpoint: ClassVar[str] = "dse"
    strategy: str = "random"
    datasets: tuple[str, ...] = ("tiny",)
    networks: tuple[str, ...] = ("gcn",)
    samples: int = 16
    population: int = 8
    generations: int = 4
    hidden_dim: int = 16
    max_candidates: int = 4096
    budget_area: float | None = None
    budget_power: float | None = None
    seed: int = 0
    jobs: int = 1
    #: A ``SPACE_PRESETS`` name, then ``knobs`` ladders applied in order.
    space: str = "default"
    knobs: tuple[tuple[str, tuple[float, ...]], ...] = ()
    #: Also measure the paper's Fig 5 designs against the frontier.
    fig5_check: bool = False

    def __post_init__(self) -> None:
        from repro.dse import SPACE_PRESETS, STRATEGY_NAMES

        super().__post_init__()
        _name(self, "strategy", STRATEGY_NAMES)
        _names(self, "datasets", tuple(DATASETS))
        _names(self, "networks", NETWORK_NAMES)
        _int(self, "samples", "population", "generations", "hidden_dim",
             "max_candidates", "jobs", minimum=1)
        _int(self, "seed")
        for name in ("budget_area", "budget_power"):
            value = getattr(self, name)
            if value is not None and not _is_number(value):
                raise ProtocolError(f"{name} must be a number or null")
        if not isinstance(self.fig5_check, bool):
            raise ProtocolError("fig5_check must be true or false")
        _name(self, "space", tuple(SPACE_PRESETS))
        _set(self, "knobs", _knob_ladders(self.knobs))
        try:
            size = self.design_space().size
        except ConfigError as exc:
            raise ProtocolError(str(exc)) from None
        if self.strategy == "grid" and size > self.max_candidates:
            raise ProtocolError(
                f"grid search over {size} candidates exceeds "
                f"max_candidates {self.max_candidates}; restrict the "
                f"space (space, knobs) or raise max_candidates")

    def design_space(self):
        """The ``space`` preset with each ``knobs`` ladder applied."""
        from repro.dse import SPACE_PRESETS

        space = SPACE_PRESETS[self.space]()
        for path, values in self.knobs:
            space = space.with_knob(path, values)
        return space


@dataclass(frozen=True)
class PerfRequest(ServeRequest):
    endpoint: ClassVar[str] = "perf"
    datasets: tuple[str, ...] = ("tiny",)
    networks: tuple[str, ...] = ("gcn",)
    hidden_dim: int = 16
    repeat: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        _names(self, "datasets", tuple(DATASETS))
        _names(self, "networks", NETWORK_NAMES)
        _int(self, "hidden_dim", "repeat", minimum=1)


REQUEST_TYPES = {kind.endpoint: kind for kind in
                 (RunRequest, SweepRequest, DseRequest, PerfRequest)}


def request_fields(endpoint: str) -> tuple[str, ...]:
    """The fields a request to ``endpoint`` may set."""
    return tuple(f.name for f in fields(REQUEST_TYPES[endpoint]))


def parse_request(endpoint: str, body: dict) -> ServeRequest:
    """Validate one endpoint's field mapping into a request object.

    Raises :class:`ProtocolError` on anything malformed.
    """
    if endpoint not in REQUEST_TYPES:
        raise ProtocolError(f"unknown endpoint {endpoint!r}; known: "
                            f"{', '.join(ENDPOINTS)}")
    if not isinstance(body, dict):
        raise ProtocolError("request body must be a JSON object")
    allowed = request_fields(endpoint)
    # A typo'd field must be an error, not a silently applied default:
    # the caller would believe the knob took effect.
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}")
    return REQUEST_TYPES[endpoint](**body)


# -- executors ---------------------------------------------------------
def execute_run(request: RunRequest, harness, probe=None):
    """Compile through the harness's memo, store and re-cost tiers,
    then simulate (``probe`` observes the replay). Returns ``(payload,
    ExecutionResult)``; the payload is ``POST /run``'s result."""
    from repro.accelerator import GNNerator

    spec = request.spec()
    config = gnnerator_config(feature_block=request.block)
    if request.overrides:
        config = apply_overrides(config, dict(request.overrides))
    program = harness.gnnerator_program(
        spec, config if request.overrides else None)
    result = GNNerator(config).simulate(program, probe=probe)
    payload = {
        "workload": spec.label,
        "dataset": request.dataset,
        "network": request.network,
        "feature_block": request.block,
        "hidden_dim": request.hidden_dim,
        "overrides": dict(request.overrides),
        "seconds": result.seconds,
        "cycles": result.cycles,
        "num_operations": result.num_operations,
        "total_dram_bytes": result.total_dram_bytes,
        # Which layer served the compile (memo/store/recost/compiled),
        # read on this thread (thread-local): a daemon worker's tier is
        # its own request's, shared with every coalesced waiter.
        "cache_tier": harness.last_compile_tier(),
    }
    return payload, result


def execute_sweep(request: SweepRequest, harness=None, cache=None,
                  scheduler=None):
    """Run the named plan; returns its ``SweepResult``."""
    plan = build_plan(request.plan, seed=request.seed,
                      networks=request.networks)
    return SweepRunner(jobs=request.jobs, cache=cache, harness=harness,
                       scheduler=scheduler).run(plan)


def execute_dse(request: DseRequest, harness=None, cache=None,
                scheduler=None):
    """Search the request's space; returns the ``DseResult`` (with its
    Fig 5 checks when ``fig5_check`` is set)."""
    from repro.dse import Budget, DseEngine, build_strategy

    strategy = build_strategy(
        request.strategy, samples=request.samples,
        population=request.population, generations=request.generations,
        seed=request.seed, max_candidates=request.max_candidates)
    workloads = [WorkloadSpec(dataset=dataset, network=network,
                              hidden_dim=request.hidden_dim)
                 for dataset in request.datasets
                 for network in request.networks]
    runner = SweepRunner(jobs=request.jobs, cache=cache, harness=harness,
                         scheduler=scheduler)
    engine = DseEngine(request.design_space(), strategy, workloads, runner,
                       budget=Budget(area_mm2=request.budget_area,
                                     power_w=request.budget_power),
                       seed=request.seed)
    result = engine.run()
    if request.fig5_check:
        engine.check_fig5(result)
    return result


def execute_perf(request: PerfRequest, program_store) -> dict:
    """Measure host wall time per workload; returns the
    ``BENCH_host.json``-shaped payload with this run's ``caches``."""
    from repro.compiler.lowering import full_lowering_count
    from repro.eval import hostperf
    from repro.graph.datasets import disk_cache_stats

    lowerings_before = full_lowering_count()
    workloads = hostperf.measure(
        datasets=request.datasets, networks=request.networks,
        hidden_dim=request.hidden_dim, repeat=request.repeat,
        program_store=program_store)
    caches = {
        "full_lowerings": full_lowering_count() - lowerings_before,
        "dataset_disk": disk_cache_stats(),
        "program_store": None if program_store is None else dict(
            program_store.stats, root=str(program_store.root),
            entries=len(program_store)),
    }
    return hostperf.build_payload(workloads, caches=caches)
