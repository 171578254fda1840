"""Declarative sweep plans: enumerate experiment grids as data.

A :class:`SweepPoint` pins down *everything* needed to compute one
number of one paper artefact — dataset, network, platform, dataflow
knobs, the parameter seed, and any hardware knob overrides (a DSE
candidate, or one of Fig 5's scaled designs) — as a frozen, hashable,
picklable record. A :class:`SweepPlan` is an ordered, de-duplicated
collection of points; the factories at the bottom enumerate the grids
behind Fig 3/4/5 and Tables I/V, plus a tiny ``smoke`` plan for CI.

Keeping plans declarative is what makes the rest of the engine work:
points can be hashed into cache keys, shipped to worker processes, and
compared across ``--jobs`` levels without ever re-deriving the grid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.config.accelerator import ConfigError, GNNeratorConfig
from repro.config.overrides import (
    FrozenOverrides,
    candidate_config,
    fig5_overrides,
    freeze_overrides,
)
from repro.config.workload import (
    DST_STATIONARY,
    FIG3_DATASETS,
    FIG3_NETWORKS,
    FIG4_BLOCKS,
    FIG5_HIDDEN_DIMS,
    SRC_STATIONARY,
    WorkloadSpec,
    fig3_workloads,
    fig4_workloads,
    fig5_workloads,
)
from repro.models.zoo import NETWORK_NAMES

#: Platforms a point can target.
PLATFORMS = ("gnnerator", "gpu", "hygcn")

#: What a point measures: end-to-end latency (compile + simulate),
#: compiled DRAM traffic only (Table I never needs the DES replay), or
#: the full DSE objective bundle (latency + silicon area + energy).
METRIC_LATENCY = "latency"
METRIC_TRAFFIC = "traffic"
METRIC_DSE = "dse"
METRICS = (METRIC_LATENCY, METRIC_TRAFFIC, METRIC_DSE)


class SweepPlanError(ConfigError):
    """An invalid sweep point or plan."""


@dataclass(frozen=True)
class SweepPoint:
    """One experiment point: a workload on a platform with fixed knobs."""

    dataset: str
    network: str
    platform: str = "gnnerator"
    feature_block: int | None = 64
    traversal: str = DST_STATIONARY
    hidden_dim: int = 16
    metric: str = METRIC_LATENCY
    #: Parameter-initialisation seed; fixed per point so any worker
    #: process computes byte-identical results.
    seed: int = 0
    #: Knobs on top of Table IV at ``feature_block`` (a DSE candidate,
    #: a Fig 5 design) as canonical sorted ``(path, value)`` pairs (see
    #: :mod:`repro.config.overrides`); part of the cache-key payload.
    #: None derives the config from the workload; ``()`` is Table IV.
    config_overrides: FrozenOverrides | None = None

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise SweepPlanError(
                f"platform must be one of {PLATFORMS}, "
                f"got {self.platform!r}")
        if self.metric not in METRICS:
            raise SweepPlanError(
                f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.metric == METRIC_DSE and self.platform != "gnnerator":
            raise SweepPlanError(
                "the dse metric (area/energy models) only applies to "
                "the gnnerator platform")
        if self.config_overrides is not None:
            if self.platform != "gnnerator":
                raise SweepPlanError(
                    "config_overrides only apply to the gnnerator platform")
            object.__setattr__(self, "config_overrides",
                               freeze_overrides(self.config_overrides))
        # Builds (and thereby validates) the config and the workload
        # now: a degenerate candidate or a malformed point fails at
        # plan time, not inside a worker.
        self.config
        self.spec

    @property
    def config(self) -> GNNeratorConfig | None:
        """The point's GNNerator config, built once per distinct
        (block, overrides) pair; None derives it from the workload."""
        if self.config_overrides is None:
            return None
        return candidate_config(self.feature_block, self.config_overrides)

    @property
    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(dataset=self.dataset, network=self.network,
                            feature_block=self.feature_block,
                            traversal=self.traversal,
                            hidden_dim=self.hidden_dim)

    @property
    def label(self) -> str:
        """Human-readable point name for logs and reports."""
        parts = [self.spec.label, f"h{self.hidden_dim}",
                 f"B{self.feature_block or 'D'}", self.platform]
        if self.traversal != DST_STATIONARY:
            parts.insert(3, self.traversal)
        if self.metric != METRIC_LATENCY:
            parts.append(self.metric)
        if self.config_overrides:
            blob = json.dumps(self.config_overrides)
            digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
            parts.append(f"ov-{digest}")
        return ":".join(parts)

    def payload(self) -> dict:
        """The canonical JSON-able form used for cache keys: the fields
        by name (``dataclasses.asdict`` without its deep copy)."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}


_FIELD_NAMES = tuple(f.name for f in fields(SweepPoint))


def point_for(spec: WorkloadSpec, platform: str = "gnnerator",
              **overrides) -> SweepPoint:
    """Build the point for ``spec`` on ``platform``.

    GPU and HyGCN latencies do not depend on the accelerator dataflow
    knobs, so those are normalised away — one cache entry serves every
    sweep that touches the same (dataset, network, hidden_dim).
    """
    fields = dict(dataset=spec.dataset, network=spec.network,
                  feature_block=spec.feature_block,
                  traversal=spec.traversal, hidden_dim=spec.hidden_dim)
    if platform in ("gpu", "hygcn"):
        fields["feature_block"] = None
        fields["traversal"] = DST_STATIONARY
    fields.update(overrides)
    return SweepPoint(platform=platform, **fields)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, de-duplicated collection of sweep points."""

    name: str
    points: tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.points))
        object.__setattr__(self, "points", deduped)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def with_seed(self, seed: int) -> "SweepPlan":
        return SweepPlan(self.name, tuple(replace(p, seed=seed)
                                          for p in self.points))

    @classmethod
    def merged(cls, name: str, *plans: "SweepPlan") -> "SweepPlan":
        points: list[SweepPoint] = []
        for plan in plans:
            points.extend(plan.points)
        return cls(name, tuple(points))


# ---------------------------------------------------------------------
# Plan factories — one per paper artefact grid
# ---------------------------------------------------------------------
def _check_networks(networks: tuple[str, ...]) -> tuple[str, ...]:
    """Validate network names eagerly (plan time, not worker time)."""
    networks = tuple(networks)
    if not networks:
        raise SweepPlanError("networks cannot be empty")
    unknown = [name for name in networks if name not in NETWORK_NAMES]
    if unknown:
        raise SweepPlanError(
            f"unknown networks {unknown}; known networks: "
            f"{', '.join(NETWORK_NAMES)}")
    return networks


def fig3_plan(feature_block: int | None = 64,
              networks: tuple[str, ...] = FIG3_NETWORKS) -> SweepPlan:
    """Fig 3: (datasets x networks) workloads x {GPU, GNNerator,
    GNNerator w/o blocking, HyGCN}. ``networks`` defaults to the paper's
    Table III trio; pass e.g. ``("gat",)`` for the same grid over a zoo
    extension."""
    points: list[SweepPoint] = []
    for spec in fig3_workloads(feature_block, _check_networks(networks)):
        points.append(point_for(spec, "gpu"))
        points.append(point_for(spec, "gnnerator"))
        points.append(point_for(spec.with_block(None), "gnnerator"))
        points.append(point_for(spec, "hygcn"))
    return SweepPlan("fig3", tuple(points))


def fig4_plan(blocks: tuple[int, ...] = FIG4_BLOCKS) -> SweepPlan:
    """Fig 4: the 15-workload suite x every block size (the B = 64
    baseline points are always included)."""
    points: list[SweepPoint] = []
    specs = fig4_workloads()
    for spec in specs:
        points.append(point_for(spec.with_block(64)))
    for block in blocks:
        for spec in specs:
            points.append(point_for(spec.with_block(block)))
    return SweepPlan("fig4", tuple(points))


def fig5_candidates(spec: WorkloadSpec,
                    seed: int = 0) -> dict[str, tuple[SweepPoint, ...]]:
    """Each Fig 5 design's candidate points on ``spec``, by name.

    A design is its override set (:func:`fig5_overrides`), and Fig 5
    reports its fastest candidate. The doubled Dense Engine has two:
    the compiler auto-tunes the feature block between the new and the
    old array widths (B = 128 and B = 64)."""
    designs = {}
    for name, overrides in fig5_overrides().items():
        sets = [overrides]
        if name == "more-dense-compute":
            sets.append(freeze_overrides({**dict(overrides),
                                          "feature_block": 64}))
        designs[name] = tuple(point_for(spec, seed=seed,
                                        config_overrides=candidate)
                              for candidate in sets)
    return designs


def fig5_plan(hidden_dims: tuple[int, ...] = FIG5_HIDDEN_DIMS,
              network: str = "gcn") -> SweepPlan:
    """Fig 5: the baseline plus every candidate of the three scaled-up
    designs (:func:`fig5_candidates`) per (dataset, hidden)."""
    points: list[SweepPoint] = []
    for spec in fig5_workloads(hidden_dims, network):
        points.append(point_for(spec))
        for candidates in fig5_candidates(spec).values():
            points.extend(candidates)
    return SweepPlan("fig5", tuple(points))


def table1_plan(dataset: str = "pubmed",
                feature_block: int | None = None) -> SweepPlan:
    """Table I: compiled DRAM traffic for both traversal orders."""
    points = []
    for order in (SRC_STATIONARY, DST_STATIONARY):
        spec = WorkloadSpec(dataset=dataset, network="gcn",
                            feature_block=feature_block, traversal=order)
        points.append(point_for(spec, metric=METRIC_TRAFFIC))
    return SweepPlan("table1", tuple(points))


def table5_plan() -> SweepPlan:
    """Table V: GNNerator (with / without blocking) vs HyGCN on GCN."""
    points: list[SweepPoint] = []
    for dataset in FIG3_DATASETS:
        spec = WorkloadSpec(dataset=dataset, network="gcn")
        points.append(point_for(spec, "hygcn"))
        points.append(point_for(spec, "gnnerator"))
        points.append(point_for(spec.with_block(None), "gnnerator"))
    return SweepPlan("table5", tuple(points))


def smoke_plan() -> SweepPlan:
    """A tiny cross-platform plan for CI smoke runs (seconds, not
    minutes): cora-gcn on every platform plus one citeseer point."""
    cora = WorkloadSpec(dataset="cora", network="gcn")
    citeseer = WorkloadSpec(dataset="citeseer", network="gcn")
    return SweepPlan("smoke", (
        point_for(cora, "gnnerator"),
        point_for(cora.with_block(None), "gnnerator"),
        point_for(cora, "gpu"),
        point_for(cora, "hygcn"),
        point_for(citeseer, "gnnerator"),
        point_for(citeseer, "gpu"),
    ))


def scale_plan() -> SweepPlan:
    """The million-edge scale-up grid: flickr on every platform (with
    and without blocking) plus the reddit-s GCN point. Warm-cache cost
    is dominated by the one reddit-s compile (~5s); the first-ever run
    additionally pays dataset synthesis (~12s total)."""
    flickr_gcn = WorkloadSpec(dataset="flickr", network="gcn")
    flickr_gat = WorkloadSpec(dataset="flickr", network="gat")
    reddit_gcn = WorkloadSpec(dataset="reddit-s", network="gcn")
    return SweepPlan("scale", (
        point_for(flickr_gcn, "gnnerator"),
        point_for(flickr_gcn.with_block(None), "gnnerator"),
        point_for(flickr_gcn, "gpu"),
        point_for(flickr_gcn, "hygcn"),
        point_for(flickr_gat, "gnnerator"),
        point_for(reddit_gcn, "gnnerator"),
    ))


#: Plan registry for the ``repro sweep`` CLI.
PLAN_NAMES = ("fig3", "fig4", "fig5", "table1", "table5", "smoke",
              "scale", "all")


def build_plan(name: str, seed: int = 0,
               networks: tuple[str, ...] | None = None) -> SweepPlan:
    """Resolve a plan by CLI name (``all`` merges every latency grid).

    ``networks`` restricts / redirects the Fig-3-style grid to the given
    zoo networks (``repro sweep --network gat``); only the ``fig3`` plan
    supports it.
    """
    if networks is not None and name != "fig3":
        raise SweepPlanError(
            f"--network applies to the fig3 grid only, not {name!r}")
    factories = {
        "fig3": fig3_plan,
        "fig4": fig4_plan,
        "fig5": fig5_plan,
        "table1": table1_plan,
        "table5": table5_plan,
        "smoke": smoke_plan,
        "scale": scale_plan,
    }
    if name == "all":
        plan = SweepPlan.merged("all", fig3_plan(), fig4_plan(),
                                fig5_plan(), table5_plan(), table1_plan())
    elif name == "fig3" and networks is not None:
        plan = fig3_plan(networks=networks)
    elif name in factories:
        plan = factories[name]()
    else:
        raise SweepPlanError(
            f"unknown plan {name!r}; known plans: {', '.join(PLAN_NAMES)}")
    return plan.with_seed(seed) if seed else plan
