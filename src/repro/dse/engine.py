"""The design-space exploration engine.

Drives a :class:`~repro.dse.strategies.SearchStrategy` over a
:class:`~repro.dse.space.DesignSpace`: every proposed candidate is
expanded into one :class:`~repro.sweep.plan.SweepPoint` per workload
(``metric="dse"`` carries latency + area + energy in one simulated
record) and pushed through the existing :class:`SweepRunner` — so
candidate evaluation parallelises across worker processes and resumes
from the persistent :class:`ResultCache` for free; a repeated search
with a warm cache recomputes nothing.

Outcomes per candidate:

* ``invalid`` — the config dataclasses rejected the design
  (:class:`ConfigError`), recorded with the rejection message;
* ``error`` — a workload failed to compile/simulate on the design;
* ``ok`` — objectives aggregated over the workload suite, flagged
  ``feasible`` when the area/power budgets hold.

The result's Pareto frontier minimises (cycles, area_mm2, energy_pj)
over the feasible candidates; any frontier member dominated by *any*
evaluated candidate (possible only through the off-objective power
budget) is discarded, so the published frontier is never dominated by
an evaluated point.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.config.accelerator import ConfigError
from repro.config.overrides import (
    FrozenOverrides,
    fig5_overrides,
    freeze_overrides,
    overrides_between,
)
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.dse.pareto import dominates, pareto_indices
from repro.dse.space import DesignSpace
from repro.dse.strategies import OBJECTIVE_KEYS, SearchStrategy
from repro.sweep.plan import METRIC_DSE, SweepPlan, SweepPoint, point_for
from repro.sweep.runner import SweepRunner


class DseError(RuntimeError):
    """A search-level failure (no workloads, no candidates, ...)."""


@dataclass(frozen=True)
class Budget:
    """User-supplied design constraints a feasible candidate must meet."""

    area_mm2: float | None = None
    power_w: float | None = None

    def violations(self, objectives: dict[str, float]) -> list[str]:
        out = []
        if (self.area_mm2 is not None
                and objectives["area_mm2"] > self.area_mm2):
            out.append(f"area {objectives['area_mm2']:.1f} mm^2 > "
                       f"budget {self.area_mm2:.1f}")
        if (self.power_w is not None
                and objectives["avg_power_w"] > self.power_w):
            out.append(f"power {objectives['avg_power_w']:.2f} W > "
                       f"budget {self.power_w:.2f}")
        return out

    def to_dict(self) -> dict:
        return {"area_mm2": self.area_mm2, "power_w": self.power_w}


def candidate_label(overrides: FrozenOverrides) -> str:
    """Short stable name for one candidate ("base" = no overrides)."""
    if not overrides:
        return "base"
    blob = json.dumps(overrides)
    return f"cand-{hashlib.sha256(blob.encode()).hexdigest()[:8]}"


@dataclass
class DseEvaluation:
    """Outcome of one candidate design over the whole workload suite."""

    overrides: FrozenOverrides
    label: str
    status: str = "ok"  # "ok" | "invalid" | "error"
    message: str | None = None
    objectives: dict[str, float] = field(default_factory=dict)
    feasible: bool = False
    #: Budget-violation messages (empty when feasible or not ok).
    violations: list[str] = field(default_factory=list)
    #: True when every workload point came from the persistent cache.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def vector(self) -> tuple[float, ...]:
        return tuple(self.objectives[key] for key in OBJECTIVE_KEYS)

    def to_dict(self) -> dict:
        return {
            "overrides": dict(self.overrides),
            "label": self.label,
            "status": self.status,
            "message": self.message,
            "objectives": self.objectives,
            "feasible": self.feasible,
            "violations": self.violations,
            "cached": self.cached,
        }


@dataclass
class Fig5Check:
    """One paper reference design measured against the found frontier."""

    name: str
    evaluation: DseEvaluation
    #: Frontier labels that dominate this reference design.
    dominated_by: list[str] = field(default_factory=list)

    @property
    def beaten(self) -> bool:
        return bool(self.dominated_by)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "evaluation": self.evaluation.to_dict(),
            "dominated_by": self.dominated_by,
            "beaten": self.beaten,
        }


@dataclass
class DseResult:
    """Everything one search produced, serialisable for reports/CI."""

    strategy: str
    workloads: list[str]
    budget: Budget
    evaluations: list[DseEvaluation]
    frontier: list[DseEvaluation]
    knobs: dict[str, tuple[float, ...]]
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    fig5: list[Fig5Check] = field(default_factory=list)

    # -- accounting -----------------------------------------------------
    @property
    def num_candidates(self) -> int:
        return len(self.evaluations)

    @property
    def num_invalid(self) -> int:
        return sum(1 for e in self.evaluations if e.status == "invalid")

    @property
    def num_errors(self) -> int:
        return sum(1 for e in self.evaluations if e.status == "error")

    @property
    def num_infeasible(self) -> int:
        return sum(1 for e in self.evaluations if e.ok and not e.feasible)

    @property
    def num_dominated(self) -> int:
        """Feasible candidates dominated off the frontier."""
        feasible = sum(1 for e in self.evaluations if e.feasible)
        return feasible - len(self.frontier)

    def summary(self) -> str:
        return (f"dse[{self.strategy}]: {self.num_candidates} candidates "
                f"({self.num_invalid} invalid, {self.num_errors} errors, "
                f"{self.num_infeasible} over budget, "
                f"{self.num_dominated} dominated) -> "
                f"{len(self.frontier)}-point frontier; cache "
                f"{self.cache_hits} hits / {self.cache_misses} computed "
                f"in {self.elapsed_s:.1f}s")

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "workloads": self.workloads,
            "budget": self.budget.to_dict(),
            "objectives": list(OBJECTIVE_KEYS),
            "knobs": {path: list(values)
                      for path, values in self.knobs.items()},
            "counts": {
                "candidates": self.num_candidates,
                "invalid": self.num_invalid,
                "errors": self.num_errors,
                "infeasible": self.num_infeasible,
                "dominated": self.num_dominated,
                "frontier": len(self.frontier),
            },
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses},
            "elapsed_s": self.elapsed_s,
            "frontier": [e.to_dict() for e in self.frontier],
            "evaluations": [e.to_dict() for e in self.evaluations],
            "fig5": [check.to_dict() for check in self.fig5],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class DseEngine:
    """Search orchestrator: strategy in, Pareto frontier out.

    All candidate evaluation flows through ``runner`` (a
    :class:`SweepRunner`), so the engine inherits its execution
    backend wholesale: give the runner a
    :class:`~repro.sweep.runner.Scheduler` — e.g. the crash-tolerant
    :class:`~repro.sweep.dist.FileQueueScheduler` behind ``repro dse
    --scheduler filequeue`` — and every generation's cache misses are
    computed by the fleet, with per-point retry and resume, while the
    search logic here stays byte-identical (candidates are
    deterministic functions of the seed, and results come back in
    plan order whatever computes them).
    """

    def __init__(self, space: DesignSpace, strategy: SearchStrategy,
                 workloads: list[WorkloadSpec], runner: SweepRunner,
                 budget: Budget | None = None, seed: int = 0) -> None:
        if not workloads:
            raise DseError("dse needs at least one workload")
        self.space = space
        self.strategy = strategy
        self.workloads = list(workloads)
        self.runner = runner
        self.budget = budget if budget is not None else Budget()
        self.seed = seed
        self.cache_hits = 0
        self.cache_misses = 0
        # Sweep workers rebuild candidates from the *Table IV* config,
        # so a non-default space base must travel inside the point
        # overrides too — otherwise objectives would silently be
        # measured on the wrong design (and collide in the cache).
        # Raises up front when the base differs in a way the override
        # format cannot carry.
        self._base_overrides = overrides_between(gnnerator_config(),
                                                 space.base)

    # -- candidate evaluation ------------------------------------------
    def _points_for(self, overrides: FrozenOverrides,
                    merge_base: bool = True) -> list[SweepPoint]:
        if merge_base:
            overrides = freeze_overrides({**self._base_overrides,
                                          **dict(overrides)})
        return [point_for(spec, metric=METRIC_DSE, seed=self.seed,
                          config_overrides=overrides)
                for spec in self.workloads]

    def _aggregate(self, evaluation: DseEvaluation,
                   results: list) -> None:
        """Fold per-workload point results into one candidate outcome."""
        failed = [r for r in results if not r.ok]
        if failed:
            first = (failed[0].error or "").splitlines()
            evaluation.status = "error"
            evaluation.message = first[0] if first else "workload failed"
            return
        metrics = [r.metrics for r in results]
        seconds = sum(m["seconds"] for m in metrics)
        energy_pj = sum(m["energy_pj"] for m in metrics)
        energy_j = energy_pj * 1e-12
        objectives = {
            "cycles": sum(m["cycles"] for m in metrics),
            "area_mm2": metrics[0]["area_mm2"],
            "energy_pj": energy_pj,
            "seconds": seconds,
            "total_dram_bytes": sum(m["total_dram_bytes"]
                                    for m in metrics),
            "avg_power_w": energy_j / seconds if seconds > 0 else 0.0,
            "edp_js": energy_j * seconds,
        }
        evaluation.objectives = objectives
        evaluation.violations = self.budget.violations(objectives)
        evaluation.feasible = not evaluation.violations
        evaluation.cached = all(r.cached for r in results)

    def evaluate(self, batch: list[dict], seen: set[FrozenOverrides],
                 merge_base: bool = True) -> list[DseEvaluation]:
        """Evaluate one strategy batch (deduplicated, order-preserving).

        ``merge_base=False`` measures the overrides against the plain
        Table IV config instead of the space's base (used for the
        Fig 5 reference designs, which are the paper's exact picks).
        """
        evaluations: list[DseEvaluation] = []
        pending: list[tuple[DseEvaluation, list[SweepPoint]]] = []
        points: list[SweepPoint] = []
        for overrides in batch:
            frozen = self.space.freeze(overrides)
            if frozen in seen:
                continue
            seen.add(frozen)
            evaluation = DseEvaluation(frozen, candidate_label(frozen))
            evaluations.append(evaluation)
            try:
                # Building the points builds and validates the config.
                candidate_points = self._points_for(frozen, merge_base)
            except ConfigError as exc:
                evaluation.status = "invalid"
                evaluation.message = str(exc)
                continue
            pending.append((evaluation, candidate_points))
            points.extend(candidate_points)
        if points:
            sweep = self.runner.run(SweepPlan("dse", tuple(points)))
            self.cache_hits += sweep.hits
            self.cache_misses += sweep.misses
            for evaluation, candidate_points in pending:
                self._aggregate(evaluation,
                                [sweep.result_for(p)
                                 for p in candidate_points])
        return evaluations

    # -- the search loop ------------------------------------------------
    def run(self) -> DseResult:
        start = time.monotonic()
        seen: set[FrozenOverrides] = set()
        evaluations: list[DseEvaluation] = []
        batch = self.strategy.initial(self.space)
        while batch:
            evaluations.extend(self.evaluate(batch, seen))
            batch = self.strategy.next_batch(self.space, evaluations)
        frontier = self._frontier(evaluations)
        return DseResult(
            strategy=self.strategy.name,
            workloads=[spec.label for spec in self.workloads],
            budget=self.budget,
            evaluations=evaluations,
            frontier=frontier,
            knobs={knob.path: knob.values for knob in self.space.knobs},
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            elapsed_s=time.monotonic() - start,
        )

    def _frontier(self, evaluations: list[DseEvaluation]
                  ) -> list[DseEvaluation]:
        feasible = [e for e in evaluations if e.feasible]
        frontier = [feasible[i] for i in pareto_indices(
            [e.vector() for e in feasible])]
        # An over-power (off-objective budget) candidate may still
        # dominate on the objective axes; keep the published frontier
        # undominated by anything that was evaluated.
        every_ok = [e for e in evaluations if e.ok]
        return [member for member in frontier
                if not any(dominates(other.vector(), member.vector())
                           for other in every_ok)]

    # -- Fig 5 reference check -----------------------------------------
    def check_fig5(self, result: DseResult) -> list[Fig5Check]:
        """Measure the paper's hand-picked designs against the frontier.

        Evaluates the Table IV baseline plus the three Fig 5
        next-generation designs (their override sets,
        :func:`~repro.config.overrides.fig5_overrides`) on the same
        workloads/budgets, and records which discovered frontier
        points dominate each. Appends to ``result.fig5``.

        A reference may itself dominate a frontier member; such
        members are dropped first, preserving the invariant that the
        published frontier is never dominated by an evaluated point.
        """
        references = [("baseline", ()), *fig5_overrides().items()]
        checks = []
        seen: set[FrozenOverrides] = set()
        for name, overrides in references:
            evaluation = self.evaluate([overrides], seen,
                                       merge_base=False)
            if not evaluation:  # duplicate of a previous reference
                continue
            checks.append(Fig5Check(name=name, evaluation=evaluation[0]))
        ok_references = [c.evaluation for c in checks if c.evaluation.ok]
        result.frontier = [
            member for member in result.frontier
            if not any(dominates(ref.vector(), member.vector())
                       for ref in ok_references)]
        for check in checks:
            if check.evaluation.ok:
                check.dominated_by = [
                    member.label for member in result.frontier
                    if dominates(member.vector(),
                                 check.evaluation.vector())]
        result.fig5 = checks
        # The reference evaluations ran after the result snapshot;
        # refresh the cache accounting so warm-run contracts hold.
        result.cache_hits = self.cache_hits
        result.cache_misses = self.cache_misses
        return checks
