"""Parallel sweep engine: declarative plans, sharded execution, and a
content-addressed persistent result cache.

The evaluation grids of the paper (Fig 3/4/5, Tables I/V) are large
(dataset x network x platform x config) products; this package turns
them into data (:mod:`repro.sweep.plan`), shards them across worker
processes (:mod:`repro.sweep.runner`), and memoises every computed
point on disk keyed by config + workload + code version
(:mod:`repro.sweep.cache`), so repeated sweeps and CI smoke runs skip
already-computed points entirely.

Entry points::

    from repro.sweep import SweepRunner, ResultCache, fig3_plan

    runner = SweepRunner(jobs=4, cache=ResultCache(".sweep-cache"))
    result = runner.run(fig3_plan())
    print(result.summary())

or from the command line: ``python -m repro sweep fig3 --jobs 4``.
"""

from repro.persist import code_version_hash
from repro.sweep.cache import (
    DatasetCache,
    NullCache,
    ResultCache,
    cache_key,
    result_cache_at,
)
from repro.sweep.plan import (
    METRIC_DSE,
    METRIC_LATENCY,
    METRIC_TRAFFIC,
    PLAN_NAMES,
    SweepPlan,
    SweepPlanError,
    SweepPoint,
    build_plan,
    fig3_plan,
    fig4_plan,
    fig5_plan,
    point_for,
    smoke_plan,
    table1_plan,
    table5_plan,
)
from repro.sweep.runner import (
    PointResult,
    ProcessPoolScheduler,
    Scheduler,
    SweepError,
    SweepResult,
    SweepRunner,
    evaluate_point,
    run_point,
)

__all__ = [
    "DatasetCache",
    "NullCache",
    "ResultCache",
    "cache_key",
    "code_version_hash",
    "result_cache_at",
    "METRIC_DSE",
    "METRIC_LATENCY",
    "METRIC_TRAFFIC",
    "PLAN_NAMES",
    "SweepPlan",
    "SweepPlanError",
    "SweepPoint",
    "build_plan",
    "fig3_plan",
    "fig4_plan",
    "fig5_plan",
    "point_for",
    "smoke_plan",
    "table1_plan",
    "table5_plan",
    "PointResult",
    "ProcessPoolScheduler",
    "Scheduler",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "evaluate_point",
    "run_point",
]
