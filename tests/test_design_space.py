"""Design-space golden: every single-knob variant of the default space.

The differential goldens use one small test config and the fig3 and
large-scale goldens use Table IV, so none of them moves a hardware
knob. This golden does: the Table IV base plus each of the 20
single-knob variants of the ``default`` DSE space (every knob moved to
each of its other two rungs), on tiny and cora x every zoo network
plus pubmed x gcn and gat — 252 DSE evaluations. Pubmed is in because
no buffer knob moves cora's interval size.

Each row pins the DSE objectives a search ranks designs by: cycles,
``energy_pj``, ``area_mm2`` and ``total_dram_bytes``. To regenerate
after an *intentional* modelling change::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_design_space.py

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.passes.plan import check_plan_agreement
from repro.compiler.lowering import program_geometry, resolve_geometry
from repro.config.workload import WorkloadSpec
from repro.dse.space import default_design_space
from repro.eval.harness import Harness
from repro.models.zoo import NETWORK_NAMES

GOLDEN_PATH = Path(__file__).parent / "goldens" / "design_space.json"

#: Cycles and DRAM bytes are integers and must match exactly; energy
#: and area are float sums, compared to a last-ulp tolerance.
RTOL = 1e-12
FIELDS = ("cycles", "energy_pj", "area_mm2", "total_dram_bytes")

WORKLOADS = tuple(
    [("tiny", network) for network in NETWORK_NAMES]
    + [("cora", network) for network in NETWORK_NAMES]
    + [("pubmed", "gcn"), ("pubmed", "gat")])


def design_variants() -> list[tuple[str, dict[str, float]]]:
    """``("base", {})`` plus one ``(label, overrides)`` per single-knob
    move of the default space away from its Table IV rung."""
    space = default_design_space()
    variants: list[tuple[str, dict[str, float]]] = [("base", {})]
    for knob in space.knobs:
        section, _, field = knob.path.rpartition(".")
        owner = getattr(space.base, section) if section else space.base
        for value in knob.values:
            if value != getattr(owner, field):
                variants.append((f"{knob.path}={value}",
                                 {knob.path: value}))
    return variants


def _compute(harness: Harness) -> dict:
    space = default_design_space()
    payload: dict[str, dict[str, dict[str, float]]] = {}
    for dataset, network in WORKLOADS:
        spec = WorkloadSpec(dataset=dataset, network=network)
        rows = payload[spec.label] = {}
        for label, overrides in design_variants():
            metrics = harness.gnnerator_dse_metrics(
                spec, space.config_for(overrides))
            rows[label] = {field: metrics[field] for field in FIELDS}
    return payload


def _diff(expected: dict, actual: dict) -> list[str]:
    """One line per workload, design or field that drifted."""
    lines = []
    for workload in sorted(set(expected) | set(actual)):
        exp_rows = expected.get(workload, {})
        act_rows = actual.get(workload, {})
        for label in sorted(set(exp_rows) | set(act_rows)):
            exp, act = exp_rows.get(label), act_rows.get(label)
            if exp is None or act is None:
                lines.append(f"{workload}/{label}: golden {exp}, got {act}")
                continue
            for field in FIELDS:
                e, a = exp[field], act[field]
                exact = field in ("cycles", "total_dram_bytes")
                if (e != a if exact
                        else abs(a - e) > RTOL * max(abs(e), 1e-12)):
                    lines.append(f"{workload}/{label}.{field}: "
                                 f"expected {e!r}, got {a!r}")
    return lines


@pytest.fixture(scope="module")
def evaluated() -> tuple[Harness, dict]:
    """One harness holding every row's program, and the rows."""
    harness = Harness(program_store=None)
    return harness, _compute(harness)


def test_design_space_matches_golden(evaluated):
    _, actual = evaluated
    if os.environ.get("REGEN_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1,
                                          sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; regenerate "
                    f"with REGEN_GOLDENS=1")
    drift = _diff(json.loads(GOLDEN_PATH.read_text()), actual)
    assert not drift, (
        "design-space objectives drifted from the golden:\n  "
        + "\n  ".join(drift[:40])
        + (f"\n  ... ({len(drift) - 40} more)" if len(drift) > 40 else "")
        + "\n(intentional modelling change? regenerate with "
          "REGEN_GOLDENS=1 and review the JSON diff)")


def test_golden_covers_every_variant():
    golden = json.loads(GOLDEN_PATH.read_text())
    labels = {label for label, _ in design_variants()}
    assert len(labels) == 21
    assert len(golden) == len(WORKLOADS) == 12
    for rows in golden.values():
        assert set(rows) == labels
        for row in rows.values():
            assert set(row) == set(FIELDS)
            assert row["cycles"] > 0 and row["energy_pj"] > 0


def test_program_geometry_matches_resolved(evaluated):
    """A store hit reads its geometry off the loaded program's grids; a
    miss resolves it from the config through the interval probes. For
    every golden row the two must agree, or store hits would seed the
    structure memo under keys no miss ever looks up."""
    harness, _ = evaluated
    space = default_design_space()
    for dataset, network in WORKLOADS:
        spec = WorkloadSpec(dataset=dataset, network=network)
        graph, model = harness.graph(dataset), harness.model(spec)
        for label, overrides in design_variants():
            config = space.config_for(overrides)
            program = harness.gnnerator_program(spec, config)
            assert program_geometry(program, graph, config) \
                == resolve_geometry(graph, model, config, spec.traversal), (
                    f"{spec.label}/{label}")


def test_retimed_plans_agree_with_the_derivation(evaluated):
    """Every row's plan — most rows re-time a structure another row
    lowered — matches the plan-agreement pass's op-by-op derivation
    from the queues and the row's cost lists."""
    harness, _ = evaluated
    space = default_design_space()
    for dataset, network in WORKLOADS:
        spec = WorkloadSpec(dataset=dataset, network=network)
        for label, overrides in design_variants():
            config = space.config_for(overrides)
            result = check_plan_agreement(
                harness.gnnerator_program(spec, config), config)
            assert result.ok, (spec.label, label, result.failures[:3])
