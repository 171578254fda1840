"""Golden regression fixtures for the Fig-3 and Fig-5 speedup grids.

The synthetic datasets and every platform model are deterministic, so
the speedups are too — any drift means a semantic change to the
compiler, the simulator, or a baseline model. These tests pin the full
Fig 3 grid (paper trio + zoo extensions) and the Fig 5 scaling study
against small JSON goldens and fail with a readable per-workload diff
when numbers move.

To regenerate after an *intentional* modelling change::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_goldens.py

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.config.workload import EXTENSION_NETWORKS
from repro.eval.experiments import fig3_speedups, fig5_scaling

GOLDEN_PATH = Path(__file__).parent / "goldens" / "fig3_speedups.json"
FIG5_GOLDEN_PATH = Path(__file__).parent / "goldens" / "fig5_speedups.json"

#: Relative tolerance for golden comparisons. The pipeline is
#: deterministic on one platform; the tolerance only absorbs
#: last-ulp libm differences across BLAS/OS builds.
RTOL = 1e-6


def _compute() -> dict:
    """The golden payload: speedups for the paper grid + extensions."""
    payload: dict[str, dict[str, dict[str, float]]] = {}
    for group, networks in (("fig3", None),
                            ("extensions", EXTENSION_NETWORKS)):
        result = (fig3_speedups() if networks is None
                  else fig3_speedups(networks=networks))
        payload[group] = {
            row.label: {
                "blocked": round(row.speedup_blocked, 9),
                "no_blocking": round(row.speedup_no_blocking, 9),
            }
            for row in result.rows
        }
    return payload


def _diff(expected: dict, actual: dict) -> list[str]:
    """Human-readable drift report: one line per mismatching number."""
    lines = []
    for group in sorted(set(expected) | set(actual)):
        exp_group = expected.get(group, {})
        act_group = actual.get(group, {})
        for label in sorted(set(exp_group) | set(act_group)):
            exp_row = exp_group.get(label)
            act_row = act_group.get(label)
            if exp_row is None:
                lines.append(f"{group}/{label}: NEW (not in golden): "
                             f"{act_row}")
                continue
            if act_row is None:
                lines.append(f"{group}/{label}: MISSING (golden has "
                             f"{exp_row})")
                continue
            for key in sorted(set(exp_row) | set(act_row)):
                if key not in exp_row or key not in act_row:
                    lines.append(f"{group}/{label}.{key}: expected "
                                 f"{exp_row.get(key)}, got "
                                 f"{act_row.get(key)}")
                    continue
                exp_v, act_v = exp_row[key], act_row[key]
                if abs(act_v - exp_v) > RTOL * max(abs(exp_v), 1e-12):
                    ratio = act_v / exp_v if exp_v else float("inf")
                    lines.append(
                        f"{group}/{label}.{key}: expected {exp_v:.9f}, "
                        f"got {act_v:.9f} ({ratio:+.4%} of golden)")
    return lines


def _match_golden(path: Path, actual: dict, what: str) -> None:
    """Compare ``actual`` with the golden at ``path`` (or rewrite the
    golden under ``REGEN_GOLDENS``)."""
    if os.environ.get("REGEN_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(actual, indent=2,
                                   sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(
            f"golden file {path} is missing; regenerate with "
            f"REGEN_GOLDENS=1")
    expected = json.loads(path.read_text())
    drift = _diff(expected, actual)
    assert not drift, (
        f"{what} drifted from the goldens:\n  "
        + "\n  ".join(drift)
        + "\n(intentional modelling change? regenerate with "
          "REGEN_GOLDENS=1 and review the JSON diff)")


def test_fig3_speedups_match_goldens():
    _match_golden(GOLDEN_PATH, _compute(), "Fig-3 speedups")


def test_fig5_speedups_match_goldens():
    """Each Fig 5 design's speedup over the baseline, per (dataset,
    hidden dimension) row and as the Gmean row."""
    actual = {"fig5": {
        row.label: {name: round(speedup, 9)
                    for name, speedup in row.speedups.items()}
        for row in fig5_scaling()}}
    _match_golden(FIG5_GOLDEN_PATH, actual, "Fig-5 speedups")


def test_golden_file_is_wellformed():
    """The checked-in golden covers every expected workload label."""
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden file {GOLDEN_PATH} is missing; regenerate with "
            f"REGEN_GOLDENS=1")
    expected = json.loads(GOLDEN_PATH.read_text())
    assert set(expected) == {"fig3", "extensions"}
    assert "Gmean" in expected["fig3"]
    assert "Gmean" in expected["extensions"]
    assert {"cora-gat", "cora-gin"} <= set(expected["extensions"])
    for group in expected.values():
        for row in group.values():
            assert set(row) == {"blocked", "no_blocking"}
            assert all(v > 0 for v in row.values())
