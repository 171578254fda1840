"""Million-edge scale: pinned cycle goldens and peak-memory guards.

``flickr`` (~89k nodes / 900k edges) runs in every test session — its
warm-cache compile+simulate is sub-second. ``reddit-s`` (~233k nodes /
11.6M edges) costs ~10s to synthesise cold and several seconds to
compile, so its golden and its end-to-end budget assertions are gated
behind ``REPRO_RUN_LARGE=1`` (the scale-smoke CI job and the PR
measurement protocol run them; the default tier-1 suite doesn't).

Regenerate the goldens with ``REGEN_GOLDENS=1 REPRO_RUN_LARGE=1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph.datasets import dataset_stats, load_dataset

GOLDEN_PATH = (Path(__file__).parent / "goldens"
               / "large_scale_cycles.json")

#: Workloads pinned in the golden file; reddit-s rows need the env gate.
ALWAYS = ("flickr-gcn", "flickr-gat")
GATED = ("reddit-s-gcn", "reddit-s-gat")

RUN_LARGE = bool(os.environ.get("REPRO_RUN_LARGE"))


def _cycles(label: str) -> int:
    dataset, network = label.rsplit("-", 1)
    harness = Harness()
    spec = WorkloadSpec(dataset=dataset, network=network, hidden_dim=16)
    return harness.gnnerator_result(spec).cycles


def _golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file {GOLDEN_PATH} is missing; regenerate "
                    f"with REGEN_GOLDENS=1 REPRO_RUN_LARGE=1")
    return json.loads(GOLDEN_PATH.read_text())


def test_regen_goldens_if_requested():
    if not os.environ.get("REGEN_GOLDENS"):
        pytest.skip("set REGEN_GOLDENS=1 to regenerate")
    if not RUN_LARGE:
        pytest.fail("regenerating large-scale goldens needs "
                    "REPRO_RUN_LARGE=1 so every workload is measured")
    payload = {label: _cycles(label) for label in ALWAYS + GATED}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2,
                                      sort_keys=True) + "\n")
    pytest.skip(f"regenerated {GOLDEN_PATH}")


@pytest.mark.parametrize("label", ALWAYS)
def test_flickr_cycles_match_golden(label):
    assert _cycles(label) == _golden()[label], (
        f"{label} cycle count drifted — host-side scaling work must be "
        f"cycle-neutral (REGEN_GOLDENS=1 REPRO_RUN_LARGE=1 to rebase "
        f"an intentional modelling change)")


@pytest.mark.parametrize("label", GATED)
def test_reddit_s_cycles_match_golden(label):
    if not RUN_LARGE:
        pytest.skip("set REPRO_RUN_LARGE=1 to verify the reddit-s "
                    "goldens (cold synthesis ~10s)")
    assert _cycles(label) == _golden()[label]


# ---------------------------------------------------------------------
# Peak-memory guards (subprocess: ru_maxrss is process-lifetime, so a
# fresh interpreter is the only honest measurement)
# ---------------------------------------------------------------------
_MEASURE = textwrap.dedent("""\
    import json, sys, time
    dataset = sys.argv[1]
    simulate = bool(int(sys.argv[2]))
    from repro.eval.harness import Harness
    from repro.eval.hostperf import peak_rss_mb
    from repro.config.workload import WorkloadSpec
    from repro.accelerator import GNNerator
    harness = Harness()
    spec = WorkloadSpec(dataset=dataset, network="gcn", hidden_dim=16)
    config = harness._config(spec, None)
    t0 = time.perf_counter()
    program = harness._compiled(spec, config)
    if simulate:
        result = GNNerator(config).simulate(program)
    wall = time.perf_counter() - t0
    print(json.dumps({"peak_mb": peak_rss_mb(), "wall_s": wall}))
""")


def _measure_subprocess(dataset: str, simulate: bool) -> dict:
    # Warm the persistent dataset cache first so the subprocess
    # measures the load→compile path, not one-time synthesis.
    load_dataset(dataset)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent.parent / "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, dataset, str(int(simulate))],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_flickr_compile_peak_rss_budget():
    """Streaming compile: one shared sorted copy of the edge arrays,
    shard views, untouched (memory-mapped) features. 300 MB leaves
    room for the interpreter + numpy but catches any return to
    per-shard copies or eager feature materialisation."""
    measured = _measure_subprocess("flickr", simulate=False)
    assert measured["peak_mb"] < 300, measured


def test_reddit_s_memory_and_wall_budgets():
    """The ISSUE-5 acceptance bar: warm-cache compile+simulate of
    reddit-s-gcn under 30s with peak RSS below 2x its feature matrix."""
    if not RUN_LARGE:
        pytest.skip("set REPRO_RUN_LARGE=1 to run the reddit-s "
                    "acceptance budgets")
    stats = dataset_stats("reddit-s")
    measured = _measure_subprocess("reddit-s", simulate=True)
    assert measured["peak_mb"] < 2 * stats.feature_megabytes, measured
    assert measured["wall_s"] < 30, measured


def test_flickr_wall_budget():
    """flickr-gcn end-to-end (warm cache) stays interactive."""
    measured = _measure_subprocess("flickr", simulate=True)
    assert measured["wall_s"] < 2, measured
