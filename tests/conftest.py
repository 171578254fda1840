"""Shared fixtures: small graphs and shrunken platform configurations.

The ``tiny_config`` fixture shrinks every on-chip buffer so that even
60-node graphs produce multi-shard grids, dense partial-sum spills and
edge-buffer evictions — the machinery full-size buffers would hide.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

import pytest
from hypothesis import HealthCheck, settings

from repro.compiler.store import PROGRAM_CACHE_ENV
from repro.config.accelerator import (
    DenseEngineConfig,
    DramConfig,
    GNNeratorConfig,
    GraphEngineConfig,
)
from repro.graph.generators import erdos_renyi, path_graph, star_graph

# Pin the hypothesis profile so CI is deterministic: ``derandomize``
# derives examples from the test body instead of global entropy, so a
# green CI run stays green until the code (or a strategy) changes.
# Local runs keep exploring fresh examples (the "repro-dev" profile) so
# the fuzz suites don't degrade into a static test set everywhere.
settings.register_profile(
    "repro-ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "repro-dev",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro-ci" if os.environ.get("CI") else "repro-dev")

# Every compile in the test suite runs the repro.analysis verifier
# pipeline (edge coverage, DMA conservation, channel protocol, token
# liveness, schedulability, plan agreement) — a mis-lowered program
# fails at compile time with a named pass instead of as a cycle drift.
os.environ.setdefault("REPRO_VERIFY", "1")

# Every default program store in the session — ``Harness()`` and the
# subprocesses tests start — lives in one temp dir, removed at exit,
# never the checkout's ``.program-cache/``: a rerun of the suite then
# compiles what the first run compiled, instead of hitting its entries.
# Tests of the store's location set the variable themselves.
_PROGRAM_STORE = tempfile.TemporaryDirectory(prefix="repro-test-programs-")
os.environ[PROGRAM_CACHE_ENV] = _PROGRAM_STORE.name


@pytest.fixture(scope="session")
def small_graph():
    """60 nodes, 300 edges, 20-dim features — multi-shard under tiny
    buffers, single-shard under real ones."""
    return erdos_renyi(60, 300, feature_dim=20, seed=5)


@pytest.fixture(scope="session")
def medium_graph():
    """Bigger random graph for load-bearing integration checks."""
    return erdos_renyi(500, 4000, feature_dim=48, seed=9)


@pytest.fixture()
def tiny_path():
    return path_graph(6, feature_dim=4, seed=1)


@pytest.fixture()
def hub_star():
    return star_graph(40, feature_dim=8, seed=2)


def make_tiny_config(feature_block: int | None = 8) -> GNNeratorConfig:
    """A GNNerator with droplet-sized buffers (forces S > 1 everywhere)."""
    return GNNeratorConfig(
        name="tiny",
        dense=DenseEngineConfig(
            rows=8, cols=8,
            input_buffer_bytes=2048,
            weight_buffer_bytes=2048,
            output_buffer_bytes=512),
        graph=GraphEngineConfig(
            num_gpes=4, simd_width=4,
            src_feature_buffer_bytes=2048,
            dst_feature_buffer_bytes=2048,
            edge_buffer_bytes=1024),
        dram=DramConfig(bandwidth_bytes_per_s=64e9,
                        burst_latency_cycles=10),
        feature_block=feature_block,
    )


@pytest.fixture()
def tiny_config():
    return make_tiny_config()


@pytest.fixture(scope="session")
def default_config():
    return GNNeratorConfig()


def energy_oracle(program, result):
    """The energy model as one walk over ``program.order`` per call —
    the loop :func:`repro.eval.energy.estimate_energy` memoizes per
    program, kept here as the reference it must equal bit for bit."""
    from repro.eval import energy

    report = energy.EnergyReport()
    for op in program.order:
        macs = energy._op_macs(op)
        sram = energy._op_sram_bytes(op)
        if macs or sram:
            kind = type(op).__name__
            pj = macs * energy.MAC_PJ + sram * energy.SRAM_PJ_PER_BYTE
            report.compute_pj += macs * energy.MAC_PJ
            report.sram_pj += sram * energy.SRAM_PJ_PER_BYTE
            report.breakdown[kind] = report.breakdown.get(kind, 0.0) + pj
    report.dram_pj = result.total_dram_bytes * energy.DRAM_PJ_PER_BYTE
    report.sram_pj += result.total_dram_bytes * energy.SRAM_PJ_PER_BYTE
    report.idle_pj = result.cycles * energy.IDLE_PJ_PER_CYCLE
    return report


def replace(obj, **kwargs):
    """Terse dataclasses.replace re-export for test readability."""
    return dataclasses.replace(obj, **kwargs)
