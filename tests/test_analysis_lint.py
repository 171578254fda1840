"""Unit tests for the codebase contract linter.

Each rule is fed synthetic sources under fake package-relative paths —
one that violates the contract and one that honours it — plus a final
check that the real tree is clean (the CI gate).
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import (
    SourceFile,
    lint_repo,
    lint_source,
    rule_atomic_writes,
    rule_layering,
    rule_locked_memo_mutation,
    rule_metric_naming,
    rule_no_unpickling_outside_store,
    rule_no_wallclock_in_kernel,
    rule_probe_gated_purity,
)


def src(rel: str, text: str) -> SourceFile:
    return SourceFile(path=Path("/dev/null"), rel=rel,
                      tree=ast.parse(text))


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestNoWallclock:
    def test_flags_time_import_in_sim(self):
        findings = list(rule_no_wallclock_in_kernel(
            src("sim/kernel.py", "import time\nfrom random import random\n")))
        assert len(findings) == 2
        assert all(f.rule == "no-wallclock-in-kernel" for f in findings)

    def test_flags_compiler_runtime(self):
        findings = list(rule_no_wallclock_in_kernel(
            src("compiler/runtime.py", "import datetime\n")))
        assert len(findings) == 1

    def test_allows_time_elsewhere(self):
        assert not list(rule_no_wallclock_in_kernel(
            src("eval/hostperf.py", "import time\n")))
        assert not list(rule_no_wallclock_in_kernel(
            src("sim/kernel.py", "import heapq\nfrom collections import deque\n")))


class TestProbeGatedPurity:
    def test_flags_scheduler_mutation_under_guard(self):
        findings = list(rule_probe_gated_purity(src("sim/kernel.py", """
def run(probe=None):
    state = []
    if probe is not None:
        state.append(1)
""")))
        assert rules_of(findings) == ["probe-gated-purity"]

    def test_flags_foreign_call_under_flag_guard(self):
        findings = list(rule_probe_gated_purity(src("engines/executor.py", """
def run(probe=None):
    rec = probe is not None
    if rec:
        launch_missiles()
""")))
        assert rules_of(findings) == ["probe-gated-purity"]

    def test_allows_probe_rooted_recording(self):
        assert not list(rule_probe_gated_purity(src("sim/memory.py", """
def run(probe=None):
    rec = probe is not None
    if rec:
        probe_busy = probe.busy
        meta_idx = [0] * 4
    if rec:
        index = meta_idx[0]
        meta_idx[0] = index + 1
        probe_busy.append((index, 1))
        probe.dram.append(index)
""")))


class TestAtomicWrites:
    def test_flags_bare_write(self):
        findings = list(rule_atomic_writes(src("sweep/cache.py", """
def save(path, text):
    with open(path, "w") as fh:
        fh.write(text)
""")))
        assert rules_of(findings) == ["atomic-writes"]

    def test_allows_tmp_plus_replace(self):
        assert not list(rule_atomic_writes(src("sweep/cache.py", """
import os
def save(path, text, tmp):
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
""")))

    def test_allows_tmp_plus_exclusive_link(self):
        # The exclusive-create publish (queue manifest): link a fully
        # written tmp into place, EEXIST = lost the creation race.
        assert not list(rule_atomic_writes(src("sweep/cache.py", """
import os
def publish(path, text, tmp):
    with open(tmp, "w") as fh:
        fh.write(text)
    os.link(tmp, path)
    os.unlink(tmp)
""")))

    def test_reads_are_fine(self):
        assert not list(rule_atomic_writes(src("sweep/cache.py", """
def load(path):
    with open(path) as fh:
        return fh.read()
""")))

    def test_non_cache_modules_exempt(self):
        assert not list(rule_atomic_writes(src("eval/report.py", """
def save(path, text):
    open(path, "w").write(text)
""")))

    @pytest.mark.parametrize("opener", [
        'open(path, "ab")',
        'open(path, mode="a")',
        "os.open(path, os.O_WRONLY | os.O_APPEND)",
        "os.open(path, os.O_RDWR | os.O_CREAT, 0o644)",
        "os.open(path, flags)",
    ])
    def test_flags_stray_appends_and_raw_opens(self, opener):
        findings = list(rule_atomic_writes(src("sweep/cache.py", f"""
import os
def log(path, line, flags):
    fd = {opener}
    os.write(fd, line)
""")))
        assert rules_of(findings) == ["atomic-writes"]

    def test_allows_an_append_in_the_named_appender_only(self):
        body = """
import os
def {name}(path, line):
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    os.write(fd, line)
"""
        assert not list(rule_atomic_writes(src(
            "sweep/cache.py", body.format(name="_append_record"))))
        assert rules_of(rule_atomic_writes(src(
            "sweep/cache.py", body.format(name="_append")))) == [
            "atomic-writes"]
        assert rules_of(rule_atomic_writes(src(
            "persist.py", body.format(name="_append_record")))) == [
            "atomic-writes"]
        assert rules_of(rule_atomic_writes(src("sweep/cache.py", """
def _append_record(path, text):
    open(path, "w").write(text)
"""))) == ["atomic-writes"]

    def test_read_only_raw_opens_are_fine(self):
        assert not list(rule_atomic_writes(src("sweep/cache.py", """
import os
def peek(path):
    return os.read(os.open(path, os.O_RDONLY), 1)
""")))


class TestLockedMemoMutation:
    def test_flags_unlocked_mutation(self):
        findings = list(rule_locked_memo_mutation(
            src("graph/partition.py", """
def grid_lock(graph):
    return _GRID_LOCKS.setdefault(graph, object())
""")))
        assert rules_of(findings) == ["locked-memo-mutation"]

    def test_allows_mutation_under_lock(self):
        assert not list(rule_locked_memo_mutation(
            src("graph/partition.py", """
def grid_lock(graph):
    with _GRID_LOCKS_GUARD:
        return _GRID_LOCKS.setdefault(graph, object())
""")))

    def test_init_exempt(self):
        assert not list(rule_locked_memo_mutation(src("eval/harness.py", """
class Harness:
    def __init__(self):
        self._params = {}
""")))

    def test_flags_unlocked_store_count(self):
        findings = list(rule_locked_memo_mutation(src("persist.py", """
class ContentStore:
    def _count(self, name):
        self._counts[name] += 1
""")))
        assert rules_of(findings) == ["locked-memo-mutation"]

    def test_flags_self_attr_outside_lock(self):
        findings = list(rule_locked_memo_mutation(src("eval/harness.py", """
class Harness:
    def compile(self, key):
        self._params[key] = 1
""")))
        assert rules_of(findings) == ["locked-memo-mutation"]


class TestNoUnpicklingOutsideStore:
    def test_flags_calls_references_and_imports(self):
        findings = list(rule_no_unpickling_outside_store(
            src("sweep/cache.py", """
import pickle
from pickle import Unpickler, dumps, loads

def read(handle):
    return pickle.load(handle), pickle.loads(handle.read())

class Reader(pickle.Unpickler):
    pass
""")))
        assert set(rules_of(findings)) == {"no-unpickling-outside-store"}
        assert sorted(finding.line for finding in findings) == [
            3, 3, 6, 6, 8]

    def test_follows_module_aliases_and_allow_pickle(self):
        findings = list(rule_no_unpickling_outside_store(
            src("sweep/cache.py", """
import _pickle
import numpy as np
import pickle as pk
from _pickle import Unpickler
from pickle import loads as undump

def read(data, path):
    return (pk.loads(data), _pickle.loads(data), undump(data),
            np.load(path, allow_pickle=True))

def write(path, value, flag):
    np.save(path, value, allow_pickle=False)
    return np.load(path), np.load(path, allow_pickle=flag), pk.dumps(1)
""")))
        assert set(rules_of(findings)) == {"no-unpickling-outside-store"}
        assert sorted(finding.line for finding in findings) == [
            5, 6, 9, 9, 10, 14]
        assert "pk.loads" in " ".join(f.message for f in findings)

    def test_allows_pickling_and_the_program_store(self):
        assert not list(rule_no_unpickling_outside_store(
            src("sweep/cache.py", """
import pickle

def write(value):
    return pickle.dumps(value, protocol=5)
""")))
        for rel in ("compiler/store.py", "compiler/program.py"):
            assert not list(rule_no_unpickling_outside_store(src(rel, """
import pickle

def read(data):
    return pickle.loads(data)
""")))


class TestMetricNaming:
    def test_flags_raw_instrument_import(self):
        findings = list(rule_metric_naming(src("serve/server.py", """
from repro.obs.metrics import Counter
""")))
        assert rules_of(findings) == ["metric-naming"]

    def test_allows_registry_and_obs_itself(self):
        assert not list(rule_metric_naming(src("serve/server.py", """
from repro.obs.metrics import MetricRegistry, render_prometheus
from collections import Counter
""")))
        assert not list(rule_metric_naming(src("obs/__init__.py", """
from repro.obs.metrics import Counter, Gauge
""")))


class TestLayering:
    def test_flags_upward_import(self):
        findings = list(rule_layering(src("config/accelerator.py", """
from repro.eval.harness import Harness
""")))
        assert rules_of(findings) == ["layering"]

    def test_sim_may_see_ir_but_not_compiler(self):
        assert not list(rule_layering(src("sim/coalesce.py", """
from repro.compiler.ir import DOUBLE_BUFFER_CREDITS, UNITS
""")))
        for line in ("from repro.compiler.lowering import compile_workload",
                     "from repro.engines.controller import Controller"):
            findings = list(rule_layering(src("sim/coalesce.py",
                                              line + "\n")))
            assert rules_of(findings) == ["layering"], line

    def test_engines_are_cost_models_only(self):
        assert not list(rule_layering(src("engines/graph/gpe.py", """
from repro.config.accelerator import GraphEngineConfig
from repro.graph.partition import Shard
""")))
        for line in ("from repro.sim.coalesce import run_plan",
                     "from repro.compiler.ir import Operation",
                     "from repro.obs.spans import span"):
            findings = list(rule_layering(src("engines/graph/gpe.py",
                                              line + "\n")))
            assert rules_of(findings) == ["layering"], line

    def test_compiler_may_see_model_shapes_but_not_reference(self):
        """A compile computes no values: the reference executor is out
        of the compiler's reach."""
        assert not list(rule_layering(src("compiler/runtime.py", """
from repro.models.layers import Parameters
from repro.models.stages import AggregateStage
""")))
        findings = list(rule_layering(src("compiler/lowering.py", """
from repro.models.reference import reference_forward
""")))
        assert rules_of(findings) == ["layering"]

    def test_function_level_and_type_checking_exempt(self):
        assert not list(rule_layering(src("compiler/lowering.py", """
from typing import TYPE_CHECKING
if TYPE_CHECKING:
    from repro.analysis.verify import VerifyReport

def compile():
    from repro.analysis.verify import verify_program
    return verify_program
""")))

    def test_unknown_package_must_declare(self):
        findings = list(rule_layering(src("newpkg/core.py", "import os\n")))
        assert rules_of(findings) == ["layering"]
        assert "no layering entry" in findings[0].message

    def test_entry_points_unrestricted(self):
        assert not list(rule_layering(src("cli.py", """
from repro.eval.harness import Harness
from repro.dse.engine import run_dse
""")))


class TestDriver:
    def test_lint_source_aggregates_rules(self):
        findings = lint_source(src("sim/kernel.py", """
import time

def run(probe=None):
    if probe is not None:
        global_counter.append(1)
"""))
        assert set(rules_of(findings)) == {"no-wallclock-in-kernel",
                                           "probe-gated-purity"}

    def test_repo_is_clean(self):
        assert lint_repo() == []
