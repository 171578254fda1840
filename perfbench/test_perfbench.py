"""Tests of the benchmark itself (not collected by the repository's
tier-1 run; invoke explicitly)::

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run each workload for a few seconds in a subprocess and
check the output contract; the rest exercise the idle guard and the
serve response check in-process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common_env import pin_environment  # noqa: E402

pin_environment()

from common import HostReference, IdleGuardError, Run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session_processes(sid: int) -> list[int]:
    """Processes of session ``sid``, zombies included."""
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            left.append(int(stat.parent.name))
    return left


def _bench(workload: str, seconds: int, trace: int = 0):
    """One run in a session of its own, which must be empty once the
    run has exited: every process it started is stopped and reaped."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    out, err = proc.communicate(timeout=300)
    assert _session_processes(proc.pid) == []
    done = subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
    return done, out.strip().splitlines()


def _check_metrics(lines: list[str], group: str) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == want
    for name in want:  # every metric printed by name with its unit
        assert any(line.split()[:1] == [name]
                   and line.split()[-1] == want[name] for line in lines)
    return result


@pytest.mark.parametrize("workload, seconds", [
    ("compile-pipeline", 6), ("dse-campaign", 5), ("serve-mixed", 8)])
def test_smoke_run_prints_every_end_to_end_metric(workload, seconds):
    proc, lines = _bench(workload, seconds)
    assert proc.returncode == 0, proc.stderr
    result = _check_metrics(lines, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload, seconds", [
    ("compile-pipeline", 6), ("serve-mixed", 8)])
def test_traced_smoke_run_prints_every_per_layer_metric(workload, seconds):
    proc, lines = _bench(workload, seconds, trace=1)
    assert proc.returncode == 0, proc.stderr
    _check_metrics(lines, "per_layer")


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "perfbench" / "pins.json").write_text(
        (BENCH / "pins.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_idle_guard_trips_on_a_busy_thread():
    reference = HostReference()
    reference.sample_once()  # idle: accepted
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            sum(range(1000))

    thread = threading.Thread(target=spin)
    thread.start()
    try:
        with pytest.raises(IdleGuardError, match="other threads"):
            for _ in range(5):
                reference.sample_once()
        # Retries ride out a transient wake-up, not a steady load.
        with pytest.raises(IdleGuardError, match="other threads"):
            reference.sample(1)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_idle_guard_trips_on_a_child_process():
    reference = HostReference()
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(30)"])
    try:
        with pytest.raises(IdleGuardError, match="alive"):
            reference.sample_once()
        time.sleep(0.5)  # past interpreter start-up: idle from here
        with reference.idle_child(child.pid):
            reference.sample(3)  # a registered idle child is tolerated
    finally:
        child.kill()
        child.wait(timeout=10)


def test_idle_guard_trips_on_a_busy_registered_child():
    reference = HostReference()
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        with reference.idle_child(child.pid), \
                pytest.raises(IdleGuardError, match="ran during"):
            for _ in range(20):
                reference.sample_once()
    finally:
        child.kill()
        child.wait(timeout=10)


def test_serve_mix_fits_the_program_memo():
    """Nothing is evicted, so the daemon's memo-miss counts (and with
    them serve.memo_hits_or_coalesced) are fixed by the seed."""
    from repro.eval.harness import Harness
    from repro.sweep import build_plan
    from serve_mixed import DSE_BODY, OPEN_LOOP_REQUESTS, SWEEP_BODY, \
        build_mix

    shapes = {(body["dataset"], body["network"], body["block"],
               body.get("hidden_dim", 16))
              for _, endpoint, body in build_mix(7, OPEN_LOOP_REQUESTS)
              if endpoint == "run"}
    sweep = [point for point in build_plan(SWEEP_BODY["plan"]).points
             if point.platform == "gnnerator"]
    assert (len(shapes) + len(sweep) + DSE_BODY["samples"]
            <= Harness.PROGRAM_CACHE_MAX_ENTRIES)


def test_wrong_cycles_response_counts_as_failed():
    from serve_mixed import Checker

    checker = Checker(seed=0)
    body = {"dataset": "tiny", "network": "gcn", "block": 64}
    checker.expect_run(body)
    want = checker.cycles[checker.key(body)]
    run = Run("serve-mixed", seed=0, seconds=1.0, trace=False)
    for status, cycles in ((200, want), (200, want + 1), (429, None),
                           (500, None), (-1, None)):
        payload = {"result": {"cycles": cycles}} if status == 200 else None
        what = checker.verify("run", body, status, payload)
        run.attempt(not what, what)
    assert (run.attempted, run.failed) == (5, 4)
    run.metric("p50_ms", 1.0, "ms")
    assert run.result(["p50_ms"])["correct"] is False
