"""Regression test: Ctrl-C against a running ProcessPoolScheduler must
kill the worker processes and exit 130 — not block until every queued
point finishes (the old ``pool.map`` inside ``with`` behaviour, whose
``__exit__`` waited on workers the interrupt never reached)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Runs a pool whose workers block near-forever. A spawned worker
#: re-imports this script as ``__mp_main__`` (a forked one inherits
#: it), so the worker fn must live at module level of the script.
DRIVER = """\
import os
import sys
import time

sys.path.insert(0, {src!r})


class Point:
    # Just enough surface for the scheduler's preload/seed plumbing.
    dataset = "no-such-dataset"
    seed = 0


def block_until_killed(point):
    token = os.path.join({tokens!r}, f"worker-{{os.getpid()}}.tok")
    open(token, "w").close()
    time.sleep(600)  # far beyond the test timeout: must be terminated


if __name__ == "__main__":
    from repro.sweep.runner import ProcessPoolScheduler

    scheduler = ProcessPoolScheduler(jobs=2,
                                     worker_fn=block_until_killed)
    print("pool-starting", flush=True)
    try:
        scheduler.run([Point() for _ in range(8)])
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)
"""


def _wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_sigint_kills_workers_and_exits_130(tmp_path):
    tokens = tmp_path / "tokens"
    tokens.mkdir()
    script = tmp_path / "driver.py"
    script.write_text(DRIVER.format(src=str(REPO_ROOT / "src"),
                                    tokens=str(tokens)))
    process = subprocess.Popen([sys.executable, str(script)],
                               cwd=tmp_path, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    try:
        # Wait until at least one worker is provably inside the
        # blocking call, then interrupt the parent.
        _wait_for(lambda: any(tokens.iterdir()), timeout=60.0,
                  message="no worker ever started")
        process.send_signal(signal.SIGINT)
        out, _ = process.communicate(timeout=30.0)
        assert process.returncode == 130, out
        # The workers were mid-sleep(600); the scheduler must have
        # terminated them rather than letting them run to completion.
        pids = [int(path.stem.split("-")[1])
                for path in tokens.iterdir()]
        assert pids
        for pid in pids:
            _wait_for(lambda pid=pid: not _alive(pid), timeout=15.0,
                      message=f"worker {pid} outlived the interrupt")
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


@pytest.mark.parametrize("extra_thread", [False, True],
                         ids=["main-thread-only", "extra-thread-alive"])
def test_scheduler_still_returns_results_normally(extra_thread):
    """The cancellable-futures rewrite must keep plan-order results
    byte-identical to the old pool.map path, with forked workers (only
    the main thread alive) and with spawned ones (an extra thread, as
    in the serve daemon)."""
    from repro.sweep.plan import build_plan
    from repro.sweep.runner import ProcessPoolScheduler

    points = build_plan("smoke").points
    serial = ProcessPoolScheduler(jobs=1).run(points)
    release = threading.Event()
    parked = threading.Thread(target=release.wait, daemon=True)
    if extra_thread:
        parked.start()
    try:
        pooled = ProcessPoolScheduler(jobs=2).run(points)
    finally:
        release.set()
    if extra_thread:
        parked.join()
    assert [r.point for r in pooled] == [r.point for r in serial]
    assert [r.metrics for r in pooled] == [r.metrics for r in serial]
    assert all(r.ok for r in pooled)
