"""The pinned process environment; must run before numpy is imported.

Every run starts from the same recorded state: BLAS/OpenMP pools of one
thread (DSE workers and the compiler's prewarm pool must not
oversubscribe the cores), ``REPRO_VERIFY`` off, the shared synthesized
datasets under ``.bench_work/datasets`` and every temporary file under
``.bench_work/tmp``. Child processes inherit all of it.

:func:`stop_children_at_exit` makes the run's last step stop and reap
every child process, multiprocessing's resource tracker included.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def pin_environment() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("REPRO_VERIFY", None)
    os.environ["REPRO_DATASET_CACHE"] = str(WORK / "datasets")
    # Workloads point this at private stores; nothing else may write
    # a program cache into the checkout.
    os.environ["REPRO_PROGRAM_CACHE"] = "off"
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    paths = [src, str(ROOT / "perfbench")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def child_pids() -> set[int]:
    """Pids of this process's children, reaped or not."""
    pids: set[int] = set()
    try:
        tasks = list(Path("/proc/self/task").iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids.update(int(p) for p in
                        (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def stop_children_at_exit() -> None:
    """Stop and reap every child process when the interpreter exits.

    A spawn pool starts multiprocessing's resource tracker, which is
    left to notice on its own, after this process has gone, that it
    should exit. Registered before multiprocessing is imported, this
    handler runs after multiprocessing's exit finalizers have released
    every semaphore, so nothing restarts the tracker once it is stopped.
    """
    if "multiprocessing.util" in sys.modules:
        raise RuntimeError("stop_children_at_exit must be registered "
                           "before multiprocessing is imported")
    atexit.register(_stop_children)


def _stop_children(grace_s: float = 10.0) -> None:
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waits
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.05)
        except ChildProcessError:
            pass
