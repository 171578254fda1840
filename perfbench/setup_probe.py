"""One workload's set-up in a fresh interpreter, timed by the parent.

Usage: ``python3 perfbench/setup_probe.py <workload> <private-dir>``.
Set-up is what a user pays before the first timed operation: interpreter
start, importing the entry points the workload drives, and preparing its
private caches (each cache hashes the source tree for its code-version
key).
"""

import sys
from pathlib import Path


def main(workload: str, directory: Path) -> None:
    from repro.compiler.store import ProgramStore

    programs = ProgramStore(directory / "programs")
    if workload == "compile-pipeline":
        from repro.accelerator import GNNerator  # noqa: F401
        from repro.eval.harness import Harness
        from repro.graph.partition import plan_shards  # noqa: F401

        Harness(program_store=programs)
    elif workload == "dse-campaign":
        from repro.dse import SPACE_PRESETS
        from repro.sweep import ResultCache, SweepRunner

        SweepRunner(jobs=2, cache=ResultCache(directory / "results"))
        SPACE_PRESETS["default"]()
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
