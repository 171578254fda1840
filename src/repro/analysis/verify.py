"""Verifier pipeline driver.

Runs every registered pass (:data:`repro.analysis.passes.PASSES`) over
a compiled :class:`~repro.compiler.program.Program` and collects the
results into a :class:`~repro.analysis.report.VerifyReport`. No pass
simulates anything; total cost is a few linear walks over the op
queues plus one abstract scheduling run, so verification is cheap
enough to run on every compile (set ``REPRO_VERIFY=1``; the test suite
turns it on unconditionally).
"""

from __future__ import annotations

from repro.analysis.report import VerifyReport
from repro.compiler.ir import CompileError
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig
from repro.obs.spans import span


class VerificationError(CompileError):
    """A compiled program failed one or more verifier passes."""

    def __init__(self, report: VerifyReport) -> None:
        failures = report.failures
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f"; ... ({len(failures) - 3} more)"
        super().__init__(
            f"program verification failed for {report.workload!r}: "
            f"{shown}")
        self.report = report


def verify_program(program: Program, config: GNNeratorConfig, *,
                   workload: str = "",
                   raise_on_failure: bool = False) -> VerifyReport:
    """Run all verifier passes; returns the report.

    With ``raise_on_failure``, a failing report raises
    :class:`VerificationError` carrying the full report (this is what
    the ``REPRO_VERIFY`` compile hook uses).
    """
    from repro.analysis.passes import PASSES

    report = VerifyReport(workload=workload or "<program>")
    with span("verify", workload=report.workload):
        for _name, pass_fn in PASSES:
            report.passes.append(pass_fn(program, config))
    if raise_on_failure and not report.ok:
        raise VerificationError(report)
    return report
