"""Static analysis: machine-checked contracts over programs and code.

Two halves (DESIGN.md §9):

* :mod:`repro.analysis.verify` — IR verifier passes over a compiled
  :class:`~repro.compiler.program.Program` and its coalesced plan.
  Every invariant the simulator relies on dynamically (edge coverage,
  DMA byte conservation, channel protocol, token liveness,
  plan/program agreement) is checked statically, without simulating.
* :mod:`repro.analysis.lint` — an AST linter over the repository
  itself, encoding the codebase contracts written down in DESIGN.md
  §§4–8 (wallclock-free kernels, probe-gated purity, atomic cache
  writes, locked memo mutation, registry-only metrics, layering).
"""

from repro.analysis.lint import LintFinding, lint_paths, lint_repo
from repro.analysis.report import PassResult, VerifyReport
from repro.analysis.verify import VerificationError, verify_program

__all__ = [
    "LintFinding",
    "PassResult",
    "VerificationError",
    "VerifyReport",
    "lint_paths",
    "lint_repo",
    "verify_program",
]
