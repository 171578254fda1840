"""Codebase contract linter.

The simulator's correctness rests on a handful of conventions that
ordinary tests cannot see — determinism (no wall-clock reads on the
simulation path), probe purity (telemetry recording must not perturb
scheduler state), crash-safe files (tmp + ``os.replace``), lock
discipline on shared memos, unpickling only in the program store,
metric construction through the registry, and a declared import
layering. This module machine-checks them with AST rules over the
source tree; ``repro lint`` runs in CI so a violation fails the build
with a file:line finding instead of surfacing as a heisenbug.

Rules are pure functions ``rule(src) -> iterator of findings`` over a
parsed :class:`SourceFile`; each declares which relative paths it
applies to, so tests can feed synthetic sources under fake paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Modules that may never import wall-clock/randomness sources: the
#: deterministic simulation core. ``compiler/runtime.py`` is listed
#: by file because the rest of ``compiler/`` legitimately uses
#: ``time`` for compile-wall telemetry.
_KERNEL_PREFIXES = ("sim/", "engines/")
_KERNEL_FILES = ("compiler/runtime.py",)
_WALLCLOCK_MODULES = ("time", "random", "datetime")

#: Modules whose on-disk writes must be atomic (tmp file +
#: ``os.replace``): a concurrent reader must never observe a torn
#: entry (see DESIGN.md on the content-addressed store). ``persist.py``
#: holds the one publish; the others call it, so a raw write that
#: comes back to one of them is flagged.
_CACHE_FILES = (
    "persist.py",
    "compiler/store.py",
    "graph/datasets.py",
    "sweep/cache.py",
    "sweep/dist/queue.py",
    "eval/hostperf.py",
    "serve/loadtest.py",
)

#: The only modules that may unpickle: the program store, and the lazy
#: op decode of the programs it loads (``compiler/program.py``).
_UNPICKLING_FILES = ("compiler/store.py", "compiler/program.py")
_UNPICKLERS = frozenset({"load", "loads", "Unpickler"})
_PICKLE_MODULES = ("pickle", "_pickle")

#: Shared-memo lock discipline: per module, which top-level names (or
#: ``self.`` attributes) may only be mutated inside ``with <lock>:``.
#: ``__init__`` bodies and module level are exempt (construction
#: precedes sharing).
_LOCKED_MEMOS: dict[str, tuple[tuple[str, ...], str]] = {
    "persist.py": (("self._counts",), "_COUNTS_LOCK"),
    "compiler/lowering.py": (("_FULL_LOWERINGS",), "_MEMO_LOCK"),
    "graph/partition.py": (("_GRID_LOCKS",), "_GRID_LOCKS_GUARD"),
    "eval/harness.py": (
        ("self._params", "self._programs", "self._structures",
         "self._geometries", "self._fingerprints", "self._memo_hits",
         "self._memo_misses", "self._structure_hits",
         "self._structure_misses", "self._compile_locks",
         "self._structure_locks"),
        "self._lock"),
}

_MUTATING_METHODS = frozenset({
    "append", "extend", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "insert",
})

#: Raw metric instruments; construct through
#: :class:`repro.obs.metrics.MetricRegistry` so every instrument is
#: registered (and named) exactly once.
_INSTRUMENT_NAMES = ("Counter", "Gauge", "Histogram", "_Instrument")

#: The import layering. Key: first path component of a module inside
#: the ``repro`` package (or the module name for top-level files).
#: Value: ``repro.*`` import targets the package may name at module
#: level — matched on the first dotted component, or on an exact
#: dotted entry for sanctioned deep imports (e.g. ``sim`` may see the
#: IR's op dataclasses but not the compiler pipeline). Imports inside
#: functions or under ``if TYPE_CHECKING:`` are exempt — they express
#: a runtime collaboration, not an architectural dependency.
_LAYERS: dict[str, frozenset[str]] = {
    "config": frozenset({"config"}),
    "obs": frozenset({"obs"}),
    # The one atomic publish and content store: a leaf every layer
    # that persists a file may import.
    "persist": frozenset({"persist"}),
    "graph": frozenset({"graph", "config", "obs", "persist"}),
    "models": frozenset({"models", "graph", "config"}),
    "dataflow": frozenset({"dataflow", "graph", "config"}),
    "sim": frozenset({"sim", "config", "obs", "compiler.ir"}),
    # Analytic cost models only: the compiler calls them, they call
    # nothing that simulates.
    "engines": frozenset({"engines", "config", "graph"}),
    # Model shapes for the lowering and layer math for the functional
    # runtime, never the reference executor: a compile computes no
    # values.
    "compiler": frozenset({"compiler", "config", "obs", "graph",
                           "models.stages", "models.layers", "dataflow",
                           "engines.dense.systolic", "engines.graph.gpe",
                           "persist"}),
    "analysis": frozenset({"analysis", "compiler", "config", "obs",
                           "graph", "models", "dataflow", "sim"}),
    "accelerator": frozenset({"accelerator", "compiler", "config",
                              "graph", "models", "obs", "sim",
                              "dataflow", "analysis"}),
    "baselines": frozenset({"baselines", "config", "graph", "models",
                            "dataflow"}),
    "sweep": frozenset({"sweep", "config", "graph", "models", "obs",
                        "persist"}),
    "eval": frozenset({"eval", "accelerator", "analysis", "baselines",
                       "compiler", "config", "dataflow", "graph",
                       "models", "obs", "sweep", "sim", "persist"}),
    "dse": frozenset({"dse", "config", "sweep", "eval", "obs"}),
    "serve": frozenset({"serve", "config", "eval", "graph", "models",
                        "obs", "sweep", "persist"}),
}
#: Entry points see everything.
_UNLAYERED = ("cli", "__init__", "__main__")


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message}


@dataclass
class SourceFile:
    """A parsed module plus the relative path rules dispatch on."""

    path: Path          #: absolute path on disk
    rel: str            #: posix path relative to the repro package
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, rel: str) -> "SourceFile":
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
        return cls(path=path, rel=rel, tree=tree)


RuleFn = Callable[[SourceFile], Iterator[LintFinding]]


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _root_name(node: ast.expr) -> str | None:
    """The base Name of an arbitrary Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# -- no-wallclock-in-kernel ---------------------------------------------

def rule_no_wallclock_in_kernel(src: SourceFile) -> Iterator[LintFinding]:
    """The simulation core may not read wall clocks or entropy: cycle
    counts must be a pure function of (program, config)."""
    if (not src.rel.startswith(_KERNEL_PREFIXES)
            and src.rel not in _KERNEL_FILES):
        return
    for node in ast.walk(src.tree):
        names: list[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module.split(".")[0]]
        for name in names:
            if name in _WALLCLOCK_MODULES:
                yield LintFinding(
                    src.rel, node.lineno, "no-wallclock-in-kernel",
                    f"import of {name!r} in the deterministic "
                    f"simulation core")


# -- probe-gated-purity --------------------------------------------------

def _is_probe_guard(test: ast.expr, flags: set[str]) -> bool:
    """``probe is not None`` / ``rec`` where rec holds that compare."""
    if (isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.left, ast.Name)
            and test.left.id == "probe"
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return True
    return isinstance(test, ast.Name) and test.id in flags


def _gated_violations(body: list[ast.stmt], local: set[str],
                      src: SourceFile) -> Iterator[LintFinding]:
    """Check the statements under a probe guard.

    ``local`` is the set of probe-local names — names whose binding
    itself lives under a guard, so mutating them cannot be observed by
    an unprobed run. Allowed: binding/mutating probe-locals, and calls
    rooted at ``probe`` or a probe-local.
    """
    for stmt in body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
                    continue
                if (isinstance(target, (ast.Tuple, ast.List))
                        and all(isinstance(el, ast.Name)
                                for el in target.elts)):
                    local.update(el.id for el in target.elts)
                    continue
                root = _root_name(target)
                if root == "probe" or root in local:
                    continue
                yield LintFinding(
                    src.rel, stmt.lineno, "probe-gated-purity",
                    f"store to non-probe-local "
                    f"{ast.unparse(target)!r} under a probe guard "
                    f"(recording must not perturb scheduler state)")
        elif isinstance(stmt, ast.Expr):
            call = stmt.value
            if not isinstance(call, ast.Call):
                continue
            root = _root_name(call.func)
            if root == "probe" or root in local:
                continue
            yield LintFinding(
                src.rel, stmt.lineno, "probe-gated-purity",
                f"call to {ast.unparse(call.func)!r} under a probe "
                f"guard is not rooted at the probe")
        elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With)):
            yield from _gated_violations(
                stmt.body + getattr(stmt, "orelse", []), local, src)
        else:
            yield LintFinding(
                src.rel, stmt.lineno, "probe-gated-purity",
                f"{type(stmt).__name__} statement under a probe guard")


def rule_probe_gated_purity(src: SourceFile) -> Iterator[LintFinding]:
    """Statements guarded by ``probe is not None`` may only record onto
    the probe (or names bound under such guards) — a probed run must be
    cycle-identical to an unprobed one by construction."""
    if not src.rel.startswith(("sim/", "engines/")):
        return
    for func in ast.walk(src.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        flags: set[str] = set()
        local: set[str] = set()
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _is_probe_guard(node.value, flags)):
                flags.add(node.targets[0].id)
        for node in ast.walk(func):
            if isinstance(node, ast.If) and _is_probe_guard(node.test,
                                                            flags):
                yield from _gated_violations(node.body, local, src)


# -- atomic-writes -------------------------------------------------------

#: The one function that may append to a file in a cache module: the
#: result log's appender, which frames each line with its CRC-32 so a
#: reader tells a torn or damaged line from a record.
_APPENDER = ("sweep/cache.py", "_append_record")

#: ``os.open`` flags that open a file for writing.
_WRITE_FLAGS = frozenset({"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC",
                          "O_APPEND"})


def _write_kind(node: ast.Call) -> str | None:
    """``"append"`` or ``"write"`` when ``node`` opens a file for
    appending or writing, else None. An ``os.open`` whose flags name no
    ``O_*`` constant counts as a write."""
    func = node.func
    if _dotted(func) == "os.open":
        flags = {sub.attr for arg in node.args[1:2]
                 for sub in ast.walk(arg) if isinstance(sub, ast.Attribute)
                 and sub.attr.startswith("O_")}
        if "O_APPEND" in flags:
            return "append"
        return "write" if flags & _WRITE_FLAGS or not flags else None
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2] + [kw.value for kw in node.keywords
                                  if kw.arg == "mode"]
        mode = next((arg.value for arg in modes
                     if isinstance(arg, ast.Constant)
                     and isinstance(arg.value, str)), "")
        if "a" in mode:
            return "append"
        return "write" if any(flag in mode for flag in "wx+") else None
    if (isinstance(func, ast.Attribute)
            and func.attr in ("write_text", "write_bytes")):
        return "write"
    return None


def rule_atomic_writes(src: SourceFile) -> Iterator[LintFinding]:
    """Cache modules must publish files atomically: any function that
    writes must finish with ``os.replace`` (write-to-tmp-then-rename)
    or ``os.link`` (exclusive create from a tmp), so concurrent
    readers never see a torn entry. The one exception is an append in
    :data:`_APPENDER`, whose CRC-framed lines a reader checks."""
    if src.rel not in _CACHE_FILES:
        return
    for func in ast.walk(src.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        allowed: set[str | None] = (
            {None, "append"} if (src.rel, func.name) == _APPENDER
            else {None})
        writes = [node for node in ast.walk(func)
                  if isinstance(node, ast.Call)
                  and _write_kind(node) not in allowed]
        if not writes:
            continue
        replaces = any(
            isinstance(node, ast.Call)
            and _dotted(node.func) in ("os.replace", "os.rename",
                                       "os.link")
            for node in ast.walk(func))
        if not replaces:
            for node in writes:
                yield LintFinding(
                    src.rel, node.lineno, "atomic-writes",
                    f"file write in {func.name!r} without an "
                    f"os.replace in the same function (write to a "
                    f"tmp path, then replace)")


# -- locked-memo-mutation ------------------------------------------------

def _target_key(node: ast.expr) -> str | None:
    """``name`` or ``self.attr`` for the root of a mutation target."""
    while isinstance(node, (ast.Subscript,)):
        node = node.value
    dotted = _dotted(node)
    if dotted is None:
        return None
    if dotted.startswith("self."):
        return ".".join(dotted.split(".")[:2])
    return dotted.split(".")[0]


def _lock_key(item: ast.expr) -> str | None:
    return _dotted(item)


class _LockedMemoVisitor(ast.NodeVisitor):
    def __init__(self, src: SourceFile, targets: tuple[str, ...],
                 lock: str) -> None:
        self.src = src
        self.targets = targets
        self.lock = lock
        self.lock_depth = 0
        self.exempt_depth = 0
        self.findings: list[LintFinding] = []

    def _flag(self, node: ast.stmt | ast.expr, key: str) -> None:
        if self.lock_depth or self.exempt_depth:
            return
        self.findings.append(LintFinding(
            self.src.rel, node.lineno, "locked-memo-mutation",
            f"mutation of shared memo {key!r} outside "
            f"`with {self.lock}:`"))

    # -- scope tracking
    def visit_With(self, node: ast.With) -> None:
        locked = any(_lock_key(item.context_expr) == self.lock
                     for item in node.items)
        self.lock_depth += locked
        self.generic_visit(node)
        self.lock_depth -= locked

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        exempt = node.name == "__init__"
        self.exempt_depth += exempt
        self.generic_visit(node)
        self.exempt_depth -= exempt

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- mutation sites
    def _check_store(self, target: ast.expr, node: ast.stmt) -> None:
        key = _target_key(target)
        if key in self.targets:
            self._flag(node, key)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_store(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS):
            key = _target_key(func.value)
            if key in self.targets:
                self._flag(node, key)
        self.generic_visit(node)


def rule_locked_memo_mutation(src: SourceFile) -> Iterator[LintFinding]:
    """Declared shared memos may only be mutated under their lock;
    construction (module level, ``__init__``) is exempt."""
    config = _LOCKED_MEMOS.get(src.rel)
    if config is None:
        return
    targets, lock = config
    visitor = _LockedMemoVisitor(src, targets, lock)
    # Visit function bodies only: module-level statements are the
    # initial bindings.
    for node in src.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            visitor.visit(node)
    yield from visitor.findings


# -- no-unpickling-outside-store ----------------------------------------

def rule_no_unpickling_outside_store(src: SourceFile
                                     ) -> Iterator[LintFinding]:
    """Unpickling runs whatever code its input names, so only the
    program store may do it: ``load``, ``loads`` and ``Unpickler`` of
    ``pickle`` or ``_pickle``, referenced (through any module alias) or
    imported by name, and any call passing ``allow_pickle`` other than
    ``False`` (``np.load``), are flagged anywhere else."""
    if src.rel in _UNPICKLING_FILES:
        return
    modules = set(_PICKLE_MODULES) | {
        alias.asname for node in ast.walk(src.tree)
        if isinstance(node, ast.Import) for alias in node.names
        if alias.name in _PICKLE_MODULES and alias.asname}
    for node in ast.walk(src.tree):
        if (isinstance(node, ast.ImportFrom)
                and node.module in _PICKLE_MODULES):
            found = [f"{node.module}.{alias.name}" for alias in node.names
                     if alias.name in _UNPICKLERS]
        elif (isinstance(node, ast.Attribute) and node.attr in _UNPICKLERS
                and _dotted(node.value) in modules):
            found = [f"{_dotted(node.value)}.{node.attr}"]
        elif isinstance(node, ast.Call):
            found = [f"allow_pickle={ast.unparse(kw.value)}"
                     for kw in node.keywords if kw.arg == "allow_pickle"
                     and not (isinstance(kw.value, ast.Constant)
                              and kw.value.value is False)]
        else:
            continue
        for what in found:
            yield LintFinding(
                src.rel, node.lineno, "no-unpickling-outside-store",
                f"{what} outside the program store (only "
                f"{' and '.join(_UNPICKLING_FILES)} may unpickle)")


# -- metric-naming -------------------------------------------------------

def rule_metric_naming(src: SourceFile) -> Iterator[LintFinding]:
    """Instruments are created through the registry
    (``MetricRegistry.counter(...)`` etc.) so every metric is named and
    exported exactly once; importing the raw classes outside ``obs/``
    bypasses registration."""
    if src.rel.startswith("obs/"):
        return
    for node in ast.walk(src.tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("repro.obs")):
            for alias in node.names:
                if alias.name in _INSTRUMENT_NAMES:
                    yield LintFinding(
                        src.rel, node.lineno, "metric-naming",
                        f"raw instrument {alias.name!r} imported from "
                        f"{node.module}; construct via MetricRegistry")


# -- layering ------------------------------------------------------------

def _package_key(rel: str) -> str:
    first = rel.split("/", 1)[0]
    if first.endswith(".py"):
        return first[:-3]
    return first


def _import_targets(node: ast.stmt) -> list[str]:
    """``repro``-internal dotted targets named by an import statement,
    relative to the package (``repro.sim.coalesce`` -> ``sim.coalesce``)."""
    targets: list[str] = []
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        targets = [node.module] if node.module else []
    out = []
    for target in targets:
        if target == "repro":
            out.append("")
        elif target.startswith("repro."):
            out.append(target[len("repro."):])
    return out


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Imports that create architectural dependencies: module level,
    including under plain ``if`` — but not inside functions and not
    under ``if TYPE_CHECKING:``."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            test = node.test
            is_tc = ((isinstance(test, ast.Name)
                      and test.id == "TYPE_CHECKING")
                     or _dotted(test) == "typing.TYPE_CHECKING")
            if not is_tc:
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def rule_layering(src: SourceFile) -> Iterator[LintFinding]:
    """Module-level imports must follow the declared layering DAG
    (``_LAYERS``); runtime collaborations go through function-local
    imports, which are exempt by design."""
    key = _package_key(src.rel)
    if key in _UNLAYERED:
        return
    allowed = _LAYERS.get(key)
    if allowed is None:
        yield LintFinding(src.rel, 1, "layering",
                          f"package {key!r} has no layering entry; "
                          f"declare one in repro.analysis.lint")
        return
    for node in _module_level_imports(src.tree):
        for target in _import_targets(node):
            if target == "":
                yield LintFinding(
                    src.rel, node.lineno, "layering",
                    "import of the bare `repro` package re-enters "
                    "the CLI layer")
                continue
            first = target.split(".", 1)[0]
            if first in allowed:
                continue
            if any(target == entry or target.startswith(entry + ".")
                   for entry in allowed if "." in entry):
                continue
            yield LintFinding(
                src.rel, node.lineno, "layering",
                f"{key!r} may not import repro.{target} at module "
                f"level (allowed: {', '.join(sorted(allowed))})")


RULES: tuple[RuleFn, ...] = (
    rule_no_wallclock_in_kernel,
    rule_probe_gated_purity,
    rule_atomic_writes,
    rule_locked_memo_mutation,
    rule_no_unpickling_outside_store,
    rule_metric_naming,
    rule_layering,
)

RULE_NAMES = tuple(
    fn.__name__.removeprefix("rule_").replace("_", "-") for fn in RULES)


def lint_source(src: SourceFile) -> list[LintFinding]:
    """All findings for one parsed source file."""
    findings: list[LintFinding] = []
    for rule in RULES:
        findings.extend(rule(src))
    return findings


def lint_paths(paths: Iterable[Path], root: Path) -> list[LintFinding]:
    """Lint the given files; ``root`` is the repro package directory
    the rule-dispatch paths are computed against."""
    findings: list[LintFinding] = []
    for path in sorted(paths):
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_source(SourceFile.parse(path, rel)))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_repo(root: Path | None = None) -> list[LintFinding]:
    """Lint the whole ``repro`` package (the default for ``repro
    lint`` and CI)."""
    if root is None:
        import repro
        root = Path(repro.__file__).resolve().parent
    return lint_paths(root.rglob("*.py"), root)
