"""The lint engine: one AST parse per file, shared across rules.

``repro lint`` is a repo-specific static analyzer in the spirit of
lockset/annotation checkers (ERASER, ``@GuardedBy``): it proves *static
preconditions* of the paper's theorems from source, before any run.

Architecture
------------

* :class:`FileContext` — one parsed file: source, AST, line table, and
  the ``# repro: noqa[RULE-ID]`` / ``# repro: <marker>`` comment maps.
  Parsing happens exactly once; every rule walks the same tree.
* :class:`Rule` — a named check.  Subclasses implement :meth:`check`
  and register themselves with the :func:`register` decorator.
* :class:`Project` — lazily extracted cross-file facts (the event-kind
  registry, the checker's consumed payload keys); shared by rules that
  cross-reference modules.
* :class:`Runner` — walks the requested paths, builds contexts, runs
  every enabled rule, and filters suppressed findings.

Suppressions
------------

A finding on line *N* is suppressed when line *N* (or the first line of
the enclosing statement) carries::

    # repro: noqa[REP104]            — suppress one rule
    # repro: noqa[REP104,REP105]     — suppress several
    # repro: noqa                    — suppress every rule (discouraged)

Suppressions are deliberate, reviewable annotations — the analyzer
counts them, and ``--statistics`` reports how many are in force.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Type

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "Rule",
    "Runner",
    "register",
    "all_rules",
    "iter_python_files",
]

#: ``# repro: noqa[REP101,REP102]`` or bare ``# repro: noqa``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")

#: ``# repro: <marker>`` annotations other than noqa (e.g. ``symmetric``).
_MARKER_RE = re.compile(r"#\s*repro:\s*(?!noqa)(?P<marker>[a-z][a-z0-9-]*)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``severity`` is ``"error"`` (the default: the finding voids a paper
    precondition and fails the run) or ``"warning"`` (reported, counted,
    but not fatal — e.g. a sound-but-non-minimal conflict table).
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule}{tag} {self.message}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class FileContext:
    """One file's source, AST, and comment annotations (parsed once)."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        #: line -> set of suppressed rule ids ('*' means every rule).
        self.noqa: Dict[int, Set[str]] = {}
        #: line -> set of ``# repro: <marker>`` annotations.
        self.markers: Dict[int, Set[str]] = {}
        self._scan_comments()
        #: line -> first line of the enclosing statement (for multi-line
        #: statements, a noqa on the statement's first line covers it).
        self.statement_start: Dict[int, int] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.stmt) and getattr(node, "end_lineno", None):
                for line in range(node.lineno, node.end_lineno + 1):
                    current = self.statement_start.get(line)
                    if current is None or current < node.lineno:
                        # Keep the innermost statement (largest start).
                        self.statement_start[line] = node.lineno

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                line = token.start[0]
                noqa = _NOQA_RE.search(token.string)
                if noqa:
                    rules = noqa.group("rules")
                    ids = (
                        {r.strip() for r in rules.split(",") if r.strip()}
                        if rules
                        else {"*"}
                    )
                    self.noqa.setdefault(line, set()).update(ids)
                for marker in _MARKER_RE.finditer(token.string):
                    self.markers.setdefault(line, set()).add(marker.group("marker"))
        except tokenize.TokenError:
            pass  # a torn file still lints on whatever parsed

    def suppressed(self, rule: str, line: int) -> bool:
        """True when the finding is silenced by a noqa on its line or on
        the first line of the enclosing statement."""
        for candidate in {line, self.statement_start.get(line, line)}:
            ids = self.noqa.get(candidate)
            if ids and ("*" in ids or rule in ids):
                return True
        return False

    def has_marker(self, marker: str, line: int) -> bool:
        """True when ``# repro: <marker>`` annotates the line or the first
        line of the enclosing statement."""
        for candidate in {line, self.statement_start.get(line, line)}:
            if marker in self.markers.get(candidate, ()):
                return True
        return False


def _module_assignment(tree: ast.Module, name: str) -> Optional[ast.expr]:
    """The value expression of the module-level binding of ``name``.

    Handles both plain ``NAME = ...`` and annotated
    ``NAME: SomeType = ...`` forms.
    """
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
            and node.value is not None
        ):
            return node.value
    return None


class Project:
    """Cross-file facts extracted from the ``repro`` package itself.

    The lint rules cross-reference the *real* event registry and checker,
    wherever the linted files live (fixtures under ``tests/lint`` are
    checked against the same schema as the tree).
    """

    def __init__(self, package_root: Optional[str] = None):
        if package_root is None:
            package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.package_root = package_root
        self._event_payloads: Optional[Dict[str, FrozenSet[str]]] = None
        self._checker_consumes: Optional[Dict[str, FrozenSet[str]]] = None

    # -- obs/events.py -------------------------------------------------

    def _events_tree(self) -> ast.Module:
        path = os.path.join(self.package_root, "obs", "events.py")
        with open(path, encoding="utf-8") as handle:
            return ast.parse(handle.read(), filename=path)

    @property
    def event_kinds(self) -> FrozenSet[str]:
        """``EVENT_KINDS``: the keys of ``EVENT_PAYLOADS``."""
        return frozenset(self.event_payloads)

    @property
    def event_payloads(self) -> Dict[str, FrozenSet[str]]:
        """``EVENT_PAYLOADS`` read statically from ``obs/events.py``."""
        if self._event_payloads is None:
            payloads: Dict[str, FrozenSet[str]] = {}
            node = _module_assignment(self._events_tree(), "EVENT_PAYLOADS")
            if node is not None:
                for call in ast.walk(node):
                    if isinstance(call, ast.Dict):
                        for key, value in zip(call.keys, call.values):
                            if not (
                                isinstance(key, ast.Constant)
                                and isinstance(key.value, str)
                            ):
                                continue
                            keys = {
                                c.value
                                for c in ast.walk(value)
                                if isinstance(c, ast.Constant)
                                and isinstance(c.value, str)
                            }
                            payloads[key.value] = frozenset(keys)
                        break
            self._event_payloads = payloads
        return self._event_payloads

    # -- obs/checker.py ------------------------------------------------

    @property
    def checker_consumes(self) -> Dict[str, FrozenSet[str]]:
        """kind -> payload keys the :class:`AtomicityChecker` reads.

        Extracted statically: the ``check_event`` dispatch chain maps kind
        literals to ``_on_*`` handlers; each handler body is scanned for
        ``data.get("key")`` / ``data["key"]`` accesses.
        """
        if self._checker_consumes is None:
            path = os.path.join(self.package_root, "obs", "checker.py")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            consumes: Dict[str, Set[str]] = {}
            for cls in tree.body:
                if not (
                    isinstance(cls, ast.ClassDef) and cls.name == "AtomicityChecker"
                ):
                    continue
                methods = {
                    m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)
                }
                check_event = methods.get("check_event")
                if check_event is None:
                    continue
                for stmt in check_event.body:
                    if isinstance(stmt, ast.If):
                        self._scan_dispatch(stmt, methods, consumes)
            self._checker_consumes = {
                kind: frozenset(keys) for kind, keys in consumes.items()
            }
        return self._checker_consumes

    @staticmethod
    def _data_keys(nodes: Iterable[ast.stmt]) -> Set[str]:
        keys: Set[str] = set()
        module = ast.Module(body=list(nodes), type_ignores=[])
        for node in ast.walk(module):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "data"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                keys.add(node.args[0].value)
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "data"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                keys.add(node.slice.value)
        return keys

    def _scan_dispatch(
        self,
        stmt: ast.If,
        methods: Dict[str, ast.FunctionDef],
        consumes: Dict[str, Set[str]],
    ) -> None:
        node: Optional[ast.If] = stmt
        while node is not None:
            kinds = [
                c.value
                for c in ast.walk(node.test)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            keys = self._data_keys(node.body)
            for branch in ast.walk(ast.Module(body=node.body, type_ignores=[])):
                if (
                    isinstance(branch, ast.Call)
                    and isinstance(branch.func, ast.Attribute)
                    and branch.func.attr.startswith("_on_")
                    and branch.func.attr in methods
                ):
                    keys |= self._data_keys(methods[branch.func.attr].body)
            for kind in kinds:
                consumes.setdefault(kind, set()).update(keys)
            if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
                node = node.orelse[0]
            else:
                node = None


class Rule:
    """Base class for lint rules.  Subclasses set :attr:`id`,
    :attr:`name`, :attr:`rationale` and implement :meth:`check`."""

    id: str = "REP000"
    name: str = "unnamed"
    #: One line tying the rule to the paper precondition it protects.
    rationale: str = ""

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        context: FileContext,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, in id order."""
    from . import rules  # noqa: F401  — importing registers the rules

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(set(out))


@dataclass
class RunResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # Warnings are reported and counted but do not fail the run.
        return not self.errors and not any(
            finding.severity == "error" for finding in self.findings
        )


class Runner:
    """Run every (selected) rule over a set of paths."""

    def __init__(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
        project: Optional[Project] = None,
    ):
        classes = all_rules()
        known = {cls.id for cls in classes}
        for requested in (select, ignore):
            if requested:
                unknown = set(requested) - known
                if unknown:
                    raise ValueError(
                        f"unknown rule id(s): {', '.join(sorted(unknown))}"
                    )
        if select:
            wanted = set(select)
            classes = [cls for cls in classes if cls.id in wanted]
        if ignore:
            dropped = set(ignore)
            classes = [cls for cls in classes if cls.id not in dropped]
        self.rules: List[Rule] = [cls() for cls in classes]
        self.project = project or Project()

    def run(self, paths: Sequence[str]) -> RunResult:
        result = RunResult()
        for path in iter_python_files(paths):
            try:
                with open(path, encoding="utf-8") as handle:
                    context = FileContext(path, handle.read())
            except (OSError, SyntaxError, ValueError) as exc:
                result.errors.append(f"{path}: {exc}")
                continue
            result.files += 1
            for rule in self.rules:
                for finding in rule.check(context, self.project):
                    if context.suppressed(finding.rule, finding.line):
                        result.suppressed += 1
                    else:
                        result.findings.append(finding)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result
