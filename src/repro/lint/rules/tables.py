"""REP107 — semantic verification of the conflict tables.

The repo's *semantic* lint rule: instead of proving a syntactic
discipline over the AST, it evaluates the linted module and re-runs the
paper's derivations against it (:func:`repro.core.compile.verify_adt`,
the same call ``repro audit`` makes).

**REP107** (``table-spec-agreement``) — every relation a type declares in
its module-level ``COMPILED_TABLES`` hook (the tabulated relations its
factory hands to the lock machines) is re-verified against the serial
specification over the declared finite universe: a conflict table that
is asymmetric or fails Definition 3 voids the Theorem 11/16
hybrid-atomicity guarantee (error); a failure-to-commute table that
disagrees with the derived relation is a mis-transcription (error); a
sound conflict table carrying a removable pair forfeits Section 7
concurrency (warning — silence with ``# repro: nonminimal`` on the
table's ``COMPILED_TABLES`` entry once the extra conflict is
deliberate); a declared dependency relation that is not the derived
invalidated-by relation, or an alternative that fails Definition 3, is
an error.  A declared table's symmetry is checked here too (REP102
reads enumerated literals only).

The rule evaluates source from the file under lint — never the
installed module — so mutated copies of the tree (the lint mutation
suite, review checkouts) are judged on their own content.  Verdicts are
cached per source digest: re-linting an unchanged file is free.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from ...core.compile import verify_adt
from ..config import in_scope
from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["TableSpecAgreement"]

#: severity-tagged verdicts per source digest: (line, col, message, severity).
_Verdict = Tuple[int, int, str, str]
_VERDICT_CACHE: Dict[str, List[_Verdict]] = {}


def _source_key(rule_id: str, source: str) -> str:
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
    return f"{rule_id}:{digest}"


def _assignment_line(tree: ast.Module, name: str) -> Optional[int]:
    """Line of the module-level assignment binding ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.lineno
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            return node.lineno
    return None


def _entry_lines(tree: ast.Module, name: str) -> Dict[str, int]:
    """Line of each string key in the dict literal bound to ``name`` (the
    last such binding, which is the one the module ends up with)."""
    lines: Dict[str, int] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
        ):
            lines = {
                key.value: key.lineno
                for key in node.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return lines


def _exec_module(context: FileContext, module_name: str) -> dict:
    """Execute the linted file's source as ``module_name``.

    Relative imports resolve against the installed ``repro`` package, so
    a mutated copy of one adts module is evaluated with the real core
    underneath it — exactly the judgement ``repro audit`` would make.
    """
    namespace: dict = {
        "__name__": module_name,
        "__package__": module_name.rsplit(".", 1)[0],
        "__file__": context.path,
    }
    code = compile(context.source, context.path, "exec")
    exec(code, namespace)  # noqa: S102 — the linted tree is our own source
    return namespace


@register
class TableSpecAgreement(Rule):
    id = "REP107"
    name = "table-spec-agreement"
    rationale = (
        "Theorems 11/16 and 28: every declared conflict table must be a "
        "symmetric dependency relation and every commutativity table must "
        "equal the derived failure-to-commute relation — re-derived from "
        "the serial spec, not taken on faith"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        if not in_scope(self.id, context.path):
            return
        hook = _assignment_line(context.tree, "COMPILED_TABLES")
        if hook is None:
            return  # not a table-declaring module
        key = _source_key(self.id, context.source)
        verdicts = _VERDICT_CACHE.get(key)
        if verdicts is None:
            verdicts = list(self._verify(context, hook))
            _VERDICT_CACHE[key] = verdicts
        for line, col, message, severity in verdicts:
            yield Finding(
                rule=self.id,
                path=context.path,
                line=line,
                col=col,
                message=message,
                severity=severity,
            )

    def _verify(self, context: FileContext, hook_line: int) -> Iterable[_Verdict]:
        from ...adts import base as adts_base

        stem = context.path.replace("\\", "/").rsplit("/", 1)[-1][: -len(".py")]
        snapshot = dict(adts_base._REGISTRY)
        try:
            # The exec'd module calls register(); capture the factories it
            # added (or replaced) before restoring the real registry.
            namespace = _exec_module(context, f"repro.adts.{stem}")
            factories = [
                factory
                for name, factory in adts_base._REGISTRY.items()
                if snapshot.get(name) is not factory
            ]
        except Exception as exc:  # noqa: BLE001 — any failure is a finding
            yield (
                hook_line, 0,
                f"cannot evaluate module to verify its tables: {exc!r}",
                "error",
            )
            return
        finally:
            adts_base._REGISTRY.clear()
            adts_base._REGISTRY.update(snapshot)

        tables = namespace.get("COMPILED_TABLES")
        if not isinstance(tables, dict) or not tables:
            yield (
                hook_line, 0,
                "COMPILED_TABLES must be a non-empty dict of "
                "{table name: relation}",
                "error",
            )
            return
        if not factories:
            yield (
                hook_line, 0,
                "module declares COMPILED_TABLES but registers no ADT "
                "factory — the tables cannot be verified against a spec",
                "error",
            )
            return
        try:
            # Each adts module registers exactly one type; judge its tables
            # with the bundle the *linted* source builds.
            bundle = factories[0]()
        except Exception as exc:  # noqa: BLE001
            yield (
                hook_line, 0,
                f"cannot instantiate the registered ADT bundle: {exc!r}",
                "error",
            )
            return

        lines = _entry_lines(context.tree, "COMPILED_TABLES")
        nonminimal = {
            key
            for key in tables
            if context.has_marker("nonminimal", lines.get(key, hook_line))
        }
        for issue in verify_adt(bundle, tables, nonminimal=nonminimal):
            key = issue.table.partition(".")[2]
            yield (
                lines.get(key, hook_line), 0,
                f"{issue.table}: {issue.message}",
                issue.severity,
            )
