"""REP102 — lock-conflict relations must be symmetric by construction.

Theorem 11/16 requires the lock-conflict relation handed to the LOCK
machine to be a *symmetric* dependency relation; Theorem 17 shows the
guarantee genuinely fails otherwise.  The runtime audit
(``repro audit``) re-derives tables, but only at bounded depth and only
when someone runs it — a transcription slip in a declared relation
should not survive to that point.

The statically provable discipline: an :class:`EnumeratedRelation`
built from a *literal* collection of pairs must contain ``(b, a)`` for
every ``(a, b)`` as written.  A declared ``*_CONFLICT`` table in
``adts/`` needs no rule here: REP107 re-derives each one a module hands
the machines (its ``COMPILED_TABLES``), symmetry included.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Set

from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["RelationSymmetry"]


def _call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _literal_pairs(node: ast.expr) -> Optional[Set[str]]:
    """The pair collection as canonical strings, or None if not literal.

    Elements need not be constants (``Operation(...)`` calls are fine);
    symmetry is checked *as written*, by structural AST equality.
    """
    if not isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return None
    rendered: Set[str] = set()
    for element in node.elts:
        if not (isinstance(element, ast.Tuple) and len(element.elts) == 2):
            return None
        left, right = element.elts
        rendered.add(f"{ast.dump(left)}|{ast.dump(right)}")
    return rendered


@register
class RelationSymmetry(Rule):
    id = "REP102"
    name = "relation-symmetry"
    rationale = (
        "Theorem 11/16: hybrid atomicity needs a symmetric dependency "
        "relation; an asymmetric transcription breaks the guarantee"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and _call_name(node) == "EnumeratedRelation"
                and node.args
            ):
                continue
            pairs = _literal_pairs(node.args[0])
            if pairs is None:
                continue  # not a literal; nothing provable here
            for element in node.args[0].elts:  # type: ignore[union-attr]
                left, right = element.elts  # checked 2-tuples by now
                key = f"{ast.dump(left)}|{ast.dump(right)}"
                mirror = f"{ast.dump(right)}|{ast.dump(left)}"
                if key != mirror and mirror not in pairs:
                    yield self.finding(
                        context,
                        element,
                        "EnumeratedRelation literal is asymmetric as "
                        f"written: {ast.unparse(element)} has no mirror — "
                        "wrap the pair set in symmetric_closure() or add "
                        "the mirrored pair",
                    )
                    break  # one finding per literal is enough
