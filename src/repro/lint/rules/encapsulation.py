"""REP103 — committed-state encapsulation.

The LOCK machine's four state components (Section 5.1: ``pending``,
``intentions``, ``committed``, ``aborted``) define the protocol; hybrid
atomicity is proved about *their* evolution under the machine's own
transitions.  Any code that aliases or mutates them from outside —
a snapshot helper returning the live intentions dict, a fault injector
poking ``manager._prepared`` — can violate the theorems without tripping a
single runtime check.

Two checks:

* **no aliasing returns** — a public method or property must not
  ``return self._attr`` when ``_attr`` was initialised to a mutable
  container (dict/list/set/deque/Counter/defaultdict); return a copy or
  an immutable view instead;
* **no foreign access to protocol state** — outside the module that
  owns the attribute (the module whose class assigns ``self._attr`` in
  ``__init__``), reading or writing the monitored protocol-state
  attributes of *another* object is flagged.  Sanctioned call sites are
  the owning modules themselves (``core/lock_machine.py``,
  ``core/compaction.py``, …); everyone else goes through the public
  accessors.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["StateEncapsulation"]

#: Protocol-state attributes whose foreign access is never OK: the LOCK
#: machine components (Section 5.1), the compaction bookkeeping
#: (Section 6), and the per-subsystem mirrors of the same idea.
_MONITORED_ATTRS = {
    "_pending",
    "_intentions",
    "_committed",
    "_aborted",
    "_bounds",
    "_version",
    "_pins",
    "_prepared",
    "_waiting_for",
    "_waiters",
}

#: Constructor / literal shapes that create mutable containers.
_MUTABLE_CALLS = {
    "dict",
    "list",
    "set",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
    "bytearray",
}

#: Annotation heads naming mutable container types.
_MUTABLE_ANNOTATIONS = {
    "dict",
    "Dict",
    "list",
    "List",
    "set",
    "Set",
    "MutableMapping",
    "MutableSequence",
    "MutableSet",
    "DefaultDict",
    "Counter",
    "Deque",
    "deque",
}


def _annotation_head(node: Optional[ast.expr]) -> Optional[str]:
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


def _mutable_private_attrs(cls: ast.ClassDef) -> Set[str]:
    """Private attributes a class initialises to mutable containers."""
    attrs: Set[str] = set()
    for method in cls.body:
        if not (isinstance(method, ast.FunctionDef) and method.name == "__init__"):
            continue
        for node in ast.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr.startswith("_")
                and not target.attr.startswith("__")
            ):
                continue
            mutable = False
            if value is not None and _is_mutable_value(value):
                mutable = True
            head = _annotation_head(annotation)
            if head in _MUTABLE_ANNOTATIONS:
                mutable = True
            # Immutable shapes override: tuple()/frozenset() values.
            if isinstance(value, ast.Call):
                func = value.func
                name = func.id if isinstance(func, ast.Name) else None
                if name in {"tuple", "frozenset"}:
                    mutable = False
            if head in {"Tuple", "tuple", "FrozenSet", "frozenset"}:
                mutable = False
            if mutable:
                attrs.add(target.attr)
    return attrs


@register
class StateEncapsulation(Rule):
    id = "REP103"
    name = "state-encapsulation"
    rationale = (
        "Section 5.1: hybrid atomicity is proved about the machine's own "
        "transitions; aliased or externally mutated protocol state "
        "invalidates the proof without failing any runtime check"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        owned: Set[str] = set()
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef):
                mutable = _mutable_private_attrs(node)
                owned |= {a for a in _MONITORED_ATTRS if self._assigns(node, a)}
                yield from self._check_aliasing_returns(context, node, mutable)
        yield from self._check_foreign_access(context, owned)

    @staticmethod
    def _assigns(cls: ast.ClassDef, attr: str) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and isinstance(node.ctx, ast.Store)
            ):
                return True
        return False

    # -- aliasing returns ----------------------------------------------

    def _check_aliasing_returns(
        self, context: FileContext, cls: ast.ClassDef, mutable: Set[str]
    ) -> Iterable[Finding]:
        if not mutable:
            return
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            if method.name.startswith("_") and not self._is_property(method):
                continue  # private helpers may share internals deliberately
            for node in ast.walk(method):
                if not (isinstance(node, ast.Return) and node.value is not None):
                    continue
                value = node.value
                if (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and value.attr in mutable
                ):
                    yield self.finding(
                        context,
                        node,
                        f"{cls.name}.{method.name} returns live internal "
                        f"state self.{value.attr}; return a copy "
                        "(dict(...), list(...), tuple(...)) or an immutable "
                        "view",
                    )

    @staticmethod
    def _is_property(method: ast.FunctionDef) -> bool:
        for decorator in method.decorator_list:
            name = (
                decorator.id
                if isinstance(decorator, ast.Name)
                else getattr(decorator, "attr", None)
            )
            if name == "property":
                return True
        return False

    # -- foreign access to protocol state ------------------------------

    def _check_foreign_access(
        self, context: FileContext, owned: Set[str]
    ) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in _MONITORED_ATTRS or node.attr in owned:
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in {"self", "cls"}:
                continue
            access = "mutates" if isinstance(
                node.ctx, (ast.Store, ast.Del)
            ) else "reaches into"
            yield self.finding(
                context,
                node,
                f"{access} protocol state {ast.unparse(receiver)}.{node.attr} "
                "outside its owning module; use the owner's public "
                "accessors (locks are implicit in the intentions lists — "
                "Section 5.1 owns them)",
            )
