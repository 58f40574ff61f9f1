"""REP105 — exception safety around protocol resources.

Section 5.1's lock discipline assumes a refused or failed operation
leaves the machine unchanged, and the WAL protocol (PR 1) assumes an
acknowledged append is durable.  Both collapse when exceptions are
mishandled: a bare ``except:`` that swallows a :class:`ReproError`
turns a refused lock into a phantom acceptance; an acquire without a
paired release leaks a lock; an ``open()`` outside ``with``/``finally``
loses buffered WAL records on the error path.

Checks:

* no bare ``except:`` anywhere;
* no silent swallowing — an ``except`` catching ``Exception``,
  ``BaseException``, or any ``ReproError`` subclass whose body is only
  ``pass``/``...`` (no re-raise, no handling);
* every ``.acquire()`` statement inside a function must be paired with
  a ``.release()`` in a ``finally`` block (or appear in a ``with``);
* ``open(...)`` must be used as a context manager (``with open(...)``),
  or the handle must be closed in a ``finally`` — objects that own a
  handle across calls annotate the open with
  ``# repro: noqa[REP105]`` and provide ``close``/``__exit__``.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["ExceptionSafety"]

#: Exception names whose silent swallowing is flagged.  The ReproError
#: family are the protocol's refusal signals — losing one corrupts the
#: run's meaning, not just its logging.
_SWALLOW_SENSITIVE = {
    "Exception",
    "BaseException",
    "ReproError",
    "ProtocolError",
    "LockConflict",
    "WouldBlock",
    "IllegalOperation",
    "RecoveryError",
    "WalCorruption",
    "ValidationFailed",
}


def _exception_names(handler: ast.ExceptHandler) -> List[str]:
    node = handler.type
    if node is None:
        return []
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for element in elements:
        if isinstance(element, ast.Name):
            names.append(element.id)
        elif isinstance(element, ast.Attribute):
            names.append(element.attr)
    return names


def _is_silent(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _calls_named(nodes: Iterable[ast.stmt], attr: str) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr
            ):
                return True
    return False


@register
class ExceptionSafety(Rule):
    id = "REP105"
    name = "exception-safety"
    rationale = (
        "Section 5.1: a refused operation must leave the machine "
        "unchanged, and WAL appends must be durable on every path — "
        "swallowed refusals and leaked handles break both"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(context, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_acquire_release(context, node)
            elif isinstance(node, ast.Call):
                yield from self._check_open(context, node)

    # -- handlers ------------------------------------------------------

    def _check_handler(
        self, context: FileContext, handler: ast.ExceptHandler
    ) -> Iterable[Finding]:
        names = _exception_names(handler)
        if handler.type is None:
            yield self.finding(
                context,
                handler,
                "bare `except:` catches everything including protocol "
                "refusals; name the exceptions this code can actually handle",
            )
            return
        if _is_silent(handler.body) and any(
            name in _SWALLOW_SENSITIVE for name in names
        ):
            caught = ", ".join(names)
            yield self.finding(
                context,
                handler,
                f"`except {caught}` silently swallows protocol errors; "
                "handle, log, or re-raise them",
            )

    # -- acquire/release pairing ---------------------------------------

    def _check_acquire_release(
        self, context: FileContext, func: ast.FunctionDef
    ) -> Iterable[Finding]:
        protected: Set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Try) and node.finalbody:
                if _calls_named(node.finalbody, "release"):
                    for inner in ast.walk(node):
                        protected.add(id(inner))
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for inner in ast.walk(node):
                    protected.add(id(inner))
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and id(node) not in protected
            ):
                yield self.finding(
                    context,
                    node,
                    ".acquire() without a paired .release() in a finally "
                    "block; use try/finally or a context manager",
                )

    # -- open() discipline ---------------------------------------------

    def _check_open(self, context: FileContext, node: ast.Call) -> Iterable[Finding]:
        if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
            return
        if self._inside_with_item(context.tree, node):
            return
        if self._closed_in_finally(context.tree, node):
            return
        yield self.finding(
            context,
            node,
            "open() outside a `with` block and without close() in a "
            "finally; a raised exception leaks the handle (and any "
            "buffered WAL records)",
        )

    @staticmethod
    def _inside_with_item(tree: ast.AST, call: ast.Call) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for inner in ast.walk(item.context_expr):
                        if inner is call:
                            return True
        return False

    @staticmethod
    def _closed_in_finally(tree: ast.AST, call: ast.Call) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Try) and node.finalbody:
                if not _calls_named(node.finalbody, "close"):
                    continue
                for inner in ast.walk(node):
                    if inner is call:
                        return True
        return False
