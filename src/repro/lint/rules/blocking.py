"""REP106 — no blocking calls in simulated hot paths.

The discrete-event harness models time explicitly: "waiting" is a
scheduled callback, never a suspended thread.  A ``time.sleep`` inside
the simulated network or a site handler stalls the whole single-threaded
simulation for *wall-clock* time without advancing *simulated* time —
throughput numbers silently become nonsense, and the seeded run is no
longer a function of its seed.  Real I/O (sockets, subprocesses,
``input()``) in those paths is the same bug with a bigger constant.

The same goes for the event loop itself: an ``import asyncio`` (or
``from asyncio import ...``) in scope is flagged, so the serving tier's
sans-IO modules — framing, sessions, the engine and the serving core —
stay functions of bytes, replies and a passed-in clock.

Scope: configured in :mod:`repro.lint.config` (``RULE_SCOPES``) — the
layers that run inside an event loop, simulated or real.  The
``recovery/`` WAL is deliberately *outside* the scope (durability
requires real file I/O), and the serving tier's socket modules are
explicitly allowlisted there: real wire I/O and the loop are their
purpose, while the tier's pure modules stay fully checked.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..config import in_scope
from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["BlockingCalls"]

#: (module, attribute) calls that block the thread.
_BLOCKING_ATTR_CALLS = {
    ("time", "sleep"),
    ("socket", "socket"),
    ("socket", "create_connection"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_output"),
    ("subprocess", "check_call"),
    ("subprocess", "Popen"),
    ("os", "system"),
    ("os", "popen"),
    ("requests", "get"),
    ("requests", "post"),
    ("requests", "request"),
    ("urllib", "urlopen"),
    ("request", "urlopen"),
}

#: Bare-name calls that block on external input.
_BLOCKING_NAME_CALLS = {"input", "sleep"}


def _dotted_base(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _imported(node: ast.AST) -> List[str]:
    """The top-level packages an import statement loads (none for a
    relative import or any other node)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module.split(".")[0]]
    return []


@register
class BlockingCalls(Rule):
    id = "REP106"
    name = "blocking-calls"
    rationale = (
        "the simulator models waiting as scheduled callbacks; a blocking "
        "call stalls wall-clock time without advancing simulated time"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        if not in_scope(self.id, context.path):
            return
        for node in ast.walk(context.tree):
            if "asyncio" in _imported(node):
                yield self.finding(
                    context,
                    node,
                    "asyncio imported in a sans-IO module; the event loop "
                    "belongs to the allowlisted edge modules (pass `now` in)",
                )
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                base = _dotted_base(node.func.value)
                if base is not None and (base, node.func.attr) in _BLOCKING_ATTR_CALLS:
                    yield self.finding(
                        context,
                        node,
                        f"blocking call {base}.{node.func.attr}() in a "
                        "simulated hot path; model the delay with "
                        "simulator.schedule(...) instead",
                    )
            elif isinstance(node.func, ast.Name):
                if node.func.id in _BLOCKING_NAME_CALLS:
                    yield self.finding(
                        context,
                        node,
                        f"blocking call {node.func.id}() in a simulated hot "
                        "path; the event loop must never suspend the thread",
                    )
