"""REP101 — trace-event discipline.

Every ``tracer.emit(...)`` call site must use an event kind registered in
``obs/events.py::EVENT_PAYLOADS`` (whose keys are ``EVENT_KINDS``) and
payload keys declared there for that kind.  The rule also cross-references the
schema against :mod:`repro.obs.checker` statically: every payload key an
``AtomicityChecker`` handler consumes must be declared for its kind, so
the schema, the emit sites, and the oracle can never silently drift
apart.  A mistyped kind or key otherwise surfaces only as a checker that
quietly stops checking.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable

from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["TraceEventDiscipline"]


@register
class TraceEventDiscipline(Rule):
    id = "REP101"
    name = "trace-event-discipline"
    rationale = (
        "the streaming oracle (PR 3) certifies runs from events; an "
        "unregistered kind or mistyped payload key silently disables a check"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        kinds = project.event_kinds
        payloads = project.event_payloads
        normalized = context.path.replace(os.sep, "/")
        if normalized.endswith("obs/events.py") and kinds:
            # Schema: every checker-consumed key is declared.
            yield from self._check_schema(context, project)
        for node in ast.walk(context.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                yield self.finding(
                    context,
                    node,
                    "emit() kind must be a string literal so it can be "
                    "checked against EVENT_KINDS",
                )
                continue
            kind = first.value
            if kinds and kind not in kinds:
                yield self.finding(
                    context,
                    node,
                    f"emit() kind {kind!r} is not registered in "
                    "obs/events.py EVENT_KINDS",
                )
                continue
            declared = payloads.get(kind)
            if declared is None:
                continue  # kind registered but schema-less: kinds-only mode
            for keyword in node.keywords:
                if keyword.arg is None:
                    yield self.finding(
                        context,
                        node,
                        f"emit({kind!r}, **...) hides payload keys from "
                        "static checking; pass keys explicitly",
                    )
                elif keyword.arg not in declared:
                    yield self.finding(
                        context,
                        keyword.value,
                        f"payload key {keyword.arg!r} is not declared for "
                        f"{kind!r} in obs/events.py EVENT_PAYLOADS",
                    )

    def _check_schema(
        self, context: FileContext, project: Project
    ) -> Iterable[Finding]:
        payloads = project.event_payloads
        if not payloads:
            yield Finding(
                rule=self.id,
                path=context.path,
                line=1,
                col=0,
                message="obs/events.py declares no EVENT_PAYLOADS schema",
            )
            return
        for kind, consumed in sorted(project.checker_consumes.items()):
            declared = payloads.get(kind, frozenset())
            for key in sorted(consumed - declared):
                yield Finding(
                    rule=self.id,
                    path=context.path,
                    line=1,
                    col=0,
                    message=(
                        f"obs/checker.py consumes key {key!r} of {kind!r} "
                        "but EVENT_PAYLOADS does not declare it"
                    ),
                )
