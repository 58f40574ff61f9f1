"""REP104 — determinism in simulation paths.

Crash-seed reproducibility (PR 1) and trace replay (PR 2/3) rest on the
same precondition as the paper's Section 6 compaction argument: clocks
are logical and monotone, and every random choice flows from an injected
seed.  One naked ``random.random()`` in a crash plan, or one
``time.time()`` folded into a metric, and "same seed, same run" quietly
stops being true — the checker can no longer replay what the simulator
did.

Inside the scoped subsystems (see ``RULE_SCOPES`` in
:mod:`repro.lint.config`: ``core/``, ``recovery/``, ``sim/``,
``replication/``, and the serving tier's pure modules — its
real-I/O socket / process modules are allowlisted by engine
configuration there) this rule forbids:

* module-level RNG calls (``random.random()``, ``random.choice`` … —
  anything on the shared global generator) and unseeded
  ``random.Random()``;
* wall-clock reads: ``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``time.process_time``, ``datetime.now`` /
  ``utcnow`` / ``today``;
* ambient entropy: ``uuid.uuid1``/``uuid4``, ``os.urandom``,
  ``secrets.*``.

Seeded ``random.Random(seed)`` instances and the logical clocks in
``core/timestamps.py`` are the sanctioned alternatives.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..config import in_scope
from ..engine import FileContext, Finding, Project, Rule, register

__all__ = ["Determinism"]

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_ENTROPY = {
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
}


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@register
class Determinism(Rule):
    id = "REP104"
    name = "determinism"
    rationale = (
        "Section 6 compaction and crash-seed reproducibility require "
        "deterministic, monotone clocks and seeded randomness only"
    )

    def check(self, context: FileContext, project: Project) -> Iterable[Finding]:
        if not in_scope(self.id, context.path):
            return
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = _dotted(func.value)
            if base is None:
                continue
            root = base.split(".")[-1]
            attr = func.attr
            if base == "random" or base.endswith(".random") and root == "random":
                # Calls on the *module*: random.random(), random.choice()…
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            context,
                            node,
                            "unseeded random.Random() in a simulation path; "
                            "pass an explicit seed so runs replay bit for bit",
                        )
                    continue
                if attr in {"seed", "getstate", "setstate"}:
                    continue
                yield self.finding(
                    context,
                    node,
                    f"random.{attr}() uses the shared global generator; "
                    "inject a seeded random.Random instead",
                )
                continue
            if (root, attr) in _WALL_CLOCK:
                yield self.finding(
                    context,
                    node,
                    f"wall-clock {base}.{attr}() in a simulation path; use "
                    "the simulator clock or an injected logical clock "
                    "(core/timestamps.py)",
                )
                continue
            if (root, attr) in _ENTROPY or base == "secrets":
                yield self.finding(
                    context,
                    node,
                    f"ambient entropy {base}.{attr}() in a simulation path; "
                    "derive values from the run seed",
                )
