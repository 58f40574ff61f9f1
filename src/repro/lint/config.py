"""Engine-level rule scoping: which paths each path-scoped rule covers.

REP104 (determinism) and REP106 (no blocking calls) only make sense in
the layers that run inside the *simulated* event loop — a wall-clock
read or a ``time.sleep`` there silently breaks "same seed, same run".
The serving tier (PR 6) complicates that picture: ``repro.server`` runs
inside a *real* asyncio event loop, so the no-blocking discipline still
applies to its pure modules (framing, sessions), while its edge modules
exist precisely to do real socket I/O and wall-clock latency timing.

Rather than scattering ``# repro: noqa`` across every line of the wire
tier, the scope is *engine configuration*: each rule declares the path
fragments it covers (``include``) and the explicitly allowlisted
real-I/O modules inside that scope (``allowlist``).  An allowlist entry
is a reviewable, documented exemption — ``--statistics`` style audits
and the fixture tests in ``tests/lint/test_allowlist.py`` pin its exact
extent, and a blanket "disable the rule for the package" is impossible
by construction (the allowlist names modules, not directories of
arbitrary future code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["RuleScope", "RULE_SCOPES", "in_scope", "allowlisted"]


@dataclass(frozen=True)
class RuleScope:
    """Path-fragment scope for one rule.

    ``include`` fragments select the files the rule examines;
    ``allowlist`` fragments carve out the sanctioned real-I/O modules
    within that scope.  Fragments match anywhere in the ``/``-normalised
    path, so the same configuration covers installed and in-repo trees.
    """

    include: Tuple[str, ...]
    allowlist: Tuple[str, ...] = ()

    def covers(self, path: str) -> bool:
        """True when the rule should check ``path``."""
        normalized = path.replace("\\", "/")
        if not any(fragment in normalized for fragment in self.include):
            return False
        return not any(fragment in normalized for fragment in self.allowlist)

    def allows(self, path: str) -> bool:
        """True when ``path`` is covered by an allowlist entry."""
        normalized = path.replace("\\", "/")
        return any(fragment in normalized for fragment in self.allowlist)


#: The real-I/O edge of the serving tier.  ``protocol.py``,
#: ``session.py`` and ``engine.py`` are deliberately *absent*: framing,
#: session bookkeeping and the shard engine (which is handed its log
#: already open) are pure and stay under the full discipline.
_SERVER_REAL_IO = (
    "/server/server.py",
    "/server/client.py",
    "/server/top.py",
    "/server/procpool.py",
)

RULE_SCOPES: Dict[str, RuleScope] = {
    # Determinism: simulation subsystems replay bit-for-bit from a seed.
    # The serving tier is in scope (its pure modules must not fold wall
    # clocks into protocol state) but its socket / process edge modules
    # are allowlisted — real clocks and real I/O *are* their job.
    "REP104": RuleScope(
        include=(
            "/core/",
            "/distributed/",
            "/recovery/",
            "/sim/",
            "/replication/",
            "/server/",
        ),
        allowlist=_SERVER_REAL_IO,
    ),
    # No blocking calls: event-loop layers must never suspend the
    # thread.  Real sockets live only in the allowlisted edge modules;
    # everything else under /server/ (framing, sessions) is checked.
    "REP106": RuleScope(
        include=(
            "/core/",
            "/distributed/",
            "/sim/",
            "/replication/",
            "/server/",
        ),
        allowlist=_SERVER_REAL_IO,
    ),
    # Table/spec agreement: the semantic re-derivation applies to the
    # table-declaring modules in adts/.
    "REP107": RuleScope(
        include=("/adts/",),
    ),
}


def in_scope(rule_id: str, path: str) -> bool:
    """Should ``rule_id`` examine ``path``?  Unscoped rules see all."""
    scope = RULE_SCOPES.get(rule_id)
    return True if scope is None else scope.covers(path)


def allowlisted(rule_id: str, path: str) -> bool:
    """Is ``path`` carved out of ``rule_id``'s scope by configuration?"""
    scope = RULE_SCOPES.get(rule_id)
    return False if scope is None else scope.allows(path)
