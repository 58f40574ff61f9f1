"""Point-in-time introspection: lock tables and waits-for graphs.

The LOCK machine holds no explicit lock table — "locks are implicit in
the intentions lists" (Section 5.1) — so the lock-table snapshot *is*
the map from active transactions to the operations whose locks they
hold.  The waits-for snapshot reads a
:class:`~repro.runtime.waiting.WaitRegistry`'s edges (the simulator's
block wait-policy or the server's parked invocations; the retry policy
never records a wait).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

__all__ = [
    "lock_table_snapshot",
    "manager_lock_tables",
    "waits_for_edges",
    "render_lock_tables",
    "render_waits_for",
]


def lock_table_snapshot(machine: Any) -> Dict[str, List[str]]:
    """Active transaction → held-operation strings for one LOCK machine.

    Every operation in an active transaction's intentions list is a held
    lock; completed transactions hold nothing.
    """
    return {
        transaction: [str(operation) for operation in operations]
        for transaction, operations in machine.active_intentions().items()
    }


def manager_lock_tables(manager: Any) -> Dict[str, Dict[str, List[str]]]:
    """Object name → lock-table snapshot across a transaction manager.

    Only participants that run a LOCK machine have a table: an optimistic
    object holds no locks.
    """
    return {
        name: lock_table_snapshot(managed.machine)
        for name, managed in sorted(manager.objects.items())
        if hasattr(managed, "machine")
    }


def waits_for_edges(registry: Optional[Any]) -> Dict[str, str]:
    """Waiter → holder edges from a :class:`WaitRegistry` (empty if None)."""
    if registry is None:
        return {}
    return registry.edges()


def render_lock_tables(tables: Mapping[str, Mapping[str, List[str]]]) -> str:
    """Human-readable lock-table dump (objects with no holders elided)."""
    lines: List[str] = []
    for obj, table in tables.items():
        if not table:
            continue
        lines.append(f"{obj}:")
        for transaction in sorted(table):
            held = ", ".join(table[transaction]) or "(no locks yet)"
            lines.append(f"  {transaction:12s} holds {held}")
    if not lines:
        return "(no active transactions hold locks)"
    return "\n".join(lines)


def render_waits_for(edges: Mapping[str, str]) -> str:
    """Human-readable waits-for edge list."""
    if not edges:
        return "(no blocked transactions)"
    return "\n".join(
        f"  {waiter} -> {holder}" for waiter, holder in sorted(edges.items())
    )
