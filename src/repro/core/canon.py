"""Canonical encodings of abstract states (deterministic total order).

Several places need to order abstract states deterministically: the
serial specification's ``results_for`` ("choose a result consistent with
the view", Section 4.1) iterates a state-*set* and must pick results in
an order that does not depend on hash seeds or container iteration
order (:func:`canonical_order`), every ``snapshot`` shows one state of a
set (:func:`representative`), and the codecs sort set elements when
serialising payloads.  Keying these sorts on ``repr`` is not stable: the
``repr`` of a ``frozenset`` (the Set/Directory ADT states) lists
elements in hash-iteration order, which varies with ``PYTHONHASHSEED``
and across Python versions — so "choose a result consistent with the
view" could flip between runs.

:func:`canonical_key` maps any value built from the canonical immutable
shapes the specifications use (numbers, strings, tuples, frozensets,
and the few extras the codec handles) to a string such that equal
values get equal keys and the key depends only on the value, never on
insertion or iteration order.  Keys are type-tagged so values of
different types never collide (``1`` vs ``True`` vs ``"1"``).

For values outside the canonical vocabulary the key falls back to
``repr`` — lossy ordering, but no worse than the previous behaviour,
and none of the in-tree specifications hit the fallback.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Collection, List

__all__ = ["canonical_key", "canonical_order", "representative"]


def canonical_key(value: Any) -> str:
    """A deterministic, iteration-order-independent sort key for ``value``.

    Equal same-type values built from the canonical state vocabulary
    receive equal keys; distinct values receive distinct keys.  (Equal
    cross-type numerics like ``1`` and ``1.0`` key differently, but a
    set never holds both, so sorts stay deterministic.)  Keys are plain
    strings, so any mix of states can be sorted together.
    """
    if value is None:
        return "n:"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return f"b:{value}"
    if isinstance(value, int):
        return f"i:{value:024d}" if value >= 0 else f"i-:{-value:024d}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, Fraction):
        return f"q:{value.numerator}/{value.denominator}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, bytes):
        return f"y:{value!r}"
    if isinstance(value, tuple):
        return "t:(" + ",".join(canonical_key(item) for item in value) + ")"
    if isinstance(value, (frozenset, set)):
        return (
            "fs:{" + ",".join(sorted(canonical_key(item) for item in value)) + "}"
        )
    if isinstance(value, list):
        return "l:[" + ",".join(canonical_key(item) for item in value) + "]"
    if isinstance(value, dict):
        pairs = sorted(
            (canonical_key(key), canonical_key(item))
            for key, item in value.items()
        )
        return "d:{" + ",".join(f"{k}={v}" for k, v in pairs) + "}"
    return f"r:{value!r}"


def canonical_order(values: Collection[Any]) -> List[Any]:
    """``values`` in :func:`canonical_key` order.  One value has no order
    to establish, so its key — a string as long as the state is large —
    is never built: every in-tree view is such a singleton."""
    if len(values) < 2:
        return list(values)
    return sorted(values, key=canonical_key)


def representative(states: Collection[Any]) -> Any:
    """The one state shown for a non-empty state-set: its only element,
    else the canonically least — never ``repr`` order, which flips with
    ``PYTHONHASHSEED`` for set-valued states."""
    return canonical_order(states)[0]
