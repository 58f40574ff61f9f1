"""The tagged JSON encoding of state, argument and timestamp values.

Values JSON represents natively pass through; the rest are wrapped in
single-key tag objects so the exact Python shape survives a round trip:

========================  =========================================
``{"__t__": [...]}``      tuple (operation arguments, queue states)
``{"__l__": [...]}``      list
``{"__s__": [...]}``      set
``{"__fs__": [...]}``     frozenset (state sets)
``{"__fr__": [n, d]}``    :class:`fractions.Fraction`
``{"__neginf__": true}``  the ``NEG_INFINITY`` timestamp
========================  =========================================

Set elements are written in :func:`~repro.core.canon.canonical_key`
order (``repr`` order follows hash iteration; log, checkpoint and trace
bytes must not depend on the seed).  This is the one walker of these
tags; what to do with any other value is its caller's ``other``:
:mod:`repro.recovery.wal` refuses, :mod:`repro.obs.codec` is lenient.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable

from .canon import canonical_order
from .compaction import NEG_INFINITY

__all__ = ["encode_tagged", "decode_tagged"]


def encode_tagged(value: Any, other: Callable[[Any], Any]) -> Any:
    """Encode ``value``; ``other(v)`` answers for any (nested) value that
    has no tag here, by raising or with an encoding of its own."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t__": [encode_tagged(item, other) for item in value]}
    if isinstance(value, Fraction):
        return {"__fr__": [value.numerator, value.denominator]}
    if isinstance(value, list):
        return {"__l__": [encode_tagged(item, other) for item in value]}
    if isinstance(value, (frozenset, set)):
        tag = "__fs__" if isinstance(value, frozenset) else "__s__"
        ordered = canonical_order(value)
        return {tag: [encode_tagged(item, other) for item in ordered]}
    if isinstance(value, type(NEG_INFINITY)):  # or an unpickled copy of it
        return {"__neginf__": True}
    return other(value)


def decode_tagged(data: Any, other: Callable[[Any], Any]) -> Any:
    """Invert :func:`encode_tagged`; ``other(d)`` answers for a JSON
    object carrying none of the tags above."""
    if isinstance(data, dict):
        if "__t__" in data:
            return tuple(decode_tagged(item, other) for item in data["__t__"])
        if "__l__" in data:
            return [decode_tagged(item, other) for item in data["__l__"]]
        if "__fs__" in data:
            return frozenset(decode_tagged(item, other) for item in data["__fs__"])
        if "__s__" in data:
            return {decode_tagged(item, other) for item in data["__s__"]}
        if "__fr__" in data:
            numerator, denominator = data["__fr__"]
            return Fraction(numerator, denominator)
        if "__neginf__" in data:
            return NEG_INFINITY
        return other(data)
    if isinstance(data, list):
        return [decode_tagged(item, other) for item in data]
    return data
