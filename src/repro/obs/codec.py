"""Tagged JSON codec for trace-event payloads.

``JSONLSink`` originally serialised awkward payload values (operation
tuples, ``-inf`` horizons, state-set frozensets) through ``repr``, which
made the log one-way: ``read_jsonl`` handed back strings where the live
event carried tuples.  This codec makes the round trip exact.  Values
that JSON represents natively pass through untouched; containers and the
few special scalars are wrapped in single-key tag objects, mirroring the
write-ahead log's encoding (:mod:`repro.recovery.wal`):

========================  =========================================
tag                       value
========================  =========================================
``{"__t__": [...]}``      tuple (e.g. operation arguments, queue states)
``{"__l__": [...]}``      list
``{"__s__": [...]}``      set (elements in canonical-key order)
``{"__fs__": [...]}``     frozenset (state sets; canonical-key order)
``{"__d__": [[k,v],..]}``  dict (pairs, so non-string keys survive)
``{"__fr__": [n, d]}``    :class:`fractions.Fraction`
``{"__neginf__": true}``  the ``NEG_INFINITY`` horizon sentinel
``{"__r__": "..."}``      anything else, by ``repr`` (lossy fallback)
========================  =========================================

``decode_value`` passes unrecognised dicts through unchanged, so traces
written before this codec existed still replay (with their old, lossy
string payloads).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from ..core.canon import canonical_key
from ..core.compaction import NEG_INFINITY

__all__ = ["encode_value", "encode_event", "decode_value"]

_ENCODER = json.JSONEncoder(default=repr)


def encode_value(value: Any) -> Any:
    """Encode one payload value into JSON-representable form."""
    if value is NEG_INFINITY:
        return {"__neginf__": True}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return {"__fr__": [value.numerator, value.denominator]}
    if isinstance(value, tuple):
        return {"__t__": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__l__": [encode_value(item) for item in value]}
    # Set elements are ordered by their canonical encoding, not repr:
    # repr order follows hash iteration, which is seed-dependent, and
    # trace files should be byte-identical across runs.
    if isinstance(value, frozenset):
        return {
            "__fs__": [encode_value(item) for item in sorted(value, key=canonical_key)]
        }
    if isinstance(value, set):
        return {
            "__s__": [encode_value(item) for item in sorted(value, key=canonical_key)]
        }
    if isinstance(value, dict):
        return {
            "__d__": [
                [encode_value(key), encode_value(item)]
                for key, item in value.items()
            ]
        }
    return {"__r__": repr(value)}


def encode_event(event: Any) -> str:
    """One trace event as its JSON line (no newline): ``ts``, ``kind``,
    then each payload value through :func:`encode_value`."""
    record = {"ts": event.ts, "kind": event.kind}
    for key, value in event.data.items():
        record[key] = encode_value(value)
    return _ENCODER.encode(record)


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`; tolerate untagged legacy payloads."""
    if isinstance(value, dict):
        if "__t__" in value:
            return tuple(decode_value(item) for item in value["__t__"])
        if "__l__" in value:
            return [decode_value(item) for item in value["__l__"]]
        if "__fs__" in value:
            return frozenset(decode_value(item) for item in value["__fs__"])
        if "__s__" in value:
            return set(decode_value(item) for item in value["__s__"])
        if "__d__" in value:
            return {
                decode_value(key): decode_value(item)
                for key, item in value["__d__"]
            }
        if "__fr__" in value:
            numerator, denominator = value["__fr__"]
            return Fraction(numerator, denominator)
        if "__neginf__" in value:
            return NEG_INFINITY
        if "__r__" in value:
            return value["__r__"]
        return value  # pre-codec trace: an untagged payload dict
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value
