"""Tagged JSON codec for trace-event and wire payloads.

Operation tuples, ``-inf`` horizons, fractions and state-set frozensets
round-trip exactly through :mod:`repro.core.tagged` (the walker the
write-ahead log encodes with too); because a trace line must always be
writable, this codec adds two lenient tags of its own:

=========================  ========================================
tag                        value
=========================  ========================================
``{"__d__": [[k,v],..]}``  dict (pairs, so non-string keys survive)
``{"__r__": "..."}``       anything else, by ``repr`` (lossy fallback)
=========================  ========================================

``decode_value`` passes unrecognised dicts through unchanged, so traces
written before this codec existed still replay (with their old, lossy
string payloads).
"""

from __future__ import annotations

import json
from typing import Any

from ..core.tagged import decode_tagged, encode_tagged

__all__ = ["encode_value", "encode_event", "decode_value"]

_ENCODER = json.JSONEncoder(default=repr)


def _encode_other(value: Any) -> Any:
    if isinstance(value, dict):
        pairs = [[encode_value(k), encode_value(v)] for k, v in value.items()]
        return {"__d__": pairs}
    return {"__r__": repr(value)}


def _decode_other(data: Any) -> Any:
    if "__d__" in data:
        return {decode_value(key): decode_value(item) for key, item in data["__d__"]}
    if "__r__" in data:
        return data["__r__"]
    return data  # pre-codec trace: an untagged payload dict


def encode_value(value: Any) -> Any:
    """Encode one payload value into JSON-representable form."""
    return encode_tagged(value, _encode_other)


def encode_event(event: Any) -> str:
    """One trace event as its JSON line (no newline): ``ts``, ``kind``,
    then each payload value through :func:`encode_value`."""
    record = {"ts": event.ts, "kind": event.kind}
    for key, value in event.data.items():
        record[key] = encode_tagged(value, _encode_other)
    return _ENCODER.encode(record)


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`; tolerate untagged legacy payloads."""
    return decode_tagged(value, _decode_other)
