"""Tests only: the serving tier's batched wire events, built by keyword.

A ``server.request`` carries one positional row of
:data:`~repro.obs.events.REQUEST_ROW` per admitted request, a
``server.respond`` one of :data:`~repro.obs.events.REPLY_ROW` per answered
one; a key left out is None.
"""

from repro.obs.events import REPLY_ROW, REQUEST_ROW


def request(**fields):
    """One ``server.request`` row."""
    return tuple(fields.get(key) for key in REQUEST_ROW)


def reply(**fields):
    """One ``server.respond`` row."""
    return tuple(fields.get(key) for key in REPLY_ROW)


def admitted(bus, **fields):
    """Emit a one-row ``server.request`` on ``bus``."""
    bus.emit("server.request", requests=[request(**fields)])


def answered(bus, **fields):
    """Emit a one-row ``server.respond`` on ``bus``."""
    bus.emit("server.respond", replies=[reply(**fields)])
