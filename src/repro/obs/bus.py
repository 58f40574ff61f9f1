"""The trace event bus: emit-if-anyone-listens, near-zero when idle.

Every instrumentation site guards an optional ``tracer`` (``None`` by
default): the disabled path is one attribute load and an identity check,
and a bus with no subscribers returns before building the event.

The sink protocol: a sink is a callable taking a
:class:`~repro.obs.events.TraceEvent`, and hears every event.  A sink may
also declare ``route(kind)``: the callables that fold an event of that
kind, called in order; an empty result means it never hears the kind.
The bus asks once per kind, and forgets the answers on every
``subscribe`` / ``unsubscribe``.  See :mod:`repro.obs.sinks`.

A sink that raises (a trace file on a full disk) must not reach the emit
site — it sits between the two objects of one atomic commit — so it is
detached, none of its remaining callables run for that event, and
:attr:`TraceBus.failures` records why.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import TraceEvent

__all__ = ["TraceBus"]

_new_event = object.__new__


class TraceBus:
    """Fan-out of trace events to subscribed sinks.  ``clock`` gives the
    event timestamp (:func:`time.monotonic` by default; the simulation
    harness rebinds it to the discrete-event clock)."""

    __slots__ = ("_sinks", "_routes", "active", "clock", "emitted", "failures")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._sinks: List[Callable[[TraceEvent], None]] = []
        #: kind -> ``(folds, owners)``: its callables, and each one's sink.
        self._routes: Dict[str, Tuple[Tuple[Callable, ...], Tuple[Any, ...]]] = {}
        #: True when at least one sink is subscribed.
        self.active = False
        self.clock: Callable[[], float] = clock or time.monotonic
        #: Total events emitted to at least one sink (cheap sanity stat).
        self.emitted: int = 0
        #: ``(sink, exception)`` for every sink detached because it raised.
        self.failures: List[Tuple[Callable[[TraceEvent], None], Exception]] = []

    def subscribe(self, sink: Callable[[TraceEvent], None]):
        """Attach a sink; returns it (for chaining)."""
        self._sinks.append(sink)
        self._routes, self.active = {}, True
        return sink

    def unsubscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Detach a sink (no-op if absent).  A new list and route table,
        so an ``emit`` in progress finishes over its route."""
        self._sinks = [kept for kept in self._sinks if kept != sink]
        self._routes, self.active = {}, bool(self._sinks)

    def _detach(self, sink: Any, exc: Exception) -> None:
        self.unsubscribe(sink)
        self.failures.append((sink, exc))

    def _route(self, kind: str) -> Tuple[Tuple[Callable, ...], Tuple[Any, ...]]:
        """Build and keep the route of ``kind``."""
        folds: List[Callable] = []
        owners: List[Any] = []
        for sink in self._sinks:
            router = getattr(sink, "route", None)
            try:
                routed = (sink,) if router is None else router(kind)
            except Exception as exc:  # as if its fold had raised
                self._detach(sink, exc)
                continue
            for fold in routed:
                # Each entry its own object: the one that raises is found
                # by identity (see _recover).
                folds.append(partial(fold) if any(fold is f for f in folds) else fold)
                owners.append(sink)
        route = self._routes[kind] = (tuple(folds), tuple(owners))
        return route

    def emit(self, kind: str, **data: Any) -> None:
        """Publish one event to the sinks that fold its kind; never raises
        an ``Exception`` into the instrumented caller."""
        if not self.active:
            return
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        event = _new_event(TraceEvent)  # no ``__init__`` frame per event
        event.ts = self.clock()
        event.kind = kind
        event.data = data
        self.emitted += 1
        try:
            for fold in route[0]:
                fold(event)
        except Exception as exc:
            self._recover(route, fold, event, exc)

    def _recover(self, route: Tuple, failed: Any, event: Any, exc: Exception) -> None:
        """``failed`` raised ``exc``: detach its sink, and run the rest of
        the route but the folds of every sink detached."""
        folds, owners = route
        position = next(i for i, fold in enumerate(folds) if fold is failed)
        detached = [owners[position]]
        self._detach(owners[position], exc)
        for position in range(position + 1, len(folds)):
            owner = owners[position]
            if any(owner is sink for sink in detached):
                continue
            try:
                folds[position](event)
            except Exception as error:
                detached.append(owner)
                self._detach(owner, error)
