"""Tests only: the production compacting machine with a recorder put back.

:class:`~repro.core.CompactingLockMachine` keeps no event log (a served
object's history is the trace-bus fold), so the tests that compare what a
compacting machine *accepted*, event for event, against the Section 5.1
reference drive this subclass: every transition is the shipped one, only
the recording step and ``history()`` are the reference machine's.
"""

from repro.core import CompactingLockMachine, LockMachine


class RecordingCompactingLockMachine(CompactingLockMachine):
    _record = LockMachine._record
    history = LockMachine.history


def record_machine(managed):
    """Swap ``managed``'s (still unused) machine for a recording one."""
    old = managed.machine
    managed.machine = RecordingCompactingLockMachine(old.spec, old.conflict, old.obj)
    managed.machine.tracer = old.tracer
    return managed.machine
