"""Type-specific *optimistic* concurrency control (library extension).

The paper's Discussion (Section 7.2) notes that dependency relations
"form the basis for validation in type-specific optimistic concurrency
control mechanisms" (Herlihy's 1990 TODS paper, [9]).  This module builds
that mechanism on the same substrate as the locking runtime:

* transactions execute **without locks**, reading a view made of the
  committed state plus their own intentions;
* at commit, each touched object *validates* the transaction against the
  operations committed since it started:

  - **fast path** (dependency check): if no operation of the transaction
    depends on any newly committed operation, its old view is still a
    dependency-closed view of the new committed state and Lemma 7
    guarantees legality — commit without replay;
  - **slow path** (replay): otherwise re-run the transaction's intentions
    after the current committed state; if every operation is still legal
    with the same results, the interleaving is serializable anyway;

* validation failure aborts the transaction (:class:`ValidationFailed`),
  the optimistic analogue of a lock refusal.

An :class:`OptimisticObject` is a participant of the one
:class:`~repro.runtime.TransactionManager`: validation is its ``prepare``.
The manager admits it only under a monotone timestamp generator, so the
serialization order is the commit order and validation against
"committed since start" is exactly what hybrid atomicity needs.  The
verification tests check recorded histories with the Section 3 machinery,
and the crossover benchmark compares optimistic and locking engines under
rising contention.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..adts.base import ADT
from ..core.canon import representative
from ..core.compaction import NEG_INFINITY
from ..core.conflict import Relation
from ..core.errors import ValidationFailed, WouldBlock
from ..core.operations import Invocation, Operation, OperationSequence
from ..protocols.base import OPTIMISTIC
from .manager import TransactionManager

__all__ = ["ValidationFailed", "OptimisticObject", "OptimisticTransactionManager"]


class OptimisticObject:
    """One object under optimistic control, as a
    :class:`~repro.runtime.TransactionManager` participant.

    Keeps the whole committed operation sequence, each active
    transaction's intentions, and the committed-sequence index at which
    each transaction started.  Nothing is compacted: 1,000 commits retain
    1,000 operations, and every ``execute`` replays its view from the
    initial state.
    """

    def __init__(self, name: str, adt: ADT, dependency: Optional[Relation] = None):
        self.name = name
        self.adt = adt
        self.spec = adt.spec
        #: Directional dependency relation used for fast-path validation.
        self.dependency = dependency if dependency is not None else adt.dependency
        self._committed: List[Operation] = []
        #: Which transaction committed each entry of ``_committed`` —
        #: lets a failed validation name the commit that invalidated it.
        self._committed_by: List[str] = []
        self._intentions: Dict[str, List[Operation]] = {}
        self._start_index: Dict[str, int] = {}
        #: Fast/slow path counters (exposed for the benchmarks).
        self.fast_validations = 0
        self.replay_validations = 0
        self.failed_validations = 0
        #: Optional :class:`repro.obs.TraceBus`; None keeps tracing free.
        self.tracer = None

    # ------------------------------------------------------------------

    def committed_sequence(self) -> OperationSequence:
        """The committed operations, in commit (= timestamp) order."""
        return tuple(self._committed)

    def intentions(self, transaction: str) -> OperationSequence:
        """Operations executed so far by the transaction at this object."""
        return tuple(self._intentions.get(transaction, ()))

    def execute(self, transaction: str, invocation: Invocation) -> Any:
        """Execute without locking: choose a result legal in the view.

        Raises :class:`WouldBlock` when the view enables no outcome.
        """
        if transaction not in self._start_index:
            self._start_index[transaction] = len(self._committed)
        mine = self._intentions.setdefault(transaction, [])
        view = self._committed[: self._start_index[transaction]] + mine
        states = self.spec.run(view)
        results = self.spec.results_for(states, invocation)
        if not results:
            raise WouldBlock(f"{invocation} has no legal outcome in the view")
        result = results[0]
        mine.append(Operation(invocation, result))
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "txn.invoke",
                transaction=transaction,
                obj=self.name,
                operation=invocation.name,
                args=invocation.args,
            )
            tracer.emit(
                "txn.respond",
                transaction=transaction,
                obj=self.name,
                result=result,
            )
        return result

    def observed(self, transaction: str) -> Any:
        """Nothing to feed the generator: the manager admits this object
        only under a monotone generator, whose every timestamp already
        exceeds everything committed here."""
        return NEG_INFINITY

    def prepare(self, transaction: str) -> None:
        """Commit-time certification against newly committed operations;
        vetoes with :class:`ValidationFailed` (final: the manager aborts
        the transaction everywhere)."""
        tracer = self.tracer
        mine = self._intentions.get(transaction, [])
        start = self._start_index.get(transaction, len(self._committed))
        new_ops = self._committed[start:]
        # Fast path: nothing of mine depends on anything new (Lemma 7).
        if not any(self.dependency.related(q, p) for q in mine for p in new_ops):
            self.fast_validations += 1
            path = "fast"
        else:
            # Slow path: replay after the full committed sequence.
            self.replay_validations += 1
            path = "replay"
            if not self.spec.run(tuple(self._committed) + tuple(mine)):
                self.failed_validations += 1
                if tracer is not None:
                    index, culprit = next(
                        (index, new_op)
                        for index, new_op in enumerate(new_ops)
                        if any(self.dependency.related(q, new_op) for q in mine)
                    )
                    tracer.emit(
                        "validation.invalidated",
                        transaction=transaction,
                        obj=self.name,
                        invalidated_by=self._committed_by[start + index],
                        operation=str(culprit),
                    )
                raise ValidationFailed(
                    f"{transaction} invalidated by a concurrent commit"
                    f" at {self.name}",
                    obj=self.name,
                )
        if tracer is not None:
            tracer.emit(
                "validation.success",
                transaction=transaction,
                obj=self.name,
                path=path,
            )

    def commit(self, transaction: str, timestamp: Any) -> None:
        """Fold a validated transaction's intentions into the committed
        sequence (commit order = timestamp order)."""
        mine = self._intentions.pop(transaction, [])
        self._committed.extend(mine)
        self._committed_by.extend([transaction] * len(mine))
        self._start_index.pop(transaction, None)

    def abort(self, transaction: str) -> None:
        """Drop an aborted transaction's footprint."""
        self._intentions.pop(transaction, None)
        self._start_index.pop(transaction, None)

    def snapshot(self) -> Any:
        """A committed-state snapshot (deterministic representative)."""
        return representative(self.spec.run(tuple(self._committed)))


class OptimisticTransactionManager(TransactionManager):
    """A :class:`~repro.runtime.TransactionManager` whose objects default
    to the optimistic engine.

    Commit raises :class:`ValidationFailed` (after aborting the
    transaction) when certification fails at any touched object — the
    atomic-commitment analogue of a participant voting "no".
    """

    def create_object(
        self, name: str, adt: ADT, dependency: Optional[Relation] = None
    ) -> OptimisticObject:
        """Create an optimistic object (``dependency`` overrides the
        fast-path relation)."""
        return super().create_object(name, adt, OPTIMISTIC, conflict=dependency)
