"""Core formal model: operations, histories, dependency, the LOCK machine.

Everything in this package is a direct transcription of a definition,
lemma, or algorithm from the paper; the docstring of each module cites the
section it implements.
"""

from .atomicity import (
    is_acceptable,
    is_atomic,
    is_hybrid_atomic,
    is_online_hybrid_atomic,
    is_online_hybrid_atomic_at,
    is_serializable,
    is_serializable_in_order,
    timestamps_respect_precedes,
)
from .commutativity import (
    CommuteCounterexample,
    commute,
    failure_to_commute,
    find_commute_counterexample,
)
from .compaction import NEG_INFINITY, CompactingLockMachine
from .conflict import (
    EMPTY_RELATION,
    TOTAL_RELATION,
    CompiledRelation,
    EnumeratedRelation,
    PredicateRelation,
    Relation,
    difference,
    is_symmetric,
    restrict,
    symmetric_closure,
    union,
)
from .dependency import (
    DependencyViolation,
    check_dependency_relation,
    check_lemma4,
    find_minimal_dependency_relations,
    is_dependency_relation,
    is_r_closed,
    is_view,
)
from .dependency import is_minimal_dependency_relation
from .errors import (
    IllegalOperation,
    LockConflict,
    ProtocolError,
    ReproError,
    TransactionAborted,
    ValidationFailed,
    WouldBlock,
)
from .events import (
    AbortEvent,
    CommitEvent,
    Event,
    InvocationEvent,
    ResponseEvent,
    is_completion,
)
from .history import History, HistoryBuilder, WellFormednessError
from .invalidated_by import (
    InvalidationWitness,
    find_invalidation_witness,
    invalidated_by,
    invalidates,
)
from .lock_machine import LockMachine
from .operations import Invocation, Operation, OperationSequence, op
from .specs import SerialSpec, StateSet, enumerate_legal_sequences
from .timestamps import (
    LogicalClock,
    MonotoneTimestampGenerator,
    SkewedTimestampGenerator,
    TimestampGenerator,
)

__all__ = [
    # operations / events / histories
    "Invocation",
    "Operation",
    "OperationSequence",
    "op",
    "InvocationEvent",
    "ResponseEvent",
    "CommitEvent",
    "AbortEvent",
    "Event",
    "is_completion",
    "History",
    "HistoryBuilder",
    "WellFormednessError",
    # specs
    "SerialSpec",
    "StateSet",
    "enumerate_legal_sequences",
    # relations
    "Relation",
    "PredicateRelation",
    "EnumeratedRelation",
    "CompiledRelation",
    "symmetric_closure",
    "union",
    "difference",
    "restrict",
    "is_symmetric",
    "EMPTY_RELATION",
    "TOTAL_RELATION",
    # dependency machinery
    "DependencyViolation",
    "check_dependency_relation",
    "is_dependency_relation",
    "is_minimal_dependency_relation",
    "find_minimal_dependency_relations",
    "is_r_closed",
    "is_view",
    "check_lemma4",
    "InvalidationWitness",
    "find_invalidation_witness",
    "invalidated_by",
    "invalidates",
    "CommuteCounterexample",
    "commute",
    "failure_to_commute",
    "find_commute_counterexample",
    # atomicity
    "is_acceptable",
    "is_serializable",
    "is_serializable_in_order",
    "is_atomic",
    "is_hybrid_atomic",
    "is_online_hybrid_atomic",
    "is_online_hybrid_atomic_at",
    "timestamps_respect_precedes",
    # machines
    "LockMachine",
    "CompactingLockMachine",
    "NEG_INFINITY",
    # timestamps
    "LogicalClock",
    "TimestampGenerator",
    "MonotoneTimestampGenerator",
    "SkewedTimestampGenerator",
    # errors
    "ReproError",
    "ProtocolError",
    "LockConflict",
    "WouldBlock",
    "IllegalOperation",
    "TransactionAborted",
    "ValidationFailed",
]
