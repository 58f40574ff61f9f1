"""Common scaffolding for the ADT library.

Each abstract data type module in this package supplies:

* a :class:`~repro.core.specs.SerialSpec` subclass with canonical,
  hashable abstract states;
* operation constructors (``enq(v)``, ``deq(v)``, ...);
* the paper's dependency relation(s) as predicate relations, its symmetric
  closure (the hybrid protocol's lock-conflict relation), and the
  failure-to-commute relation (the commutativity baseline's conflicts);
* a read/write classification for the classical strict two-phase-locking
  baseline;
* a ``universe(...)`` helper building the finite operation universe used by
  the bounded derivations and table benchmarks.

The :class:`ADT` descriptor bundles these pieces so that protocols, the
runtime, the simulator, and the analysis tools can treat types uniformly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..core.conflict import PredicateRelation, Relation
from ..core.operations import Operation
from ..core.specs import SerialSpec

__all__ = [
    "ADT",
    "rw_conflict_relation",
    "register",
    "registry",
    "get_adt",
    "get_factory",
    "declared_tables",
]


@dataclass(frozen=True)
class ADT:
    """A bundled abstract data type description.

    Attributes
    ----------
    name:
        Type name ("FIFOQueue", "Account", ...).
    spec:
        The serial specification.
    dependency:
        The paper's (minimal) dependency relation for the type; rows depend
        on columns, i.e. ``dependency.related(q, p)`` means "q depends on p".
    conflict:
        The hybrid protocol's lock-conflict relation — the symmetric
        closure of ``dependency``.
    commutativity_conflict:
        The failure-to-commute relation (already symmetric): the conflict
        table a commutativity-based protocol must use.
    is_read:
        Classifies an operation as a *read* for the classical read/write
        two-phase-locking baseline; anything else takes a write lock.
    universe:
        Builds a finite operation universe over a value domain for the
        bounded derivations.
    alternative_dependencies:
        Further minimal dependency relations, when the type has more than
        one (the FIFO queue's Figure 4-3).
    """

    name: str
    spec: SerialSpec
    dependency: Relation
    conflict: Relation
    commutativity_conflict: Relation
    is_read: Callable[[Operation], bool]
    universe: Callable[..., List[Operation]]
    alternative_dependencies: Dict[str, Relation] = field(default_factory=dict)

    def rw_conflict(self) -> Relation:
        """The strict-2PL conflict relation induced by ``is_read``."""
        return rw_conflict_relation(self.is_read, name=f"rw({self.name})")


def rw_conflict_relation(
    is_read: Callable[[Operation], bool], name: str = "rw"
) -> Relation:
    """Classical read/write conflicts: everything but read-read conflicts."""
    return PredicateRelation(
        lambda q, p: not (is_read(q) and is_read(p)), name=name
    )


_REGISTRY: Dict[str, Callable[[], ADT]] = {}


def register(name: str, factory: Callable[[], ADT]) -> None:
    """Register an ADT factory under a lookup name."""
    _REGISTRY[name] = factory


def registry() -> List[str]:
    """Names of every registered ADT."""
    return sorted(_REGISTRY)


def get_factory(name: str) -> Callable[[], ADT]:
    """The registered factory for an ADT, without instantiating it."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown ADT {name!r}; registered: {', '.join(registry())}"
        ) from None


def declared_tables(name: str) -> Dict[str, Relation]:
    """Every relation a registered type can lock with, by table key: the
    ``COMPILED_TABLES`` of the module that registered it."""
    return dict(sys.modules[get_factory(name).__module__].COMPILED_TABLES)


def get_adt(name: str) -> ADT:
    """Instantiate a registered ADT by name."""
    return get_factory(name)()
