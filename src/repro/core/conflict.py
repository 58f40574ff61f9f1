"""Binary relations on operations: dependency tables and lock conflicts.

The paper's lock conflict relations are binary relations on operations whose
membership may depend on operation names, arguments *and results* (e.g. a
``Deq`` returning ``v`` depends on an ``Enq`` of ``v' != v``).  This module
provides a small algebra of such relations:

* :class:`PredicateRelation` — membership given by a Python predicate;
  this is how the paper's parametric tables (Figures 4-1 .. 4-5, 7-1) are
  transcribed;
* :class:`EnumeratedRelation` — an explicit finite set of pairs; this is
  what the bounded derivations in :mod:`repro.core.invalidated_by` and
  :mod:`repro.core.commutativity` produce;
* :class:`CompiledRelation` — a predicate relation tabulated by operation
  class over a finite universe; this is what the lock machines run;
* combinators: union, difference, symmetric closure, restriction to a
  finite universe, and comparison helpers.

Conventions: ``relation.related(q, p)`` reads "``q`` depends on ``p``"
(row ``q``, column ``p`` in the paper's figures).  Lock *conflict* relations
must be symmetric (Section 5); they are typically obtained as the symmetric
closure of a dependency relation.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .operations import Operation

__all__ = [
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
]

Pair = Tuple[Operation, Operation]


class Relation:
    """A binary relation on operations.

    Subclasses implement :meth:`related`.  The operators ``|`` (union),
    ``-`` (difference) and the helpers below build derived relations.
    """

    #: Optional human-readable name, used by the table renderers.
    name: str = "relation"

    #: Lazily created per-instance memo for :meth:`pairs` (class-level
    #: None until the first enumeration; never shared across instances).
    _pairs_cache: Optional[Dict[Tuple[Operation, ...], FrozenSet[Pair]]] = None

    def related(self, q: Operation, p: Operation) -> bool:
        """True iff ``(q, p)`` is in the relation ("q depends on p")."""
        raise NotImplementedError

    def __contains__(self, pair: Pair) -> bool:
        q, p = pair
        return self.related(q, p)

    def __or__(self, other: "Relation") -> "Relation":
        return union(self, other)

    def __sub__(self, other: "Relation") -> "Relation":
        return difference(self, other)

    def pairs(self, universe: Sequence[Operation]) -> FrozenSet[Pair]:
        """All related pairs drawn from a finite operation universe.

        Enumerations over the same universe are memoised per relation
        instance: the bounded derivations (:mod:`repro.analysis.derive`,
        :mod:`repro.core.invalidated_by`,
        :mod:`repro.core.commutativity`) restrict the same paper tables
        repeatedly, and relations here are pure — membership depends
        only on the operation pair — so re-evaluating the |U|² predicate
        grid per enumeration is wasted work.
        """
        key = tuple(universe)
        cache = self._pairs_cache
        if cache is None:
            cache = {}
            # Instance attribute shadowing the class-level None:
            # subclasses need not call Relation.__init__.
            self._pairs_cache = cache
        try:
            hit = cache.get(key)
        except TypeError:  # unhashable operation payloads: no memo
            return self._enumerate_pairs(universe)
        if hit is None:
            hit = self._enumerate_pairs(universe)
            cache[key] = hit
        return hit

    def _enumerate_pairs(self, universe: Sequence[Operation]) -> FrozenSet[Pair]:
        return frozenset(
            (q, p) for q in universe for p in universe if self.related(q, p)
        )

    def restrict(self, universe: Sequence[Operation]) -> "EnumeratedRelation":
        """The relation restricted to a finite universe, enumerated."""
        return EnumeratedRelation(self.pairs(universe), name=self.name)


class PredicateRelation(Relation):
    """Relation whose membership is computed by a predicate.

    The predicate receives ``(q, p)`` and returns a bool.  Example, the
    File dependency relation of Figure 4-1 ("Read depends on Write when the
    values differ")::

        PredicateRelation(
            lambda q, p: q.name == "Read" and p.name == "Write"
                         and q.result != p.args[0],
            name="file-dependency",
        )

    This is how the paper's figures are written down and verified; the
    lock machines run their tabulation (:class:`CompiledRelation`).
    """

    def __init__(
        self,
        predicate: Callable[[Operation, Operation], bool],
        name: str = "relation",
    ):
        self._predicate = predicate
        self.name = name

    def related(self, q: Operation, p: Operation) -> bool:
        return bool(self._predicate(q, p))


class EnumeratedRelation(Relation):
    """Relation given by an explicit, finite set of pairs."""

    def __init__(self, pairs: Iterable[Pair] = (), name: str = "relation"):
        self._pairs: FrozenSet[Pair] = frozenset(pairs)
        self.name = name

    def related(self, q: Operation, p: Operation) -> bool:
        return (q, p) in self._pairs

    @property
    def pair_set(self) -> FrozenSet[Pair]:
        """The underlying set of pairs."""
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EnumeratedRelation):
            return self._pairs == other._pairs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs)

    def without(self, pair: Pair) -> "EnumeratedRelation":
        """A copy with one pair removed (used by minimality search)."""
        return EnumeratedRelation(self._pairs - {pair}, name=self.name)

    def __repr__(self) -> str:
        body = ", ".join(f"({q}, {p})" for q, p in sorted(self._pairs, key=str))
        return f"EnumeratedRelation({{{body}}})"


#: Position-wise :func:`_compare` results for two operations' values.
_Pattern = Tuple[int, ...]

#: A class-table entry: one answer for the whole class pair, or one per
#: comparison pattern.
_Entry = Union[bool, Dict[_Pattern, bool]]


def _compare(a: Any, b: Any) -> int:
    """Three-way comparison (-1, 0, 1); 2 for unequal values with no order."""
    if a == b:
        return 0
    try:
        return -1 if a < b else 1
    except TypeError:
        return 2


def _is_symbolic(result: Any) -> bool:
    """Does a result name an outcome ("Ok", "Overdraft", True, a tagged
    tuple like ``("Found", v)``) rather than carry a value?"""
    if isinstance(result, tuple):
        return bool(result) and isinstance(result[0], str)
    return result is None or isinstance(result, (str, bool))


class CompiledRelation(Relation):
    """A relation tabulated by operation class: the paper's figures as data.

    Figures 4-1 .. 4-5 and 7-1 have one row and one column per operation
    *class* (``Debit(m),Ok``; ``Deq,v``) and entries that are ``true``,
    blank, or a comparison of the two operations' values (``v != v'``).
    This class is that table.  An operation's class is its name plus its
    symbolic result; its values are its arguments followed by whatever its
    result carries.  An entry is a constant, or a map from the pattern of
    position-wise three-way comparisons of the two value tuples to a bool.

    The table is built once, by evaluating ``source`` over ``universe``.
    Construction raises :class:`ValueError` when two pairs with the same
    classes and pattern get different answers, because then no table of
    this shape says what ``source`` says.  An entry becomes a constant only
    when every pattern was seen (or every answer is ``True``), so a
    comparison is never assumed irrelevant on the strength of values the
    universe happened not to contain.  Two unequal values that Python
    cannot order (a ``str`` against an ``int``) are answered where the
    table says the same for either order, and are unseen otherwise.

    :meth:`related` never calls ``source`` again and never hashes an
    operation.  A class or pattern the universe did not show is answered
    ``True``: dependency relations are upward closed
    (:mod:`repro.core.dependency`), so an extra conflict costs concurrency,
    never atomicity.
    """

    def __init__(
        self,
        source: Relation,
        universe: Sequence[Operation],
        name: Optional[str] = None,
    ):
        self.name = source.name if name is None else name
        self._universe: Tuple[Operation, ...] = tuple(universe)
        # A result is a value for every operation of a name that returns
        # one anywhere in the universe (a Deq of "Ok" is still an item).
        self._valued: FrozenSet[str] = frozenset(
            op.name for op in self._universe if not _is_symbolic(op.result)
        )
        seen: Dict[Tuple[Any, Any], Dict[_Pattern, bool]] = {}
        witnesses: Dict[Tuple[Any, Any, _Pattern], Pair] = {}
        classified = [(op, *self._classify(op)) for op in self._universe]
        for q, q_class, q_values in classified:
            for p, p_class, p_values in classified:
                pattern = tuple(map(_compare, q_values, p_values))
                answer = bool(source.related(q, p))
                patterns = seen.setdefault((q_class, p_class), {})
                first = witnesses.setdefault((q_class, p_class, pattern), (q, p))
                if patterns.setdefault(pattern, answer) != answer:
                    raise ValueError(
                        f"{self.name}: not a function of operation class: "
                        f"related({q}, {p}) is {answer} but "
                        f"related({first[0]}, {first[1]}) is {not answer}, "
                        f"and both are {q_class} x {p_class} with "
                        f"comparison pattern {pattern}"
                    )
        self._table: Dict[Any, Dict[Any, _Entry]] = {}
        for (q_class, p_class), patterns in seen.items():
            self._table.setdefault(q_class, {})[p_class] = self._entry(patterns)

    @staticmethod
    def _entry(patterns: Dict[_Pattern, bool]) -> _Entry:
        answers = set(patterns.values())
        arity = len(next(iter(patterns)))
        every_pattern = set(itertools.product((-1, 0, 1), repeat=arity))
        if answers == {True} or (len(answers) == 1 and every_pattern <= set(patterns)):
            return answers.pop()
        # Values with no order (a str against an int) compare as 2.  Such a
        # pattern gets an answer when the table gives the same one for
        # either order, that is, when only equality matters there.
        for pattern in itertools.product((-1, 0, 1, 2), repeat=arity):
            either_order = {
                patterns.get(
                    tuple(o if c == 2 else c for c, o in zip(pattern, order))
                )
                for order in itertools.product((-1, 1), repeat=arity)
            }
            if 2 in pattern and len(either_order) == 1 and None not in either_order:
                patterns.setdefault(pattern, either_order.pop())
        return patterns

    def _classify(self, operation: Operation) -> Tuple[Any, Tuple[Any, ...]]:
        """``(class, values)`` of an operation."""
        invocation = operation.invocation
        name = invocation.name
        result = operation.result
        if name in self._valued:
            return (name, None), invocation.args + (result,)
        if type(result) is tuple and result:
            return (name, result[0]), invocation.args + result[1:]
        return (name, result), invocation.args

    def tabulated(self, q: Operation, p: Operation) -> Optional[bool]:
        """The table's answer for ``(q, p)``; None when the universe never
        showed the pair's classes together with its comparison pattern."""
        try:
            q_class, q_values = self._classify(q)
            p_class, p_values = self._classify(p)
            entry = self._table[q_class][p_class]
        except (KeyError, TypeError):  # unseen class / unhashable result
            return None
        if isinstance(entry, dict):
            return entry.get(tuple(map(_compare, q_values, p_values)))
        return entry

    def related(self, q: Operation, p: Operation) -> bool:
        answer = self.tabulated(q, p)
        return True if answer is None else answer

    @property
    def universe(self) -> Tuple[Operation, ...]:
        """The operations the table was built from."""
        return self._universe

    def __repr__(self) -> str:
        return (
            f"CompiledRelation(name={self.name!r}, "
            f"{len(self._table)} classes from {len(self._universe)} ops)"
        )


class _Union(Relation):
    def __init__(self, parts: Sequence[Relation], name: str):
        self._parts = tuple(parts)
        self.name = name

    def related(self, q: Operation, p: Operation) -> bool:
        return any(part.related(q, p) for part in self._parts)


class _Difference(Relation):
    def __init__(self, left: Relation, right: Relation, name: str):
        self._left = left
        self._right = right
        self.name = name

    def related(self, q: Operation, p: Operation) -> bool:
        return self._left.related(q, p) and not self._right.related(q, p)


class _Symmetric(Relation):
    def __init__(self, base: Relation, name: str):
        self._base = base
        self.name = name

    def related(self, q: Operation, p: Operation) -> bool:
        return self._base.related(q, p) or self._base.related(p, q)


def union(*relations: Relation, name: str = "union") -> Relation:
    """The union of several relations."""
    enumerated = [r for r in relations if isinstance(r, EnumeratedRelation)]
    if len(enumerated) == len(relations):
        pairs: Set[Pair] = set()
        for r in enumerated:
            pairs |= r.pair_set
        return EnumeratedRelation(pairs, name=name)
    return _Union(relations, name)


def difference(left: Relation, right: Relation, name: str = "difference") -> Relation:
    """Pairs in ``left`` but not in ``right``."""
    if isinstance(left, EnumeratedRelation) and isinstance(right, EnumeratedRelation):
        return EnumeratedRelation(left.pair_set - right.pair_set, name=name)
    return _Difference(left, right, name)


def symmetric_closure(relation: Relation, name: str = "") -> Relation:
    """The smallest symmetric relation containing ``relation``.

    Lock conflict relations are "typically constructed by taking the
    symmetric closure of a dependency relation" (Section 4.3).
    """
    label = name or f"sym({relation.name})"
    if isinstance(relation, EnumeratedRelation):
        pairs = set(relation.pair_set)
        pairs |= {(p, q) for q, p in relation.pair_set}
        return EnumeratedRelation(pairs, name=label)
    return _Symmetric(relation, label)


def restrict(relation: Relation, universe: Sequence[Operation]) -> EnumeratedRelation:
    """Enumerate ``relation`` over a finite universe (module-level alias)."""
    return relation.restrict(universe)


def is_symmetric(relation: Relation, universe: Sequence[Operation]) -> bool:
    """Check symmetry of ``relation`` over a finite universe."""
    return all(
        relation.related(p, q) == relation.related(q, p)
        for q in universe
        for p in universe
    )


#: The empty relation — no pairs related (every operation freely concurrent).
EMPTY_RELATION = EnumeratedRelation((), name="empty")


class _Total(Relation):
    name = "total"

    def related(self, q: Operation, p: Operation) -> bool:
        return True


#: The total relation — everything conflicts (serial execution).
TOTAL_RELATION = _Total()
