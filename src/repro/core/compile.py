"""Conflict-table verification: every relation a type declares, checked
against its serial specification.

The hand-written tables in :mod:`repro.adts` are transcriptions of the
paper's figures; each module tabulates them by operation class
(:class:`~repro.core.conflict.CompiledRelation`) when it is imported, and
the tabulated relations are what the lock machines run.  This module is
the one verifier of those relations, over each type's declared finite
universe and derivation depths:

* a lock-conflict table that is not symmetric or not a dependency
  relation (Definition 3) is *unsound* (it voids the Theorem 11/16
  hybrid-atomicity guarantee, an error quoting the violating history),
  while a conflict pair whose removal still leaves a dependency relation
  is merely *non-minimal* (it forfeits Section 7 concurrency, a warning);
* a failure-to-commute table must equal the relation derived from the
  specification (Definitions 25/26), and that relation must itself be a
  dependency relation (Theorem 28);
* the declared dependency relation must equal the derived invalidated-by
  relation (Definitions 8/9, Theorem 10), and every alternative
  dependency relation must satisfy Definition 3.

:func:`verify_adt` runs all of it for one bundle; lint rule REP107 and
``repro audit`` both call it, on the relations the bundle locks with.

This module deliberately never imports :mod:`repro.adts`: the ADT layer
builds on core, not the other way round.  Callers hand in duck-typed
bundles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .commutativity import failure_to_commute
from .conflict import EnumeratedRelation, Relation
from .dependency import (
    check_dependency_relation,
    is_dependency_relation,
    is_minimal_dependency_relation,
)
from .invalidated_by import invalidated_by
from .operations import Operation
from .specs import SerialSpec

__all__ = [
    "DEFAULT_DOMAINS",
    "DERIVATION_DEPTHS",
    "DEFAULT_DEPTHS",
    "TableIssue",
    "depths_for",
    "default_universe",
    "verify_conflict_table",
    "verify_commutativity_table",
    "verify_dependencies",
    "verify_adt",
    "derived_commutativity",
]

#: Universe builders per type: positional args fed to ``adt.universe``.
#: These are the *declared* finite universes every derivation, audit, and
#: compiled table in the repository uses — keep CLI, lint and benchmarks
#: reading from here so they cannot drift apart.
DEFAULT_DOMAINS: Dict[str, Tuple[Tuple[Any, ...], ...]] = {
    "File": ((0, 1),),
    "FIFOQueue": ((1, 2),),
    "BoundedQueue": ((1, 2),),
    "Stack": ((1, 2),),
    "SemiQueue": ((1, 2),),
    "Account": ((2, 3), (50,)),
    "Counter": ((1, 2), (0, 1, 2)),
    "Set": ((1, 2),),
    "Directory": (("a",), (1, 2)),
}

#: Fallback domain for types without a declared entry.
_FALLBACK_DOMAIN: Tuple[Tuple[Any, ...], ...] = ((1, 2),)

#: Derivation depths per type as ``(max_h1, max_h2, mc_depth)``: the
#: extension types have larger universes, where depth 2 already separates
#: right from wrong tables and keeps the derivation fast; the paper types
#: use depth 3 (Account's Figure 7-1 needs it).
DERIVATION_DEPTHS: Dict[str, Tuple[int, int, int]] = {
    "Counter": (2, 2, 2),
    "Set": (2, 2, 2),
    "Directory": (2, 2, 2),
}

DEFAULT_DEPTHS: Tuple[int, int, int] = (3, 2, 3)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


def depths_for(name: str) -> Tuple[int, int, int]:
    """``(max_h1, max_h2, mc_depth)`` derivation depths for a type name."""
    return DERIVATION_DEPTHS.get(name, DEFAULT_DEPTHS)


def default_universe(adt: Any) -> List[Operation]:
    """The declared finite operation universe for an ADT bundle."""
    domains = DEFAULT_DOMAINS.get(adt.name, _FALLBACK_DOMAIN)
    return list(adt.universe(*domains))


@dataclass(frozen=True)
class TableIssue:
    """One verification finding about a hand-written relation table.

    ``severity`` is ``"error"`` for unsound tables (the Theorem 11/16
    precondition fails) and ``"warning"`` for non-minimal ones (sound,
    but forfeiting Section 7 concurrency).
    """

    table: str
    severity: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.table}: {self.message}"


def _symmetry_issue(
    label: str, relation: Relation, universe: Sequence[Operation]
) -> Optional[TableIssue]:
    for q in universe:
        for p in universe:
            if relation.related(q, p) != relation.related(p, q):
                return TableIssue(
                    label,
                    SEVERITY_ERROR,
                    f"not symmetric: related({q}, {p}) != related({p}, {q}) "
                    "— Theorems 11/16 require a symmetric relation",
                )
    return None


def verify_conflict_table(
    label: str,
    relation: Relation,
    spec: SerialSpec,
    universe: Sequence[Operation],
    max_h: int = 3,
    max_k: int = 3,
    check_minimal: bool = True,
    screen_h: int = 2,
    screen_k: int = 2,
) -> List[TableIssue]:
    """Verify a hand-written lock-conflict table against its spec.

    Checks, in order of severity:

    1. symmetry over the universe (error — Theorem 11/16 precondition);
    2. Definition 3 up to the bounded depths (error — a missing conflict
       pair admits a non-serializable interleaving, with the violating
       history reported);
    3. minimality (warning): a symmetric pair whose removal still leaves
       a dependency relation is extraneous — it costs Section 7
       concurrency without buying safety.  Candidates are screened at
       ``(screen_h, screen_k)`` and only confirmed at the full depths,
       so minimal tables (removals refute fast) stay cheap to verify.
    """
    issues: List[TableIssue] = []
    asymmetry = _symmetry_issue(label, relation, universe)
    if asymmetry is not None:
        issues.append(asymmetry)

    violation = check_dependency_relation(
        relation, spec, universe, max_h=max_h, max_k=max_k
    )
    if violation is not None:
        issues.append(
            TableIssue(
                label,
                SEVERITY_ERROR,
                "not a dependency relation (Definition 3): operation "
                f"{violation.p} is missing a conflict against the history "
                f"{[str(op) for op in violation.h]} — hybrid atomicity "
                "(Theorem 11/16) is void",
            )
        )
        # Minimality is meaningless for an unsound table.
        return issues

    if asymmetry is None and check_minimal:
        restricted = relation.restrict(universe)
        for q, p in _removable_pairs(
            restricted, spec, universe, max_h, max_k, screen_h, screen_k
        ):
            issues.append(
                TableIssue(
                    label,
                    SEVERITY_WARNING,
                    f"not minimal: dropping the conflict pair ({q}, {p}) "
                    "still leaves a dependency relation — the extra "
                    "conflict forfeits concurrency (Section 7) without "
                    "adding safety",
                )
            )
    return issues


def _removable_pairs(
    restricted: EnumeratedRelation,
    spec: SerialSpec,
    universe: Sequence[Operation],
    max_h: int,
    max_k: int,
    screen_h: int,
    screen_k: int,
) -> List[Tuple[Operation, Operation]]:
    """Symmetric pairs whose removal keeps Definition 3 at full depth."""
    pairs = restricted.pair_set
    seen: Set[FrozenSet[Tuple[Operation, Operation]]] = set()
    removable: List[Tuple[Operation, Operation]] = []
    for q, p in sorted(pairs, key=str):
        key = frozenset(((q, p), (p, q)))
        if key in seen:
            continue
        seen.add(key)
        trimmed = EnumeratedRelation(pairs - {(q, p), (p, q)})
        # Cheap screen first: for a needed pair the violating history is
        # almost always short, so the shallow check refutes removal fast.
        if not is_dependency_relation(
            trimmed, spec, universe, max_h=screen_h, max_k=screen_k
        ):
            continue
        if is_dependency_relation(trimmed, spec, universe, max_h=max_h, max_k=max_k):
            removable.append((q, p))
    return removable


def _difference_issue(
    label: str,
    what: str,
    derived: EnumeratedRelation,
    declared: EnumeratedRelation,
) -> Optional[TableIssue]:
    """The error for a declared relation that is not the derived one."""
    parts = []
    for side, pairs in (
        ("derived", derived.pair_set - declared.pair_set),
        ("declared", declared.pair_set - derived.pair_set),
    ):
        if pairs:
            q, p = sorted(pairs, key=str)[0]
            parts.append(f"{side} has {len(pairs)} extra pair(s), e.g. ({q}, {p})")
    if not parts:
        return None
    return TableIssue(
        label, SEVERITY_ERROR, f"disagrees with derived {what}: " + "; ".join(parts)
    )


def derived_commutativity(
    spec: SerialSpec, universe: Sequence[Operation], mc_depth: int = 3
) -> EnumeratedRelation:
    """The failure-to-commute relation derived from the specification."""
    return failure_to_commute(spec, universe, max_h=mc_depth)


def verify_commutativity_table(
    label: str,
    relation: Relation,
    spec: SerialSpec,
    universe: Sequence[Operation],
    mc_depth: int = 3,
) -> List[TableIssue]:
    """Verify a hand-written failure-to-commute table against its spec.

    The table must be symmetric (commuting is symmetric in ``p`` and
    ``q``) and agree *exactly* with the derived relation: a missing pair
    is unsound for a commutativity-locking protocol, an extra pair is a
    mis-transcription — either is an error, reported with a disagreeing
    pair from each side.  The derived relation must in turn be a
    dependency relation (Theorem 28), or locking with it would not be
    safe either.
    """
    issues: List[TableIssue] = []
    asymmetry = _symmetry_issue(label, relation, universe)
    if asymmetry is not None:
        issues.append(asymmetry)

    derived = derived_commutativity(spec, universe, mc_depth)
    violation = check_dependency_relation(
        derived, spec, universe, max_h=mc_depth, max_k=mc_depth
    )
    if violation is not None:
        issues.append(
            TableIssue(
                label,
                SEVERITY_ERROR,
                "derived failure-to-commute is not a dependency relation "
                f"(Theorem 28): {violation}",
            )
        )
    difference = _difference_issue(
        label, "failure-to-commute", derived, relation.restrict(universe)
    )
    if difference is not None:
        issues.append(difference)
    return issues


def verify_dependencies(
    adt: Any,
    universe: Sequence[Operation],
    max_h1: int = 3,
    max_h2: int = 2,
    max_k: int = 3,
    check_minimal: bool = False,
) -> List[TableIssue]:
    """Verify a bundle's declared dependency relations against its spec.

    ``adt.dependency`` is documented as the type's invalidated-by relation
    and must equal the bounded derivation (Definitions 8/9); each entry of
    ``adt.alternative_dependencies`` only has to satisfy Definition 3.
    ``check_minimal`` additionally requires that dropping any single pair
    of the declared dependency breaks Definition 3; invalidated-by "need
    not be a minimal dependency relation", so this is off unless asked for.
    """
    issues: List[TableIssue] = []
    label = f"{adt.name}.dependency"
    declared = adt.dependency.restrict(universe)
    difference = _difference_issue(
        label,
        "invalidated-by",
        invalidated_by(adt.spec, universe, max_h1=max_h1, max_h2=max_h2),
        declared,
    )
    if difference is not None:
        issues.append(difference)
    for key, alternative in sorted(adt.alternative_dependencies.items()):
        violation = check_dependency_relation(
            alternative, adt.spec, universe, max_h=max_h1, max_k=max_k
        )
        if violation is not None:
            issues.append(
                TableIssue(
                    f"{label}[{key!r}]",
                    SEVERITY_ERROR,
                    f"not a dependency relation (Definition 3): {violation}",
                )
            )
    if check_minimal and not is_minimal_dependency_relation(
        declared, adt.spec, universe, max_h1, max_k
    ):
        issues.append(
            TableIssue(
                label,
                SEVERITY_ERROR,
                "not a minimal dependency relation: it fails Definition 3, "
                "or still satisfies it with one pair removed",
            )
        )
    return issues


def verify_adt(
    adt: Any,
    tables: Optional[Mapping[str, Relation]] = None,
    nonminimal: Collection[str] = (),
    check_minimal_dependency: bool = False,
) -> List[TableIssue]:
    """Every check the repository makes of one bundle's relations.

    ``tables`` maps a table key to a relation the type can lock with (a
    module's ``COMPILED_TABLES``); a key containing ``COMMUTATIVITY`` is
    verified as a failure-to-commute table, any other as a lock-conflict
    table.  It defaults to the two relations the bundle carries.  Keys in
    ``nonminimal`` skip the conflict-table minimality warning.
    """
    if tables is None:
        tables = {
            "CONFLICT": adt.conflict,
            "COMMUTATIVITY_CONFLICT": adt.commutativity_conflict,
        }
    universe = default_universe(adt)
    max_h1, max_h2, mc_depth = depths_for(adt.name)
    issues: List[TableIssue] = []
    for key in sorted(tables):
        label = f"{adt.name}.{key}"
        if "COMMUTATIVITY" in key:
            issues.extend(
                verify_commutativity_table(
                    label, tables[key], adt.spec, universe, mc_depth=mc_depth
                )
            )
        else:
            issues.extend(
                verify_conflict_table(
                    label,
                    tables[key],
                    adt.spec,
                    universe,
                    max_h=max_h1,
                    max_k=mc_depth,
                    check_minimal=key not in nonminimal,
                )
            )
    issues.extend(
        verify_dependencies(
            adt,
            universe,
            max_h1=max_h1,
            max_h2=max_h2,
            max_k=mc_depth,
            check_minimal=check_minimal_dependency,
        )
    )
    return issues
