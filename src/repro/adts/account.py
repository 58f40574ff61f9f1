"""The Account type (paper, Section 4.3 Figure 4-5, Section 7.1 Figure 7-1,
and the Avalon/C++ appendix).

An Account provides::

    Credit = Operation(Dollar)                      # balance += amount
    Post   = Operation(Percent)                     # balance *= 1 + pct/100
    Debit  = Operation(Dollar) Signals(Overdraft)   # balance -= amount,
                                                    # or Overdraft unchanged

Amounts and percentages are non-negative; arithmetic uses
:class:`fractions.Fraction` so abstract states stay canonical and hashable.

The unique minimal dependency relation (Figure 4-5, = invalidated-by)::

    (row dep col)     Credit(n)  Post(n)  Debit(n),Ok  Debit(n),Ovd
    Credit(m), Ok
    Post(m), Ok
    Debit(m), Ok                          true
    Debit(m), Ovd     true       true

Its symmetric closure is exactly the appendix's lock table::

    locks.define(CREDIT_LOCK, OVERDRAFT_LOCK);
    locks.define(POST_LOCK,   OVERDRAFT_LOCK);
    locks.define(DEBIT_LOCK,  DEBIT_LOCK);

The relation *uses operation results*: Credit need not conflict with
successful debits, but must conflict with attempted overdrafts — a credit
cannot invalidate a successful debit but can invalidate an Overdraft
exception.  Failure-to-commute (Figure 7-1) additionally forces Post to
conflict with Credit and with both kinds of Debit, so commutativity-based
protocols permit strictly less concurrency on this type.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Hashable, Iterable, List, Sequence, Tuple

from ..core.conflict import CompiledRelation, PredicateRelation, symmetric_closure
from ..core.operations import Invocation, Operation
from ..core.specs import SerialSpec
from .base import ADT, register

__all__ = [
    "AccountSpec",
    "credit",
    "post",
    "debit_ok",
    "debit_overdraft",
    "OVERDRAFT",
    "ACCOUNT_DEPENDENCY",
    "ACCOUNT_CONFLICT",
    "ACCOUNT_COMMUTATIVITY_CONFLICT",
    "account_universe",
    "make_account_adt",
]

#: The exceptional Debit result (``Signals(Overdraft)``).
OVERDRAFT = "Overdraft"


def credit(amount) -> Operation:
    """The operation ``[Credit(amount), Ok]``."""
    return Operation(Invocation("Credit", (Fraction(amount),)), "Ok")


def post(percent) -> Operation:
    """The operation ``[Post(percent), Ok]`` (posts interest)."""
    return Operation(Invocation("Post", (Fraction(percent),)), "Ok")


def debit_ok(amount) -> Operation:
    """The operation ``[Debit(amount), Ok]`` (a successful debit)."""
    return Operation(Invocation("Debit", (Fraction(amount),)), "Ok")


def debit_overdraft(amount) -> Operation:
    """The operation ``[Debit(amount), Overdraft]`` (a refused debit)."""
    return Operation(Invocation("Debit", (Fraction(amount),)), OVERDRAFT)


class AccountSpec(SerialSpec):
    """Serial spec over exact rational balances.

    ``Debit(n)`` returns Ok and decrements when the balance covers the
    amount, and signals Overdraft leaving the balance unchanged otherwise —
    a *deterministic* choice based on the current state, so exactly one of
    the two results is legal in any given state.
    """

    name = "Account"

    def __init__(self, initial=0):
        self._initial = Fraction(initial)

    def initial_state(self) -> Hashable:
        return self._initial

    def outcomes(self, state: Hashable, invocation: Invocation) -> Iterable[Tuple[Any, Hashable]]:
        balance: Fraction = state
        if invocation.name == "Credit":
            (amount,) = invocation.args
            return [("Ok", balance + amount)]
        if invocation.name == "Post":
            (percent,) = invocation.args
            return [("Ok", balance * (1 + Fraction(percent) / 100))]
        if invocation.name == "Debit":
            (amount,) = invocation.args
            if balance >= amount:
                return [("Ok", balance - amount)]
            return [(OVERDRAFT, balance)]
        return []


def _is(operation: Operation, name: str, result: Any = None) -> bool:
    if operation.name != name:
        return False
    return result is None or operation.result == result


def _account_dep(q: Operation, p: Operation) -> bool:
    # Figure 4-5, row q depends on column p.
    if _is(q, "Debit", "Ok") and _is(p, "Debit", "Ok"):
        return True
    if _is(q, "Debit", OVERDRAFT) and (_is(p, "Credit") or _is(p, "Post")):
        return True
    return False


#: Figure 4-5: the unique minimal dependency relation for Account.
ACCOUNT_DEPENDENCY = PredicateRelation(_account_dep, name="Account dependency (Fig 4-5)")

#: Hybrid lock conflicts — the appendix's lock table.
ACCOUNT_CONFLICT = symmetric_closure(ACCOUNT_DEPENDENCY, name="Account conflicts (hybrid)")


def _account_mc(q: Operation, p: Operation) -> bool:
    # Figure 7-1: failure to commute (derived; symmetric by construction).
    names = (q.name, p.name)
    results = (q.result, p.result)
    # Post fails to commute with Credit and with both kinds of Debit
    # (multiplication does not commute with addition / threshold tests),
    # but commutes with Post.  It also keeps the Fig 4-5 conflicts.
    if "Post" in names:
        other = p if q.name == "Post" else q
        return other.name in ("Credit", "Debit")
    if _is(q, "Debit", "Ok") and _is(p, "Debit", "Ok"):
        return True
    if (_is(q, "Debit", OVERDRAFT) and _is(p, "Credit")) or (
        _is(p, "Debit", OVERDRAFT) and _is(q, "Credit")
    ):
        return True
    return False


#: Figure 7-1: failure-to-commute conflicts for Account — a strict
#: superset of the hybrid conflicts.
ACCOUNT_COMMUTATIVITY_CONFLICT = PredicateRelation(
    _account_mc, name="Account conflicts (commutativity, Fig 7-1)"
)


def account_universe(
    amounts: Sequence[Any] = (2, 3), percents: Sequence[Any] = (50,)
) -> List[Operation]:
    """Every Credit/Post/Debit operation over finite amount domains.

    The defaults are chosen so that every entry of Figures 4-5 and 7-1 has
    a short witness (e.g. balance 2 < 3 <= 2 * 1.5 exhibits Post
    invalidating an Overdraft); with other domains some pairs may need
    deeper search bounds.
    """
    ops: List[Operation] = []
    for amount in amounts:
        ops.append(credit(amount))
        ops.append(debit_ok(amount))
        ops.append(debit_overdraft(amount))
    for percent in percents:
        ops.append(post(percent))
    return ops


#: The declared universe plus ``Post(2)``: an amount is then seen below,
#: equal to and above a percent, and two percents are compared, so the
#: tabulation learns that none of those comparisons matters.
_TABULATED = account_universe(percents=(2, 50))

#: What the machines lock with: the hand-written tables above, tabulated
#: by operation class.  REP107 and ``repro audit`` verify these entries
#: against the serial specification.
COMPILED_TABLES = {
    "CONFLICT": CompiledRelation(ACCOUNT_CONFLICT, _TABULATED),
    "COMMUTATIVITY_CONFLICT": CompiledRelation(
        ACCOUNT_COMMUTATIVITY_CONFLICT, _TABULATED
    ),
}


def make_account_adt(initial=0) -> ADT:
    """Bundle the Account type."""
    return ADT(
        name="Account",
        spec=AccountSpec(initial),
        dependency=ACCOUNT_DEPENDENCY,
        conflict=COMPILED_TABLES["CONFLICT"],
        commutativity_conflict=COMPILED_TABLES["COMMUTATIVITY_CONFLICT"],
        is_read=lambda operation: False,  # every operation may update
        universe=account_universe,
    )


register("Account", make_account_adt)
