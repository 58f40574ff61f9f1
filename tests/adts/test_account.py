"""Account: Figures 4-5 and 7-1, the appendix lock table, result-aware locks."""

import pytest

from repro.adts import (
    ACCOUNT_COMMUTATIVITY_CONFLICT,
    ACCOUNT_CONFLICT,
    ACCOUNT_DEPENDENCY,
    AccountSpec,
    credit,
    debit_ok,
    debit_overdraft,
    get_adt,
    post,
)
from repro.analysis import Ordering, compare_relations
from repro.core import (
    CompiledRelation,
    Invocation,
    LockConflict,
    LockMachine,
    PredicateRelation,
    failure_to_commute,
    invalidated_by,
    is_dependency_relation,
    is_minimal_dependency_relation,
    is_symmetric,
)


class TestFigure45:
    def test_derived_equals_paper(self, account_adt, account_ops):
        derived = invalidated_by(account_adt.spec, account_ops)
        assert derived.pair_set == ACCOUNT_DEPENDENCY.restrict(account_ops).pair_set

    def test_entries(self):
        # Successful debits depend on successful debits.
        assert ACCOUNT_DEPENDENCY.related(debit_ok(2), debit_ok(3))
        # Overdrafts depend on credits and posts.
        assert ACCOUNT_DEPENDENCY.related(debit_overdraft(2), credit(3))
        assert ACCOUNT_DEPENDENCY.related(debit_overdraft(2), post(50))
        # Credits and posts depend on nothing.
        assert not any(
            ACCOUNT_DEPENDENCY.related(credit(2), p)
            for p in [credit(3), post(50), debit_ok(3), debit_overdraft(3)]
        )
        assert not any(
            ACCOUNT_DEPENDENCY.related(post(50), p)
            for p in [credit(3), post(50), debit_ok(3), debit_overdraft(3)]
        )
        # Result-awareness: successful debits do NOT depend on credits.
        assert not ACCOUNT_DEPENDENCY.related(debit_ok(2), credit(3))
        # Overdrafts do not depend on successful debits.
        assert not ACCOUNT_DEPENDENCY.related(debit_overdraft(2), debit_ok(3))

    def test_is_dependency_and_minimal(self, account_adt, account_ops):
        enumerated = ACCOUNT_DEPENDENCY.restrict(account_ops)
        assert is_dependency_relation(enumerated, account_adt.spec, account_ops)
        assert is_minimal_dependency_relation(
            enumerated, account_adt.spec, account_ops
        )

    def test_closure_matches_appendix_lock_table(self):
        # locks.define(CREDIT_LOCK, OVERDRAFT_LOCK)
        assert ACCOUNT_CONFLICT.related(credit(2), debit_overdraft(3))
        # locks.define(POST_LOCK, OVERDRAFT_LOCK)
        assert ACCOUNT_CONFLICT.related(post(50), debit_overdraft(3))
        # locks.define(DEBIT_LOCK, DEBIT_LOCK)
        assert ACCOUNT_CONFLICT.related(debit_ok(2), debit_ok(3))
        # ... and nothing else conflicts.
        assert not ACCOUNT_CONFLICT.related(credit(2), post(50))
        assert not ACCOUNT_CONFLICT.related(credit(2), debit_ok(3))
        assert not ACCOUNT_CONFLICT.related(post(50), debit_ok(3))
        assert not ACCOUNT_CONFLICT.related(credit(2), credit(3))
        assert not ACCOUNT_CONFLICT.related(
            debit_overdraft(2), debit_overdraft(3)
        )


#: The appendix's ``lock_tab``: an operation's lock mode is its name and
#: symbolic result, and three ``locks.define(a, b)`` lines say which modes
#: conflict.
APPENDIX_MODES = {
    ("Credit", "Ok"): "CREDIT",
    ("Post", "Ok"): "POST",
    ("Debit", "Ok"): "DEBIT",
    ("Debit", "Overdraft"): "OVERDRAFT",
}
APPENDIX_DEFINES = {
    frozenset({"CREDIT", "OVERDRAFT"}),
    frozenset({"POST", "OVERDRAFT"}),
    frozenset({"DEBIT"}),
}


def mode_matrix(relation, universe):
    """``relation`` over ``universe`` grouped by lock mode: the answers
    seen in each (row mode, column mode) cell."""
    cells = {}
    for q in universe:
        for p in universe:
            cell = (APPENDIX_MODES[q.name, q.result], APPENDIX_MODES[p.name, p.result])
            cells.setdefault(cell, set()).add(relation.related(q, p))
    return cells


def defines(cells):
    """The ``locks.define`` lines a mode matrix amounts to."""
    return {frozenset(cell) for cell, answers in cells.items() if answers == {True}}


class TestAppendixLockTable:
    """The class table the machines lock with *is* the appendix's mode
    table: no second ``lock_tab`` exists to keep in step with it."""

    def test_shipped_relation_renders_the_appendix_matrix(self, account_ops):
        relation = get_adt("Account").conflict
        assert isinstance(relation, CompiledRelation)
        cells = mode_matrix(relation, account_ops)
        modes = sorted(APPENDIX_MODES.values())
        assert sorted(cells) == [(a, b) for a in modes for b in modes]
        # A cell is one answer: conflicts are a function of the two modes.
        assert all(len(answers) == 1 for answers in cells.values())
        assert defines(cells) == APPENDIX_DEFINES

    @pytest.mark.parametrize(
        "flipped",
        [
            (a, b)
            for a in sorted(APPENDIX_MODES.values())
            for b in sorted(APPENDIX_MODES.values())
            if a <= b
        ],
        ids="-".join,
    )
    def test_any_flipped_cell_is_caught(self, account_ops, flipped):
        shipped = get_adt("Account").conflict

        def mutant(q, p):
            modes = {APPENDIX_MODES[q.name, q.result], APPENDIX_MODES[p.name, p.result]}
            return shipped.related(q, p) != (modes == set(flipped))

        cells = mode_matrix(PredicateRelation(mutant), account_ops)
        assert defines(cells) != APPENDIX_DEFINES


class TestFigure71:
    def test_derived_equals_paper(self, account_adt, account_ops):
        derived = failure_to_commute(account_adt.spec, account_ops, max_h=3)
        expected = ACCOUNT_COMMUTATIVITY_CONFLICT.restrict(account_ops)
        assert derived.pair_set == expected.pair_set

    def test_post_conflicts_with_credit_and_debit(self):
        assert ACCOUNT_COMMUTATIVITY_CONFLICT.related(post(50), credit(2))
        assert ACCOUNT_COMMUTATIVITY_CONFLICT.related(post(50), debit_ok(2))
        assert ACCOUNT_COMMUTATIVITY_CONFLICT.related(post(50), debit_overdraft(2))
        assert not ACCOUNT_COMMUTATIVITY_CONFLICT.related(post(50), post(25))

    def test_strictly_more_restrictive_than_hybrid(self, account_ops):
        report = compare_relations(
            ACCOUNT_CONFLICT, ACCOUNT_COMMUTATIVITY_CONFLICT, account_ops
        )
        assert report.ordering is Ordering.SUBSET

    def test_symmetric(self, account_ops):
        assert is_symmetric(ACCOUNT_COMMUTATIVITY_CONFLICT, account_ops)


class TestResultAwareLocking:
    """Credit need not wait for successful debits — only for overdrafts."""

    def test_credit_concurrent_with_successful_debit(self, account_adt):
        machine = LockMachine(account_adt.spec, ACCOUNT_CONFLICT, obj="A")
        machine.execute("Init", Invocation("Credit", (100,)))
        machine.commit("Init", 1)
        assert machine.execute("P", Invocation("Debit", (30,))) == "Ok"
        machine.execute("Q", Invocation("Credit", (5,)))  # no conflict

    def test_credit_blocks_on_overdraft(self, account_adt):
        machine = LockMachine(account_adt.spec, ACCOUNT_CONFLICT, obj="A")
        assert machine.execute("P", Invocation("Debit", (30,))) == "Overdraft"
        with pytest.raises(LockConflict):
            machine.execute("Q", Invocation("Credit", (5,)))

    def test_post_concurrent_with_credit_under_hybrid_only(self, account_adt):
        hybrid = LockMachine(account_adt.spec, ACCOUNT_CONFLICT, obj="A")
        hybrid.execute("P", Invocation("Credit", (10,)))
        hybrid.execute("Q", Invocation("Post", (50,)))  # allowed

        baseline = LockMachine(
            account_adt.spec, ACCOUNT_COMMUTATIVITY_CONFLICT, obj="A"
        )
        baseline.execute("P", Invocation("Credit", (10,)))
        with pytest.raises(LockConflict):
            baseline.execute("Q", Invocation("Post", (50,)))

    def test_concurrent_debits_conflict(self, account_adt):
        machine = LockMachine(account_adt.spec, ACCOUNT_CONFLICT, obj="A")
        machine.execute("Init", Invocation("Credit", (100,)))
        machine.commit("Init", 1)
        machine.execute("P", Invocation("Debit", (10,)))
        with pytest.raises(LockConflict):
            machine.execute("Q", Invocation("Debit", (10,)))
