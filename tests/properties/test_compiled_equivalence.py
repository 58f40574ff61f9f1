"""Tabulated relations are observationally equal to the figures they tabulate.

Every ``adts`` module turns its hand-written tables into
:class:`~repro.core.conflict.CompiledRelation` class tables when it is
imported, and those are what the machines lock with.  The table is built
over a small declared universe and then answers *any* operation, so the
step these tests certify is the generalisation:

* exhaustively — on a universe strictly larger than the declared one
  (four values per domain, three Directory keys, four Account percents)
  every declared table answers every pair from the table itself (no
  unseen class or pattern) exactly as the hand predicate does;
* by sampling — the same on hypothesis-drawn value domains;
* behaviourally — a :class:`~repro.core.LockMachine` on the tabulated
  relation bisimulates one on the hand-written relation, and the
  benchmark's contended plan commits and aborts identically on both while
  every hand-written predicate is patched to raise.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.adts as adts
from repro.adts import declared_tables, get_adt, registry
from repro.core import (
    CompiledRelation,
    Invocation,
    LockConflict,
    LockMachine,
    Operation,
    WouldBlock,
)
from repro.core.conflict import PredicateRelation
from repro.runtime import TransactionManager

#: The hand-written figure behind every declared table.  Kept explicit so a
#: table that silently stopped being tabulated is a failure here.
HAND_TABLES = {
    "Account": {
        "CONFLICT": adts.ACCOUNT_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.ACCOUNT_COMMUTATIVITY_CONFLICT,
    },
    "BoundedQueue": {
        "CONFLICT": adts.BOUNDED_QUEUE_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.BOUNDED_QUEUE_COMMUTATIVITY_CONFLICT,
    },
    "Counter": {
        "CONFLICT": adts.COUNTER_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.COUNTER_COMMUTATIVITY_CONFLICT,
    },
    "Directory": {
        "CONFLICT": adts.DIRECTORY_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.DIRECTORY_COMMUTATIVITY_CONFLICT,
    },
    "FIFOQueue": {
        "CONFLICT_FIG42": adts.QUEUE_CONFLICT_FIG42,
        "CONFLICT_FIG43": adts.QUEUE_CONFLICT_FIG43,
        "COMMUTATIVITY_CONFLICT": adts.QUEUE_COMMUTATIVITY_CONFLICT,
    },
    "File": {
        "CONFLICT": adts.FILE_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.FILE_COMMUTATIVITY_CONFLICT,
    },
    "SemiQueue": {
        "CONFLICT": adts.SEMIQUEUE_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.SEMIQUEUE_COMMUTATIVITY_CONFLICT,
    },
    "Set": {
        "CONFLICT": adts.SET_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.SET_COMMUTATIVITY_CONFLICT,
    },
    "Stack": {
        "CONFLICT": adts.STACK_CONFLICT,
        "COMMUTATIVITY_CONFLICT": adts.STACK_COMMUTATIVITY_CONFLICT,
    },
}

COMPILED_ADTS = sorted(HAND_TABLES)

#: Strictly larger than every declared domain; Account amounts and
#: percents overlap so an amount is seen on both sides of a percent.
LARGER_DOMAINS = {
    "File": ((0, 1, 2, 3),),
    "FIFOQueue": ((1, 2, 3, 4),),
    "BoundedQueue": ((1, 2, 3, 4),),
    "Stack": ((1, 2, 3, 4),),
    "SemiQueue": ((1, 2, 3, 4),),
    "Account": ((1, 2, 3, 60), (1, 2, 50, 70)),
    "Counter": ((1, 2, 3, 4), (0, 1, 2, 3, 4, 5)),
    "Set": ((1, 2, 3, 4),),
    "Directory": (("a", "b", "c"), (1, 2, 3, 4)),
}


def assert_table_is_the_figure(adt_name, universe):
    tables = declared_tables(adt_name)
    for key, hand in HAND_TABLES[adt_name].items():
        compiled = tables[key]
        for q in universe:
            for p in universe:
                assert compiled.tabulated(q, p) == hand.related(q, p), (
                    f"{adt_name}.{key} on ({q}, {p}): table says "
                    f"{compiled.tabulated(q, p)}"
                )


def test_every_table_declaring_type_is_compiled():
    # The nine table modules of the paper's catalogue, 19 tables; Product
    # types compose relations structurally and stay predicate-based.
    assert registry() == COMPILED_ADTS
    assert sum(len(declared_tables(name)) for name in COMPILED_ADTS) == 19
    for name in COMPILED_ADTS:
        tables = declared_tables(name)
        assert set(tables) == set(HAND_TABLES[name])
        assert all(type(t) is CompiledRelation for t in tables.values())
        bundle = get_adt(name)
        assert bundle.conflict in tables.values()
        assert bundle.commutativity_conflict in tables.values()
        assert type(bundle.conflict) is type(bundle.commutativity_conflict)


@pytest.mark.parametrize("adt_name", COMPILED_ADTS)
def test_exhaustive_agreement_on_the_compiled_universe(adt_name):
    adt = get_adt(adt_name)
    for compiled in declared_tables(adt_name).values():
        assert compiled.universe
        assert_table_is_the_figure(adt_name, compiled.universe)
    larger = adt.universe(*LARGER_DOMAINS[adt_name])
    assert set(adt.conflict.universe) < set(larger)
    assert_table_is_the_figure(adt_name, larger)


values = st.lists(st.integers(0, 10**6), min_size=2, max_size=3, unique=True)
keys = st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True)


@settings(max_examples=25, deadline=None)
@given(adt_name=st.sampled_from(COMPILED_ADTS), first=values, second=values, keys=keys)
def test_agreement_on_drawn_operations(adt_name, first, second, keys):
    adt = get_adt(adt_name)
    if adt_name in ("Account", "Counter"):
        universe = adt.universe(first, second)
    elif adt_name == "Directory":
        universe = adt.universe(keys, first)
    else:
        universe = adt.universe(first)
    assert_table_is_the_figure(adt_name, universe)


@pytest.mark.parametrize("adt_name", COMPILED_ADTS)
def test_off_universe_probes_defer_to_the_reference(adt_name):
    # "Defer" is historical: the table answers these itself, and must give
    # the answer the hand-written reference gives.
    tables = declared_tables(adt_name)
    for key, reference in HAND_TABLES[adt_name].items():
        compiled = tables[key]
        universe = compiled.universe
        # An operation the declared universe never held: same name as a
        # universe operation, argument far outside the value domain.
        alien = next(
            Operation(Invocation(op.name, (10**6,) * len(op.args)), op.result)
            for op in universe
            if op.args
        )
        assert alien not in universe
        for p in list(universe[:3]) + [alien]:
            assert compiled.related(alien, p) == reference.related(alien, p)
            assert compiled.related(p, alien) == reference.related(p, alien)


@pytest.mark.parametrize("adt_name", COMPILED_ADTS)
def test_compiled_relation_keeps_the_reference_name(adt_name):
    # Trace events and table artifacts key on relation names; tabulating
    # must not rename the relation out from under them.
    tables = declared_tables(adt_name)
    for key, reference in HAND_TABLES[adt_name].items():
        assert tables[key].name == reference.name


# --- LockMachine bisimulation: tabulated vs hand-written conflict -----

TRANSACTIONS = ["P", "Q", "R", "S"]

#: Workloads mix invocations inside the declared universe with ones far
#: outside it, so both drive real locking decisions.
INVOCATIONS = {
    "FIFOQueue": [
        Invocation("Enq", (1,)),
        Invocation("Enq", (77,)),
        Invocation("Deq"),
    ],
    "Account": [
        Invocation("Credit", (2,)),
        Invocation("Credit", (900,)),
        Invocation("Post", (50,)),
        Invocation("Debit", (2,)),
    ],
    "Set": [
        Invocation("Insert", (1,)),
        Invocation("Insert", (500,)),
        Invocation("Remove", (1,)),
        Invocation("Member", (500,)),
    ],
}

command = st.tuples(
    st.sampled_from(["invoke", "commit", "abort"]),
    st.sampled_from(TRANSACTIONS),
    st.integers(min_value=0, max_value=3),
)


def assert_bisimilar(compiled, reference):
    assert compiled.committed_transactions == reference.committed_transactions
    assert compiled.aborted_transactions == reference.aborted_transactions
    assert compiled.active_transactions() == reference.active_transactions()
    for transaction in compiled.active_transactions():
        assert compiled.intentions(transaction) == reference.intentions(
            transaction
        )
        assert compiled.view_states(transaction) == reference.view_states(
            transaction
        )


@settings(max_examples=40, deadline=None)
@given(
    adt_name=st.sampled_from(sorted(INVOCATIONS)),
    commands=st.lists(command, max_size=16),
)
def test_compiled_machine_bisimulates_reference_machine(adt_name, commands):
    adt = get_adt(adt_name)
    compiled = LockMachine(adt.spec, adt.conflict)
    hand = HAND_TABLES[adt_name]
    reference = LockMachine(
        adt.spec, hand.get("CONFLICT") or hand["CONFLICT_FIG42"]
    )
    invocations = INVOCATIONS[adt_name]
    completed = set()
    clock = 0
    for kind, transaction, index in commands:
        if transaction in completed:
            continue
        if kind == "invoke":
            invocation = invocations[index % len(invocations)]
            outcomes = []
            for machine in (compiled, reference):
                try:
                    outcomes.append(
                        ("ok", machine.execute(transaction, invocation))
                    )
                except (LockConflict, WouldBlock) as refusal:
                    outcomes.append(("refused", type(refusal).__name__))
            assert outcomes[0] == outcomes[1]
        elif kind == "commit":
            clock += 1
            compiled.commit(transaction, clock)
            reference.commit(transaction, clock)
            completed.add(transaction)
        else:
            compiled.abort(transaction)
            reference.abort(transaction)
            completed.add(transaction)
        assert_bisimilar(compiled, reference)
    assert compiled.history() == reference.history()


# --- The benchmark's contended plan, with the predicates switched off --

CONTENDED_OBJECTS = [
    (f"{adt[:3].lower()}-{index}", adt)
    for adt in ("Counter", "FIFOQueue", "Account")
    for index in range(2)
]


def contended_operation(rng, client, serial):
    """One operation of ``benchmarks/e2e``'s ``mem-contended`` mix."""
    name, adt = rng.choice(CONTENDED_OBJECTS)
    roll = rng.random()
    if adt == "Counter":
        return (name, "Inc", (rng.randint(1, 3),)) if roll < 0.9 else (name, "Read", ())
    if adt == "FIFOQueue":
        if roll < 0.85:
            return (name, "Enq", (client * 10_000_000 + serial,))
        return (name, "Deq", ())
    if roll < 0.7:
        return (name, "Credit", (rng.randint(1, 100),))
    return (name, "Debit", (1,))


def run_contended_plan(hand_written):
    """Eight closed-loop clients, four operations a transaction, advanced
    one operation each in turn; a refusal aborts and the client moves on.
    Returns everything a client could observe."""
    manager = TransactionManager()
    for name, adt_name in CONTENDED_OBJECTS:
        conflict = HAND_TABLES[adt_name].get("CONFLICT", adts.QUEUE_CONFLICT_FIG42)
        manager.create_object(
            name, get_adt(adt_name), conflict=conflict if hand_written else None
        )
    rngs = [random.Random(f"contended/{client}") for client in range(8)]
    open_txns = [None] * 8
    steps = [0] * 8
    observed = []
    for serial in range(400):
        for client, rng in enumerate(rngs):
            if open_txns[client] is None:
                open_txns[client] = manager.begin()
                steps[client] = 0
            if steps[client] == 4:
                manager.commit(open_txns[client])
                observed.append((client, "commit"))
                open_txns[client] = None
                continue
            obj, operation, args = contended_operation(rng, client, serial)
            try:
                result = manager.invoke(open_txns[client], obj, operation, *args)
            except (LockConflict, WouldBlock) as refusal:
                manager.abort(open_txns[client])
                observed.append((client, type(refusal).__name__))
                open_txns[client] = None
            else:
                observed.append((client, obj, operation, args, result))
                steps[client] += 1
    return observed


def test_contended_plan_never_calls_a_hand_written_predicate(monkeypatch):
    expected = run_contended_plan(hand_written=True)
    assert sum(1 for row in expected if row[1] == "LockConflict") > 20
    assert sum(1 for row in expected if row[1] == "commit") > 100

    def refuse(self, q, p):
        raise AssertionError(f"predicate {self.name!r} called on the lock path")

    monkeypatch.setattr(PredicateRelation, "related", refuse)
    assert run_contended_plan(hand_written=False) == expected
