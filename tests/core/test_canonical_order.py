"""Canonical ordering of states: ``results_for`` and the trace codec.

``SerialSpec.results_for`` must rank candidate states deterministically —
the locking protocol picks the *first* legal result, so an unstable order
changes which result a transaction observes.  It used to sort states by
``repr``, which for set-valued states (e.g. :mod:`repro.adts.set`) lists
elements in hash-iteration order and therefore varies with
``PYTHONHASHSEED``.  States are now ranked by
:func:`repro.core.canon.canonical_key`; these tests pin the key's
properties and the cross-process stability of the result order.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import repro
from repro.core import Invocation
from repro.core.canon import canonical_key, canonical_order, representative
from repro.core.specs import SerialSpec

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestCanonicalKey:
    def test_iteration_order_independent_for_sets(self):
        assert canonical_key(frozenset("repro")) == canonical_key(
            frozenset(reversed("repro"))
        )
        assert canonical_key({3, 1, 2}) == canonical_key({2, 3, 1})

    def test_dict_insertion_order_independent(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_distinct_values_get_distinct_keys(self):
        values = [
            None,
            True,
            False,
            0,
            1,
            -1,
            "1",
            "",
            (),
            (1,),
            frozenset(),
            frozenset({1}),
            Fraction(1, 3),
            ("a", ("b",)),
            {"k": (1, 2)},
        ]
        keys = [canonical_key(value) for value in values]
        assert len(set(keys)) == len(keys)

    def test_same_type_ordering_is_value_ordering(self):
        assert canonical_key(3) < canonical_key(10)  # not lexicographic "10"<"3"
        assert canonical_key(-5) < canonical_key(0)
        assert canonical_key("apple") < canonical_key("banana")

    def test_nested_containers_recurse(self):
        a = frozenset({("x", frozenset({1, 2}))})
        b = frozenset({("x", frozenset({2, 1}))})
        assert canonical_key(a) == canonical_key(b)


class TestCanonicalOrder:
    def test_orders_by_canonical_key(self):
        states = frozenset(frozenset(word) for word in WORDS)
        assert canonical_order(states) == sorted(states, key=canonical_key)
        assert representative(states) == min(states, key=canonical_key)

    def test_a_singleton_is_never_keyed(self, monkeypatch):
        """Nothing to rank: the element comes back without its key — a
        string as long as the state — ever being built."""

        def refuse(value):
            raise AssertionError("canonical_key called for a one-state set")

        monkeypatch.setattr("repro.core.canon.canonical_key", refuse)
        state = tuple(range(1000))
        assert canonical_order(frozenset({state})) == [state]
        assert representative(frozenset({state})) is state
        assert canonical_order(frozenset()) == []


class PickSpec(SerialSpec):
    """Each state answers ``Pick`` with a distinct result, so the order
    of ``results_for`` exposes exactly how the states were ranked."""

    name = "Pick"

    def initial_state(self):
        return frozenset()

    def outcomes(self, state, invocation):
        if invocation.name == "Pick":
            return [("|".join(sorted(state)) or "-", state)]
        return []


WORDS = ["ab", "xyz", "q", "repro", "lock", "horizon"]

_SEED_SCRIPT = """
import sys

sys.path.insert(0, {src!r})

from repro.core import Invocation
from repro.core.specs import SerialSpec
from repro.obs.codec import encode_value


class PickSpec(SerialSpec):
    name = "Pick"

    def initial_state(self):
        return frozenset()

    def outcomes(self, state, invocation):
        if invocation.name == "Pick":
            return [("|".join(sorted(state)) or "-", state)]
        return []


states = frozenset(frozenset(word) for word in {words!r})
print(PickSpec().results_for(states, Invocation("Pick")))
print(encode_value(frozenset({words!r})))
""".format(src=SRC_DIR, words=WORDS)

#: A two-outcome specification driven through the shipped machine and
#: manager: ``Fork`` answers "Ok" and moves to *either* of two set-valued
#: successors, so every view after it holds several states — the case in
#: which ``results_for`` still has an order to keep and ``snapshot`` a
#: representative to choose.
_FORK_SCRIPT = """
import sys

sys.path.insert(0, {src!r})

import dataclasses

from repro.adts import get_adt
from repro.core import Invocation, Operation
from repro.core.conflict import EnumeratedRelation
from repro.core.specs import SerialSpec
from repro.runtime import TransactionManager


class ForkSpec(SerialSpec):
    name = "Fork"

    def initial_state(self):
        return frozenset()

    def outcomes(self, state, invocation):
        if invocation.name == "Fork":
            (left, right) = invocation.args
            return [("Ok", state | {{left}}), ("Ok", state | {{right}})]
        if invocation.name == "Pick":
            return [("|".join(sorted(state)) or "-", state)]
        return []


spec = ForkSpec()
states = spec.run([Operation(Invocation("Fork", pair), "Ok") for pair in {pairs!r}])
print(len(states), spec.results_for(states, Invocation("Pick")))

adt = dataclasses.replace(get_adt("Set"), name="Fork", spec=spec)
manager = TransactionManager()
obj = manager.create_object("f", adt, conflict=EnumeratedRelation())
txn = manager.begin()
for pair in {pairs!r}:
    manager.invoke(txn, "f", "Fork", *pair)
manager.commit(txn)
print(sorted(obj.snapshot()), len(obj.machine.committed_states()))
print(manager.invoke(manager.begin(), "f", "Pick"))
""".format(src=SRC_DIR, pairs=[("ab", "xyz"), ("q", "repro"), ("lock", "horizon")])


def _under_seed(script, seed):
    return subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONHASHSEED=seed),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestResultsForDeterminism:
    def test_order_follows_canonical_key(self):
        states = frozenset(frozenset(word) for word in WORDS)
        expected = [
            "|".join(sorted(state))
            for state in sorted(states, key=canonical_key)
        ]
        assert PickSpec().results_for(states, Invocation("Pick")) == expected

    def test_stable_across_hash_seeds(self):
        """The regression proper: identical result order (and identical
        encoded trace payloads) under different ``PYTHONHASHSEED``s."""
        outputs = [_under_seed(_SEED_SCRIPT, seed) for seed in ("1", "2")]
        assert outputs[0] == outputs[1]

    def test_multi_state_views_keep_order_and_representative(self):
        """Views that hold several states (a two-outcome operation) still
        get a ranked ``results_for``, the same first result from the
        machine, and the same ``snapshot`` under three hash seeds."""
        outputs = {_under_seed(_FORK_SCRIPT, seed) for seed in ("1", "2", "3")}
        assert len(outputs) == 1
        order, shown, chosen = outputs.pop().splitlines()
        assert order.startswith("8 ['ab|horizon|q', ")  # 2 x 2 x 2 states, ranked
        assert shown == "['ab', 'horizon', 'q'] 8"  # the canonically least of 8
        assert chosen == "ab|horizon|q"  # ... which also answers first
