"""Unit tests for the table verifier (repro.core.compile) and the class
table it verifies (repro.core.conflict.CompiledRelation).

The property suite (tests/properties/test_compiled_equivalence.py) covers
the tabulated relations shipped by the factories; these tests pin the
pieces themselves — verification verdicts and the tabulation step.
"""

import pytest

from repro.adts import get_adt
from repro.adts.file import FILE_COMMUTATIVITY_CONFLICT, FILE_CONFLICT
from repro.core import CompiledRelation, Invocation, Operation
from repro.core.compile import (
    default_universe,
    depths_for,
    derived_commutativity,
    verify_commutativity_table,
    verify_conflict_table,
)
from repro.core.conflict import (
    EMPTY_RELATION,
    TOTAL_RELATION,
    PredicateRelation,
)


@pytest.fixture()
def file_adt():
    return get_adt("File")


@pytest.fixture()
def file_universe(file_adt):
    return default_universe(file_adt)


class TestVerifyConflictTable:
    def test_shipped_table_is_sound_and_minimal(self, file_adt, file_universe):
        issues = verify_conflict_table(
            "File.CONFLICT", file_adt.conflict, file_adt.spec, file_universe
        )
        assert issues == []

    def test_empty_relation_is_unsound(self, file_adt, file_universe):
        issues = verify_conflict_table(
            "File.CONFLICT", EMPTY_RELATION, file_adt.spec, file_universe
        )
        assert any(i.severity == "error" for i in issues)
        assert any("Definition 3" in i.message for i in issues)

    def test_asymmetric_table_is_an_error(self, file_adt, file_universe):
        lopsided = PredicateRelation(
            lambda q, p: q.name == "Read" and p.name == "Write",
            name="lopsided",
        )
        issues = verify_conflict_table(
            "File.CONFLICT", lopsided, file_adt.spec, file_universe
        )
        assert any("not symmetric" in i.message for i in issues)
        assert all(i.severity == "error" for i in issues)

    def test_total_relation_is_sound_but_not_minimal(
        self, file_adt, file_universe
    ):
        issues = verify_conflict_table(
            "File.CONFLICT", TOTAL_RELATION, file_adt.spec, file_universe
        )
        assert issues  # extra pairs are reported...
        assert all(i.severity == "warning" for i in issues)  # ...as warnings
        assert all("not minimal" in i.message for i in issues)

    def test_minimality_check_can_be_suppressed(self, file_adt, file_universe):
        issues = verify_conflict_table(
            "File.CONFLICT",
            TOTAL_RELATION,
            file_adt.spec,
            file_universe,
            check_minimal=False,
        )
        assert issues == []


class TestVerifyCommutativityTable:
    def test_shipped_table_matches_derivation(self, file_adt, file_universe):
        issues = verify_commutativity_table(
            "File.COMMUTATIVITY_CONFLICT",
            FILE_COMMUTATIVITY_CONFLICT,
            file_adt.spec,
            file_universe,
        )
        assert issues == []

    def test_wrong_table_reports_the_disagreement(self):
        # The REP107 mutation scenario: declaring the hybrid conflict
        # table as the commutativity table. Set's Insert/Remove pairs
        # commute by return value, so the tables genuinely differ.
        adt = get_adt("Set")
        universe = default_universe(adt)
        _max_h1, _max_h2, mc_depth = depths_for(adt.name)
        issues = verify_commutativity_table(
            "Set.COMMUTATIVITY_CONFLICT",
            adt.conflict,
            adt.spec,
            universe,
            mc_depth=mc_depth,
        )
        assert issues
        assert all(i.severity == "error" for i in issues)
        assert any("failure-to-commute" in i.message for i in issues)

    def test_derived_relation_verifies_cleanly(self, file_adt, file_universe):
        derived = derived_commutativity(file_adt.spec, file_universe)
        assert (
            verify_commutativity_table(
                "File.derived", derived, file_adt.spec, file_universe
            )
            == []
        )


class TestCompile:
    def test_compile_relation_is_a_drop_in(self, file_universe):
        compiled = CompiledRelation(FILE_CONFLICT, file_universe)
        assert compiled.name == FILE_CONFLICT.name
        assert compiled.universe == tuple(file_universe)
        for q in file_universe:
            for p in file_universe:
                assert compiled.related(q, p) == FILE_CONFLICT.related(q, p)
        assert CompiledRelation(FILE_CONFLICT, file_universe, name="x").name == "x"

    def test_compiling_a_compiled_relation_changes_nothing(self, file_universe):
        once = CompiledRelation(FILE_CONFLICT, file_universe)
        twice = CompiledRelation(once, file_universe)
        for q in file_universe:
            for p in file_universe:
                assert twice.tabulated(q, p) == once.tabulated(q, p)

    def test_off_universe_queries_are_answered_by_the_table(self, file_universe):
        compiled = CompiledRelation(FILE_CONFLICT, file_universe)
        alien = Operation(Invocation("Write", (123,)), "Ok")
        assert alien not in compiled.universe
        for p in file_universe:
            assert compiled.tabulated(alien, p) == FILE_CONFLICT.related(alien, p)
            assert compiled.tabulated(p, alien) == FILE_CONFLICT.related(p, alien)

    def test_unknown_name_and_unseen_pattern_answer_true(self, file_universe):
        compiled = CompiledRelation(FILE_CONFLICT, file_universe)
        write = Operation(Invocation("Write", (1,)), "Ok")
        # A name, and a symbolic result, the universe never showed.
        for alien in (
            Operation(Invocation("Truncate"), "Ok"),
            Operation(Invocation("Write", (1,)), "Denied"),
        ):
            assert compiled.tabulated(alien, write) is None
            assert compiled.related(alien, write) is True
            assert compiled.related(write, alien) is True
        # A universe of one value shows Read/Write only with equal values
        # (unrelated); an unequal pair is an unseen pattern, not "unrelated".
        narrow = CompiledRelation(FILE_CONFLICT, get_adt("File").universe((0,)))
        read = Operation(Invocation("Read"), 0)
        assert narrow.related(read, Operation(Invocation("Write", (0,)), "Ok")) is False
        assert narrow.tabulated(read, write) is None
        assert narrow.related(read, write) is True

    def test_value_dependent_predicate_is_refused(self, file_universe):
        only_three = PredicateRelation(
            lambda q, p: q.name == p.name == "Write" and q.args == p.args == (3,),
            name="only-three",
        )
        values = get_adt("File").universe((1, 3))
        with pytest.raises(ValueError, match="not a function of operation class"):
            CompiledRelation(only_three, values)

    def test_unhashable_arguments_are_answered(self, file_universe):
        compiled = CompiledRelation(FILE_CONFLICT, file_universe)
        write = Operation(Invocation("Write", ([1, 2],)), "Ok")
        same = Operation(Invocation("Read"), [1, 2])
        other = Operation(Invocation("Read"), [3])
        assert compiled.related(same, write) is False
        assert compiled.related(other, write) is True
        assert compiled.related(write, other) is True

    def test_a_result_that_looks_symbolic_is_still_a_value(self, file_universe):
        # Read returns values in the declared universe, so Read -> "Ok" is a
        # file holding the string "Ok", not a new result class.
        compiled = CompiledRelation(FILE_CONFLICT, file_universe)
        read = Operation(Invocation("Read"), "Ok")
        assert compiled.related(read, Operation(Invocation("Write", ("Ok",)), "Ok")) is False
        assert compiled.related(read, Operation(Invocation("Write", ("No",)), "Ok")) is True
        assert compiled.related(read, Operation(Invocation("Read"), "No")) is False

    def test_values_with_no_order_are_compared_for_equality(self):
        # A str key against an int key is "unequal" under either order, and
        # Directory only asks whether keys are equal: no conflict.  Counter's
        # Read depends on Dec by v >= n, so there the order is the question
        # and an unordered pair gets the conservative answer.
        directory = get_adt("Directory").conflict
        bind = Operation(Invocation("Bind", ("a", 1)), "Ok")
        assert directory.tabulated(Operation(Invocation("Bind", (7, 1)), "Ok"), bind) is False
        assert directory.tabulated(Operation(Invocation("Bind", ("a", 2)), "Ok"), bind) is True
        counter = get_adt("Counter").conflict
        read = Operation(Invocation("Read"), "many")
        dec = Operation(Invocation("Dec", (1,)), "Ok")
        assert counter.tabulated(read, dec) is None
        assert counter.related(read, dec) is True
