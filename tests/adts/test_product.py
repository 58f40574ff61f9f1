"""Product types: componentwise specs, lifted relations, field locking."""

import pytest

from repro.adts import make_account_adt, make_counter_adt, make_file_adt
from repro.adts.product import (
    ProductSpec,
    lift_relation,
    make_product_adt,
    qualify,
)
from repro.adts import FileSpec
from repro.core import (
    Invocation,
    LockConflict,
    LockMachine,
    Operation,
    invalidated_by,
    is_dependency_relation,
    is_hybrid_atomic,
)


def two_files():
    return ProductSpec({"a": FileSpec(initial=0), "b": FileSpec(initial=0)})


def pop(field, name, *args, result="Ok"):
    return Operation(Invocation(f"{field}.{name}", args), result)


class TestProductSpec:
    def test_initial_state_is_tuple(self):
        assert two_files().initial_state() == (0, 0)

    def test_fields_independent(self):
        spec = two_files()
        assert spec.is_legal(
            (pop("a", "Write", 1), pop("b", "Read", result=0), pop("a", "Read", result=1))
        )

    def test_unknown_field_illegal(self):
        spec = two_files()
        assert not spec.is_legal((pop("c", "Write", 1),))
        assert not spec.is_legal((Operation(Invocation("Write", (1,)), "Ok"),))

    def test_field_name_validation(self):
        with pytest.raises(ValueError):
            ProductSpec({})
        with pytest.raises(ValueError):
            ProductSpec({"a.b": FileSpec()})

    def test_qualify(self):
        invocation = qualify("a", Invocation("Write", (1,)))
        assert invocation.name == "a.Write"
        assert invocation.args == (1,)


class TestLiftedRelations:
    def test_derived_equals_lift(self):
        # The headline theory: derive invalidated-by for the product from
        # scratch and compare with the componentwise lift.
        file_adt = make_file_adt()
        product = make_product_adt({"a": file_adt, "b": make_file_adt()})
        universe = [
            pop("a", "Write", 0),
            pop("a", "Write", 1),
            pop("a", "Read", result=0),
            pop("a", "Read", result=1),
            pop("b", "Write", 0),
            pop("b", "Read", result=0),
        ]
        derived = invalidated_by(product.spec, universe, max_h1=2, max_h2=2)
        expected = product.dependency.restrict(universe)
        assert derived.pair_set == expected.pair_set

    def test_cross_field_never_related(self):
        product = make_product_adt({"a": make_file_adt(), "b": make_file_adt()})
        assert not product.dependency.related(
            pop("a", "Read", result=0), pop("b", "Write", 1)
        )

    def test_lift_is_dependency_relation(self):
        product = make_product_adt(
            {"cash": make_account_adt(), "visits": make_counter_adt()}
        )
        universe = product.universe()
        assert is_dependency_relation(
            product.dependency, product.spec, universe, max_h=2, max_k=2
        )

    def test_is_read_lifts(self):
        product = make_product_adt(
            {"cash": make_account_adt(), "visits": make_counter_adt()}
        )
        assert product.is_read(pop("visits", "Read", result=0))
        assert not product.is_read(pop("visits", "Inc", 1))
        assert not product.is_read(pop("nope", "Read", result=0))


class TestFieldLevelLocking:
    def test_different_fields_concurrent(self):
        product = make_product_adt(
            {"cash": make_account_adt(), "visits": make_counter_adt()}
        )
        machine = LockMachine(product.spec, product.conflict)
        machine.execute("P", Invocation("cash.Debit", (1,)))  # Overdraft lock
        # Q freely works on the other field despite P's exclusive-ish lock.
        machine.execute("Q", Invocation("visits.Inc", (1,)))
        machine.commit("Q", 1)
        machine.abort("P")

    def test_same_field_conflicts_apply(self):
        product = make_product_adt(
            {"cash": make_account_adt(), "visits": make_counter_adt()}
        )
        machine = LockMachine(product.spec, product.conflict)
        machine.execute("P", Invocation("cash.Debit", (1,)))  # Overdraft
        with pytest.raises(LockConflict):
            machine.execute("Q", Invocation("cash.Credit", (1,)))

    def test_runtime_end_to_end(self):
        from repro.obs import HistorySink, TraceBus
        from repro.runtime import TransactionManager

        product = make_product_adt(
            {"cash": make_account_adt(), "visits": make_counter_adt()},
            name="CustomerRecord",
        )
        bus = TraceBus()
        recorded = bus.subscribe(HistorySink())
        manager = TransactionManager(tracer=bus)
        manager.create_object("cust", product)
        manager.run_transaction(
            lambda ctx: (
                ctx.invoke("cust", "cash.Credit", 100),
                ctx.invoke("cust", "visits.Inc", 1),
            )
        )
        manager.run_transaction(lambda ctx: ctx.invoke("cust", "cash.Debit", 60))
        assert manager.object("cust").snapshot() == (40, 1)
        assert is_hybrid_atomic(recorded.history(), manager.specs())
