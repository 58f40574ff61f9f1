"""The one table verifier: every registered type passes; broken bundles fail."""

import pytest

from repro.adts import ADT, declared_tables, get_adt, registry
from repro.adts import make_queue_adt
from repro.core import EMPTY_RELATION, PredicateRelation
from repro.core.compile import (
    DEFAULT_DOMAINS,
    default_universe,
    verify_adt,
    verify_dependencies,
)


@pytest.mark.parametrize("name", sorted(DEFAULT_DOMAINS))
def test_every_registered_type_passes_audit(name):
    issues = verify_adt(get_adt(name), declared_tables(name))
    assert issues == [], "\n".join(str(issue) for issue in issues)


def test_registry_covers_all_domains():
    assert set(registry()) == set(DEFAULT_DOMAINS)


def test_minimality_check_for_paper_types():
    adt = get_adt("File")
    assert verify_adt(adt, check_minimal_dependency=True) == []
    # Invalidated-by "need not be a minimal dependency relation": the
    # bounded queue's is not, and only the opt-in check says so.
    bounded = get_adt("BoundedQueue")
    assert verify_adt(bounded) == []
    issues = verify_adt(bounded, check_minimal_dependency=True)
    assert [i.table for i in issues] == ["BoundedQueue.dependency"]
    assert "minimal" in issues[0].message


class TestBrokenBundlesFail:
    def _broken(self, **overrides):
        base = make_queue_adt()
        fields = dict(
            name=base.name,
            spec=base.spec,
            dependency=base.dependency,
            conflict=base.conflict,
            commutativity_conflict=base.commutativity_conflict,
            is_read=base.is_read,
            universe=base.universe,
            alternative_dependencies={},
        )
        fields.update(overrides)
        return ADT(**fields)

    def test_asymmetric_conflict_caught(self):
        broken = self._broken(conflict=make_queue_adt().dependency)
        issues = verify_adt(broken)
        assert any(
            i.severity == "error"
            and i.table == "FIFOQueue.CONFLICT"
            and "not symmetric" in i.message
            for i in issues
        )

    def test_wrong_dependency_caught(self):
        broken = self._broken(dependency=EMPTY_RELATION)
        failing = [i for i in verify_adt(broken) if i.severity == "error"]
        assert [i.table for i in failing] == ["FIFOQueue.dependency"]
        assert "invalidated-by" in failing[0].message

    def test_wrong_alternative_caught(self):
        broken = self._broken(alternative_dependencies={"none": EMPTY_RELATION})
        failing = [i for i in verify_adt(broken) if i.severity == "error"]
        assert [i.table for i in failing] == ["FIFOQueue.dependency['none']"]
        assert "Definition 3" in failing[0].message
        assert "h*p*k illegal" in failing[0].message  # the violating history

    def test_wrong_commutativity_caught(self):
        too_small = PredicateRelation(
            lambda q, p: q.name == "Deq" and p.name == "Deq"
        )
        broken = self._broken(commutativity_conflict=too_small)
        assert any(
            i.severity == "error"
            and i.table == "FIFOQueue.COMMUTATIVITY_CONFLICT"
            and "failure-to-commute" in i.message
            for i in verify_adt(broken)
        )

    def test_diff_detail_names_a_pair(self):
        broken = self._broken(dependency=EMPTY_RELATION)
        (issue,) = verify_dependencies(broken, default_universe(broken))
        assert "derived has 4 extra pair(s), e.g. ([Deq(), 1], [Deq(), 1])" in (
            issue.message
        )

    def test_render_mentions_failures(self):
        broken = self._broken(dependency=EMPTY_RELATION)
        text = "\n".join(str(issue) for issue in verify_adt(broken))
        assert "[error] FIFOQueue.dependency: disagrees with derived" in text
