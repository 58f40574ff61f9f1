"""REP102 fixture: an enumerated literal that is asymmetric as written.

Parsed by the lint tests, never imported or executed.
"""

from repro.core.conflict import EnumeratedRelation, PredicateRelation

# Missing the mirrored ("Deq", "Enq") pair.
ASYMMETRIC = EnumeratedRelation({("Enq", "Deq")}, name="asymmetric")


def _predicate(p, q):
    return p.name == "Enq"


# A declared predicate table is not REP102's: REP107 re-derives the
# tables a module hands the machines, symmetry included.
FIXTURE_CONFLICT = PredicateRelation(_predicate, name="fixture")
