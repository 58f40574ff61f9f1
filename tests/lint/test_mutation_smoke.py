"""Mutation smoke: seed one violation of every rule into a copy of the
real tree and require the analyzer to go red.

This is the CI gate's self-test: a linter that silently stopped firing
would still pass the clean-tree check, so each rule is proven live
against a mutated copy of the exact code it guards.
"""

import os
import shutil

import pytest

from repro.lint import Runner
from repro.lint.cli import main as lint_main

HERE = os.path.dirname(__file__)
SRC = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))

#: rule id -> (relative target file, seeded violation to append).
MUTATIONS = {
    "REP101": (
        os.path.join("obs", "bus.py"),
        "\n\ndef _mutant(tracer):\n"
        '    tracer.emit("not.a.kind")\n',
    ),
    "REP102": (
        os.path.join("adts", "counter.py"),
        "\n\n_MUTANT = EnumeratedRelation({('Inc', 'Dec')}, name='mutant')\n",
    ),
    "REP103": (
        os.path.join("obs", "snapshot.py"),
        "\n\ndef _mutant(machine):\n"
        "    return machine._intentions\n",
    ),
    "REP104": (
        os.path.join("core", "lock_machine.py"),
        "\n\ndef _mutant():\n"
        "    import random\n"
        "    return random.random()\n",
    ),
    "REP105": (
        os.path.join("core", "compaction.py"),
        "\n\ndef _mutant(run):\n"
        "    try:\n"
        "        run()\n"
        "    except Exception:\n"
        "        pass\n",
    ),
    "REP106": (
        os.path.join("sim", "network.py"),
        "\n\ndef _mutant():\n"
        "    import time\n"
        "    time.sleep(1)\n",
    ),
    # Declare the hybrid conflict table as the commutativity table too:
    # sound for locking, but it disagrees with the derived
    # failure-to-commute relation (Set's Insert/Remove pairs), which the
    # semantic re-derivation must refute.
    "REP107": (
        os.path.join("adts", "set.py"),
        "\n\nCOMPILED_TABLES = {\n"
        '    "CONFLICT": SET_CONFLICT,\n'
        '    "COMMUTATIVITY_CONFLICT": SET_CONFLICT,\n'
        "}\n",
    ),
}


@pytest.fixture()
def tree_copy(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(SRC, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target


@pytest.mark.parametrize("rule_id", sorted(MUTATIONS))
def test_each_rule_fires_on_a_mutated_tree(tree_copy, rule_id):
    relpath, payload = MUTATIONS[rule_id]
    victim = tree_copy / relpath
    with open(victim, "a", encoding="utf-8") as handle:
        handle.write(payload)
    result = Runner(select=[rule_id]).run([str(tree_copy)])
    assert not result.ok, f"{rule_id} did not fire on its mutation"
    assert any(f.rule == rule_id for f in result.findings)
    assert any(relpath in f.path for f in result.findings)


def test_rep107_quotes_the_history_a_deleted_pair_admits(tree_copy):
    # Delete the Read/Write entry from File's hand-written Figure 4-1: the
    # module still imports (the figure is still a class table), the table
    # the machines would lock with is unsound, and REP107 says why.
    victim = tree_copy / "adts" / "file.py"
    source = victim.read_text(encoding="utf-8")
    entry = "and q.result != p.args[0]"
    assert source.count(entry) == 1
    victim.write_text(source.replace(entry, "and False"), encoding="utf-8")
    result = Runner(select=["REP107"]).run([str(tree_copy)])
    messages = [f.message for f in result.findings if "file.py" in f.path]
    assert any(
        "File.CONFLICT: not a dependency relation (Definition 3)" in m
        and "against the history" in m
        for m in messages
    ), messages


def test_rep107_refutes_an_asymmetric_predicate_table(tree_copy):
    # REP102 reads enumerated literals only; a declared predicate table
    # that lost one direction is REP107's to refute.
    victim = tree_copy / "adts" / "counter.py"
    source = victim.read_text(encoding="utf-8")
    entry = "return _counter_dep(q, p) or _counter_dep(p, q)"
    assert source.count(entry) == 1
    victim.write_text(
        source.replace(entry, "return _counter_dep(q, p)"), encoding="utf-8"
    )
    result = Runner(select=["REP107"]).run([str(tree_copy)])
    messages = [f.message for f in result.findings if "counter.py" in f.path]
    assert any("not symmetric" in m for m in messages), messages


def test_fully_mutated_tree_exits_nonzero(tree_copy, capsys):
    for relpath, payload in MUTATIONS.values():
        with open(tree_copy / relpath, "a", encoding="utf-8") as handle:
            handle.write(payload)
    assert lint_main([str(tree_copy)]) == 1
    out = capsys.readouterr().out
    for rule_id in MUTATIONS:
        assert rule_id in out
