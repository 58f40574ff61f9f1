"""Engine-level behaviour: parsing, schema extraction, suppression scope."""

import os
import textwrap

import pytest

from repro.lint import Project, Runner, all_rules
from repro.obs.events import EVENT_KINDS, EVENT_PAYLOADS


class TestProjectExtraction:
    def test_event_kinds_match_runtime_registry(self):
        # The static extraction and the imported module must agree — the
        # linter reads the file without importing it.
        assert Project().event_kinds == EVENT_KINDS

    def test_event_payloads_match_runtime_schema(self):
        extracted = Project().event_payloads
        assert set(extracted) == set(EVENT_PAYLOADS)
        for kind, keys in EVENT_PAYLOADS.items():
            assert extracted[kind] == keys

    def test_checker_consumption_is_declared(self):
        # Statically, every payload key the oracle reads is in the schema:
        # the REP101 cross-reference the clean-tree run relies on.
        project = Project()
        payloads = project.event_payloads
        for kind, consumed in project.checker_consumes.items():
            assert consumed <= payloads[kind], kind


class TestRunner:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ValueError):
            Runner(select=["REP999"])

    def test_all_rules_registered(self):
        assert [cls.id for cls in all_rules()] == [
            "REP101", "REP102", "REP103", "REP104",
            "REP105", "REP106", "REP107",
        ]
        for cls in all_rules():
            assert cls.rationale  # every rule states its paper tie-in

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = Runner().run([str(bad)])
        assert not result.ok
        assert result.findings == []
        assert len(result.errors) == 1

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            Runner().run([os.path.join("no", "such", "path")])


class TestSuppressionScope:
    def test_noqa_on_first_line_covers_multiline_statement(self, tmp_path):
        source = textwrap.dedent(
            """
            def run(tracer):
                tracer.emit(  # repro: noqa[REP101]
                    "txn.begin",
                    mistyped_key=1,
                )
            """
        )
        path = tmp_path / "multiline.py"
        path.write_text(source)
        result = Runner(select=["REP101"]).run([str(path)])
        assert result.ok
        assert result.suppressed == 1

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        path = tmp_path / "wrong_rule.py"
        path.write_text(
            'def run(tracer):\n'
            '    tracer.emit("txn.bogus")  # repro: noqa[REP105]\n'
        )
        result = Runner(select=["REP101"]).run([str(path)])
        assert not result.ok
        assert result.suppressed == 0

    def test_blanket_noqa_suppresses_everything(self, tmp_path):
        path = tmp_path / "blanket.py"
        path.write_text(
            'def run(tracer):\n'
            '    tracer.emit("txn.bogus")  # repro: noqa\n'
        )
        result = Runner().run([str(path)])
        assert result.ok
        assert result.suppressed == 1
