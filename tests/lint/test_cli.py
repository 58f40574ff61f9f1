"""CLI surface: exit codes, JSON output, the clean-tree gate."""

import json
import os

from repro.cli import main as repro_main
from repro.lint import Runner
from repro.lint.cli import main as lint_main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
SRC = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir, "src", "repro"))


class TestExitCodes:
    def test_clean_path_exits_zero(self, capsys):
        assert lint_main([os.path.join(FIXTURES, "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert lint_main([os.path.join(FIXTURES, "bad_exceptions.py")]) == 1
        out = capsys.readouterr().out
        assert "REP105" in out

    def test_unknown_rule_exits_two(self, capsys):
        code = lint_main(
            ["--select", "REP999", os.path.join(FIXTURES, "clean.py")]
        )
        assert code == 2

    def test_missing_path_exits_two(self, capsys):
        assert lint_main([os.path.join(FIXTURES, "does_not_exist.py")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "REP101", "REP102", "REP103", "REP104",
            "REP105", "REP106", "REP107",
        ):
            assert rule_id in out


class TestRuleFilters:
    BAD = os.path.join(FIXTURES, "bad_exceptions.py")

    def test_select_narrows_to_one_rule(self, capsys):
        assert lint_main(["--select", "REP105", self.BAD]) == 1
        assert "REP105" in capsys.readouterr().out

    def test_select_other_rule_is_clean(self, capsys):
        assert lint_main(["--select", "REP101", self.BAD]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore_suppresses_the_finding_rule(self, capsys):
        assert lint_main(["--ignore", "REP105", self.BAD]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore_other_rule_keeps_findings(self, capsys):
        assert lint_main(["--ignore", "REP101", self.BAD]) == 1
        assert "REP105" in capsys.readouterr().out

    def test_select_then_ignore_composes(self, capsys):
        code = lint_main(
            ["--select", "REP105", "--ignore", "REP105", self.BAD]
        )
        assert code == 0

    def test_unknown_ignore_exits_two(self, capsys):
        code = lint_main(
            ["--ignore", "REP999", os.path.join(FIXTURES, "clean.py")]
        )
        assert code == 2
        assert "REP999" in capsys.readouterr().err

    def test_runner_rejects_unknown_ignore(self):
        import pytest

        with pytest.raises(ValueError):
            Runner(ignore=["REP000"])


class TestJsonFormat:
    def test_json_report_round_trips(self, capsys):
        code = lint_main(
            ["--format", "json", os.path.join(FIXTURES, "bad_trace_events.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files"] == 1
        assert all(f["rule"] == "REP101" for f in payload["findings"])

    def test_statistics_flag(self, capsys):
        code = lint_main(
            ["--statistics", os.path.join(FIXTURES, "bad_trace_events.py")]
        )
        assert code == 1
        assert "REP101" in capsys.readouterr().out


class TestReproSubcommand:
    def test_repro_lint_subcommand(self, capsys):
        assert repro_main(["lint", os.path.join(FIXTURES, "clean.py")]) == 0
        assert repro_main(["lint", os.path.join(FIXTURES, "bad_exceptions.py")]) == 1


class TestCleanTree:
    def test_source_tree_is_clean(self):
        # The acceptance gate: the analyzer finds nothing left to fix in
        # the shipped package.
        result = Runner().run([SRC])
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert not result.errors
        assert result.files > 80

    def test_source_tree_via_cli(self, capsys):
        assert lint_main([SRC]) == 0
