"""Each lint rule catches its seeded fixture violation (and nothing else)."""

import os

from repro.lint import Runner

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint(relpath, select=None):
    return Runner(select=select).run([os.path.join(FIXTURES, relpath)])


def rule_ids(result):
    return sorted({finding.rule for finding in result.findings})


class TestSeededViolations:
    def test_rep101_trace_event_discipline(self):
        result = lint("bad_trace_events.py")
        assert rule_ids(result) == ["REP101"]
        messages = "\n".join(f.message for f in result.findings)
        assert "txn.bogus" in messages          # unregistered kind
        assert "nonsense_key" in messages       # undeclared payload key
        assert "string literal" in messages     # computed kind
        assert "**" in messages                 # splat hides keys
        assert len(result.findings) == 4

    def test_rep102_relation_symmetry(self):
        result = lint(os.path.join("adts", "bad_symmetry.py"))
        assert rule_ids(result) == ["REP102"]
        messages = "\n".join(f.message for f in result.findings)
        assert "Enq" in messages                # the unmirrored pair
        assert "FIXTURE_CONFLICT" not in messages  # REP107's to check
        assert len(result.findings) == 1

    def test_rep103_state_encapsulation(self):
        result = lint("bad_encapsulation.py")
        assert rule_ids(result) == ["REP103"]
        messages = "\n".join(f.message for f in result.findings)
        assert "_machines" in messages          # aliasing return
        assert "_intentions" in messages        # foreign mutation
        assert "_committed" in messages         # foreign read
        assert len(result.findings) == 3

    def test_rep104_determinism(self):
        result = lint(os.path.join("core", "bad_determinism.py"))
        assert rule_ids(result) == ["REP104"]
        messages = "\n".join(f.message for f in result.findings)
        assert "random.random" in messages
        assert "time.time" in messages
        # random.Random() with no seed is flagged; the seeded call is not.
        assert len(result.findings) == 3

    def test_rep105_exception_safety(self):
        result = lint("bad_exceptions.py")
        assert rule_ids(result) == ["REP105"]
        messages = "\n".join(f.message for f in result.findings)
        assert "acquire" in messages
        assert "bare" in messages
        assert "open" in messages
        assert len(result.findings) == 4

    def test_rep106_blocking_calls(self):
        result = lint(os.path.join("core", "bad_blocking.py"))
        assert rule_ids(result) == ["REP106"]
        assert "time.sleep" in result.findings[0].message
        assert len(result.findings) == 1


class TestScopeAndSuppression:
    def test_clean_fixture_is_clean(self):
        result = lint("clean.py")
        assert result.ok
        assert result.findings == []

    def test_noqa_suppresses_and_is_counted(self):
        result = lint(os.path.join("core", "noqa_suppressed.py"))
        assert result.ok
        assert result.findings == []
        assert result.suppressed == 1

    def test_path_scoped_rules_ignore_unscoped_copies(self, tmp_path):
        # The same determinism sins outside core/recovery/sim
        # are not in REP104's scope (analysis and CLI code may read clocks).
        source = open(
            os.path.join(FIXTURES, "core", "bad_determinism.py"),
            encoding="utf-8",
        ).read()
        unscoped = tmp_path / "elsewhere" / "tooling.py"
        unscoped.parent.mkdir()
        unscoped.write_text(source)
        result = Runner(select=["REP104"]).run([str(unscoped)])
        assert result.ok

    def test_select_limits_rules(self):
        result = lint("bad_exceptions.py", select=["REP104"])
        assert result.ok  # REP105 findings exist but were not selected
