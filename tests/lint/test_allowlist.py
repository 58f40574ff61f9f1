"""The engine-level rule scoping: allowlist extent is pinned exactly.

REP104/REP106 are scoped via :data:`repro.lint.RULE_SCOPES` — engine
configuration, not per-line ``noqa``.  These tests pin both directions
of the boundary with fixtures: the sanctioned real-I/O modules of the
serving tier are exempt, while its pure modules (framing, sessions)
stay under the full discipline.  They also pin the *shape* of the
configuration so a blanket per-package disable cannot sneak in.
"""

import os

from repro.lint import RULE_SCOPES, Runner, allowlisted, in_scope

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def lint(relpath, select=None):
    return Runner(select=select).run([os.path.join(FIXTURES, relpath)])


def rule_ids(result):
    return sorted({finding.rule for finding in result.findings})


class TestServerAllowlist:
    def test_real_io_edge_is_exempt(self):
        # fixtures/server/server.py matches the /server/server.py
        # allowlist fragment: wall clocks and time.sleep are sanctioned.
        result = lint(
            os.path.join("server", "server.py"), select=["REP104", "REP106"]
        )
        assert result.ok
        assert result.findings == []

    def test_pure_wire_module_stays_checked(self):
        # fixtures/server/protocol.py is inside /server/ scope but NOT
        # allowlisted: both rules must still fire.
        result = lint(
            os.path.join("server", "protocol.py"), select=["REP104", "REP106"]
        )
        assert rule_ids(result) == ["REP104", "REP106"]
        messages = "\n".join(finding.message for finding in result.findings)
        assert "time.time" in messages
        assert "time.sleep" in messages

    def test_scope_predicates_agree_with_runner(self):
        edge = "src/repro/server/server.py"
        pure = "src/repro/server/protocol.py"
        outside = "src/repro/obs/codec.py"
        for rule in ("REP104", "REP106"):
            assert allowlisted(rule, edge)
            assert not in_scope(rule, edge)
            assert in_scope(rule, pure)
            assert not allowlisted(rule, pure)
            assert not in_scope(rule, outside)

    def test_unscoped_rules_see_everything(self):
        # Rules without a RuleScope entry are never path-filtered.
        assert in_scope("REP101", "src/repro/server/server.py")
        assert not allowlisted("REP101", "src/repro/server/server.py")


class TestAllowlistShape:
    def test_allowlist_names_modules_not_directories(self):
        # A directory fragment would exempt arbitrary future code; every
        # entry must name a single module file.
        for rule, scope in RULE_SCOPES.items():
            for fragment in scope.allowlist:
                assert fragment.endswith(".py"), (
                    f"{rule} allowlists {fragment!r}: allowlist entries "
                    "must name modules, not directories"
                )

    def test_session_and_protocol_are_not_exempt(self):
        # The pure serving-tier modules must never creep onto the
        # allowlist — this is the no-blanket-disabling guarantee.
        for rule in ("REP104", "REP106"):
            assert not allowlisted(rule, "src/repro/server/protocol.py")
            assert not allowlisted(rule, "src/repro/server/session.py")
            assert in_scope(rule, "src/repro/server/session.py")

    def test_shard_engine_is_not_exempt(self):
        # The engine is pure — it is handed its log and sink already
        # open — so it is checked like protocol.py and session.py, while
        # the process transport beside it (pipes, fsyncs) is exempt.
        for rule in ("REP104", "REP106"):
            assert not allowlisted(rule, "src/repro/server/engine.py")
            assert in_scope(rule, "src/repro/server/engine.py")
            assert allowlisted(rule, "src/repro/server/procpool.py")

    def test_scoped_rules_cover_the_simulated_layers(self):
        for rule in ("REP104", "REP106"):
            for path in (
                "src/repro/core/machine.py",
                "src/repro/sim/engine.py",
                "src/repro/sim/network.py",
            ):
                assert in_scope(rule, path), f"{rule} must cover {path}"
