"""Suppression directive parsing and hygiene diagnostics."""

from __future__ import annotations

from repro.analysis import rule_codes, scan_suppressions

LIB = "src/repro/fixture.py"
TEST = "tests/fixture_test.py"


def codes(findings):
    return [f.code for f in findings]

KNOWN = rule_codes()


class TestParsing:
    def test_trailing_directive(self):
        supps, problems = scan_suppressions(
            "x = 1  # repro: allow[REP001]: wall-clock display\n", KNOWN
        )
        assert problems == []
        assert len(supps) == 1
        assert supps[0].codes == ("REP001",)
        assert supps[0].target_line == 1
        assert supps[0].justification == "wall-clock display"

    def test_standalone_targets_next_code_line(self):
        supps, problems = scan_suppressions(
            "# repro: allow[REP002]: compute-backend selector\n"
            "\n"
            "def f(n_workers=1):\n"
            "    pass\n",
            KNOWN,
        )
        assert problems == []
        assert supps[0].target_line == 3

    def test_multiple_codes(self):
        supps, _ = scan_suppressions(
            "x = 1  # repro: allow[REP001, REP004]: fixture\n", KNOWN
        )
        assert supps[0].codes == ("REP001", "REP004")
        assert supps[0].matches("REP004", 1)
        assert not supps[0].matches("REP003", 1)

    def test_directive_in_string_literal_is_ignored(self):
        supps, problems = scan_suppressions(
            's = "# repro: allow[REP001]: not a comment"\n', KNOWN
        )
        assert supps == [] and problems == []


class TestProblems:
    def test_missing_justification(self):
        _, problems = scan_suppressions(
            "x = 1  # repro: allow[REP001]\n", KNOWN
        )
        assert len(problems) == 1
        assert "justification" in problems[0][2]

    def test_unknown_code(self):
        _, problems = scan_suppressions(
            "x = 1  # repro: allow[REP999]: why\n", KNOWN
        )
        assert len(problems) == 1
        assert "REP999" in problems[0][2]

    def test_empty_codes(self):
        _, problems = scan_suppressions(
            "x = 1  # repro: allow[]: why\n", KNOWN
        )
        assert len(problems) == 1

    def test_malformed_marker(self):
        _, problems = scan_suppressions(
            "x = 1  # repro: allowlist REP001\n", KNOWN
        )
        assert len(problems) == 1
        assert "malformed" in problems[0][2]


class TestEngineIntegration:
    def test_malformed_directive_is_rep900(self, lint):
        findings = lint("x = 1  # repro: allow[REP001]\n")
        assert codes(findings) == ["REP900"]

    def test_unused_directive_is_rep901(self, lint):
        findings = lint("x = 1  # repro: allow[REP001]: nothing to silence\n")
        assert codes(findings) == ["REP901"]
        assert "silences nothing" in findings[0].message

    def test_used_directive_is_clean(self, lint):
        findings = lint(
            "import time\n"
            "t = time.time()  # repro: allow[REP001]: display only\n"
        )
        assert findings == []

    def test_syntax_error_is_rep902(self, lint):
        findings = lint("def f(:\n")
        assert codes(findings) == ["REP902"]
