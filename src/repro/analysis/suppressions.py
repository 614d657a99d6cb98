"""Inline suppressions: ``# repro: allow[CODE]: justification``.

A finding an author *means* to keep is silenced at the line, in the
code, with a reason — never in a side file where the context is lost::

    started = time.perf_counter()  # repro: allow[REP001]: wall-clock display only

    # repro: allow[REP002]: compute-backend selector (bit-identical)
    def lfsr_bits(config, n, backend="reference"):

Two placements are recognized: a trailing comment suppresses findings on
its own line, and a standalone comment line suppresses findings on the
next non-comment, non-blank line (for statements too long to share a
line with a justification).  Several codes may share one directive
(``allow[REP001,REP004]``).

The justification is *mandatory*: a directive without one (or naming a
code that does not exist) is itself a finding (``REP900``), and a
directive that suppresses nothing is dead weight and reported as
``REP901`` — suppressions cannot rot silently.

Comments are found with :mod:`tokenize`, not line regexes, so directive
syntax inside string literals is never misread as a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: Directive syntax inside a comment. The comment must start with the
#: ``repro:`` marker; everything after ``]:`` is the justification.
_DIRECTIVE = re.compile(
    r"^#\s*repro:\s*allow\[(?P<codes>[^\]]*)\]\s*(?::\s*(?P<why>.*))?$"
)
_MARKER = re.compile(r"^#\s*repro:")

#: Engine diagnostic codes (defined here to avoid an import cycle with
#: the engine; the registry re-exports them).
MALFORMED_SUPPRESSION = "REP900"
UNUSED_SUPPRESSION = "REP901"
SYNTAX_ERROR = "REP902"

ENGINE_CODES = {
    MALFORMED_SUPPRESSION: "malformed suppression directive",
    UNUSED_SUPPRESSION: "suppression that suppresses nothing",
    SYNTAX_ERROR: "file does not parse",
}


@dataclass
class Suppression:
    """One parsed ``allow`` directive."""

    line: int  # line the comment itself sits on (1-based)
    target_line: int  # line whose findings it silences
    codes: tuple[str, ...]
    justification: str
    used: bool = field(default=False, compare=False)

    def matches(self, code: str, line: int) -> bool:
        return line == self.target_line and code in self.codes


def scan_suppressions(
    source: str, known_codes
) -> tuple[list[Suppression], list[tuple[int, int, str]]]:
    """Parse all directives in ``source``.

    Returns ``(suppressions, problems)`` where each problem is a
    ``(line, col, message)`` triple the engine reports as ``REP900``.
    Directives are recognized only in real comment tokens.
    """
    known = set(known_codes) | set(ENGINE_CODES)
    suppressions: list[Suppression] = []
    problems: list[tuple[int, int, str]] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine reports unparseable files separately (REP902);
        # there are no trustworthy comments to scan.
        return [], []

    code_lines = _lines_with_code(tokens)
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string
        if not _MARKER.match(text):
            continue
        line, col = tok.start
        match = _DIRECTIVE.match(text)
        if not match:
            problems.append(
                (line, col,
                 "malformed suppression: expected "
                 "'# repro: allow[CODE,...]: justification'")
            )
            continue
        codes = tuple(
            c.strip() for c in match.group("codes").split(",") if c.strip()
        )
        why = (match.group("why") or "").strip()
        if not codes:
            problems.append(
                (line, col, "suppression names no rule codes: allow[...] is empty")
            )
            continue
        unknown = sorted(set(codes) - known)
        if unknown:
            problems.append(
                (line, col,
                 f"suppression names unknown rule code(s) {unknown}; "
                 f"known codes: {sorted(known)}")
            )
            continue
        if not why:
            problems.append(
                (line, col,
                 "suppression lacks a justification: write "
                 "'# repro: allow[CODE]: <why this is intentionally kept>'")
            )
            continue
        standalone = line not in code_lines
        target = _next_code_line(line, code_lines) if standalone else line
        suppressions.append(
            Suppression(line=line, target_line=target, codes=codes,
                        justification=why)
        )
    return suppressions, problems


def _lines_with_code(tokens) -> set[int]:
    """Lines carrying at least one non-trivial (code) token."""
    skip = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
    }
    lines: set[int] = set()
    for tok in tokens:
        if tok.type in skip:
            continue
        for ln in range(tok.start[0], tok.end[0] + 1):
            lines.add(ln)
    return lines


def _next_code_line(after: int, code_lines: set[int]) -> int:
    """The first code line after a standalone directive (0 if none)."""
    later = [ln for ln in code_lines if ln > after]
    return min(later) if later else 0
