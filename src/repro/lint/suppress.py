"""Inline suppression comments.

Two forms, both requiring explicit codes (there is deliberately no
"disable everything" spelling — suppressions are scoped waivers, not an
off switch):

- ``# repro-lint: disable=RPL003 -- why this is safe`` on the line a
  violation is reported at (for a multi-line statement, the line the
  report anchors to).  A comment standing alone on its own line also
  covers the *next* line, so long justifications need not push code
  past the line-length limit.  Several codes separate with commas.
- ``# repro-lint: disable-file=RPL001,RPL005 -- why`` anywhere in the
  file silences those codes for the whole file.

The trailing ``-- reason`` is optional syntax but mandatory policy: the
self-host test tree keeps every suppression justified (see
``docs/LINTING.md``).  Comments live outside the AST, so they are read
with :mod:`tokenize` and matched by (physical) line number.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize

__all__ = ["Suppressions"]

_PATTERN = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_,\s]+?)\s*(?:--\s*(?P<reason>.*))?$"
)


@dataclasses.dataclass
class Suppressions:
    """Per-file suppression state parsed from comments."""

    file_codes: frozenset[str] = frozenset()
    line_codes: dict[int, frozenset[str]] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "Suppressions":
        """Scan one file's comments; tolerant of tokenize failures.

        A file that cannot be tokenized (it will fail parsing anyway
        and be reported as RPL000) simply has no suppressions.
        """
        file_codes: set[str] = set()
        line_codes: dict[int, frozenset[str]] = {}
        if "repro-lint" not in source:
            return cls()
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _PATTERN.search(tok.string)
                if not match:
                    continue
                codes = frozenset(
                    code.strip().upper()
                    for code in match.group("codes").split(",")
                    if code.strip()
                )
                if not codes:
                    continue
                if match.group("scope") == "disable-file":
                    file_codes |= codes
                else:
                    line, col = tok.start
                    lines = [line]
                    if not tok.line[:col].strip():
                        lines.append(line + 1)  # standalone comment covers next line
                    for n in lines:
                        line_codes[n] = line_codes.get(n, frozenset()) | codes
        except (tokenize.TokenError, IndentationError, SyntaxError):
            pass
        return cls(file_codes=frozenset(file_codes), line_codes=line_codes)

    def is_suppressed(self, code: str, line: int) -> bool:
        code = code.upper()
        if code in self.file_codes:
            return True
        return code in self.line_codes.get(line, frozenset())
