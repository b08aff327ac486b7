"""The diagnostic core shared by both analyzers.

Every finding — from the RDO static verifier or the determinism
sanitizer — is a :class:`Diagnostic`: a stable rule id, a severity, a
position (file, line, column), a message, and a fix hint.  Keeping one
currency for findings means the publish-time hook, the CLI, and the
runtime interpreter all speak the same language, and a rejected RDO
surfaces as "which rule, where, how to fix" instead of a bare
exception string.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings gate (publish rejection, non-zero CLI exit);
    ``WARNING`` findings are reported but never block.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding, pinned to a source position."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """``path:line:col: RULE severity: message (hint)``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity}: {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Stable presentation order: by file, position, then rule id."""
    return sorted(diagnostics, key=lambda d: (d.path, d.line, d.col, d.rule))


def errors_only(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def format_diagnostics(diagnostics: list[Diagnostic]) -> str:
    return "\n".join(d.format() for d in sort_diagnostics(diagnostics))
