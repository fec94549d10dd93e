"""Finding records produced by the determinism lint pass.

A :class:`Finding` is one rule violation at one source location. Findings
are value objects with a total order (path, line, column, rule id) so
both reporters — text and JSON — emit them in the same deterministic
sequence regardless of scan order. The linter that checks
byte-determinism (§1's reproducibility goal) must itself be
byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import codec


@dataclass(frozen=True, order=True)
class Finding(codec.Codable):
    """One rule violation at one source location.

    ``path`` is the posix-style path the file was scanned under (relative
    paths stay relative, so output is stable across machines). ``snippet``
    is the stripped source line, shown under the finding in both
    reports. ``to_dict`` is the ``--json`` reporter's schema.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
