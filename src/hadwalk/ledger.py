"""The one record type every verification check returns."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Ledger"]


@dataclass
class Ledger:
    """What a check examined and what failed.

    ``failures`` holds ``(item, witness)`` pairs in the order they were met,
    so the first entry is the witness a report shows.  ``worst`` and ``tol``
    are set only by checks that compare against a tolerance.
    """

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    worst: float | None = None
    tol: float | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, item: str, witness, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failures.append((item, witness))
