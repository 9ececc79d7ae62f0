"""The one record type every verification check returns."""

from __future__ import annotations

__all__ = ["Ledger"]


class Ledger:
    """What a check examined and what failed.

    ``failures`` holds ``(item, witness)`` pairs in the order they were met,
    so the first entry is the witness a report shows.  ``worst`` and ``tol``
    are set only by checks that compare against a tolerance.
    """

    __slots__ = ("name", "checked", "failures", "worst", "tol")

    def __init__(self, name: str, worst: float | None = None, tol: float | None = None):
        self.name = name
        self.checked = 0
        self.failures = []
        self.worst = worst
        self.tol = tol

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, item: str, witness, ok: bool) -> None:
        self.checked += 1
        if not ok:
            self.failures.append((item, witness))
