"""Shared pass/fail/skipped reporting for all check suites.

Checks are appended in a deterministic order by every producer; a report
fails iff any single check fails.  Skipped checks (out-of-truncation
identities) are first-class and never count as passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


# a tuple: a suite builds one per identity, at half a frozen dataclass's cost
class CheckItem(NamedTuple):
    check_id: str
    status: str
    witnesses: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "witnesses": list(self.witnesses),
        }


@dataclass
class Report:
    title: str
    checks: list[CheckItem] = field(default_factory=list)

    def add(self, check_id: str, status: str, witnesses: tuple[str, ...] = ()) -> None:
        self.checks.append(CheckItem(check_id, status, witnesses))

    def ok(self, check_id: str) -> None:
        self.add(check_id, PASS)

    def fail(self, check_id: str, *witnesses: str) -> None:
        self.add(check_id, FAIL, tuple(witnesses))

    def skip(self, check_id: str, *witnesses: str) -> None:
        self.add(check_id, SKIPPED, tuple(witnesses))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self) -> list[CheckItem]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def skipped(self) -> list[CheckItem]:
        return [c for c in self.checks if c.status == SKIPPED]

    def _status_and_counts(self) -> tuple[str, dict[str, int]]:
        """The report's status and its check counts, from one pass over the checks."""
        tally = Counter(c.status for c in self.checks)
        counts = {"pass": tally[PASS], "fail": tally[FAIL], "skipped": tally[SKIPPED]}
        return (FAIL if counts["fail"] else PASS), counts

    def to_dict(self) -> dict:
        return self._to_dict(*self._status_and_counts())

    def summary(self) -> str:
        return self._summary(*self._status_and_counts())

    # to_dict and summary from the status and counts of _status_and_counts,
    # for a caller that holds them already: neither counts the checks again

    def _to_dict(self, status: str, counts: dict[str, int]) -> dict:
        return {
            "title": self.title,
            "status": status,
            "counts": counts,
            "checks": [c.to_dict() for c in self.checks],
        }

    def _summary(self, status: str, counts: dict[str, int]) -> str:
        return (
            f"{self.title}: {status} "
            f"({counts['pass']} pass, {counts['fail']} fail, {counts['skipped']} skipped)"
        )


def _render_sum(terms) -> str:
    """The golden text of a sparse combination: (c)*name per (c, name) term, or 0."""
    return " + ".join(f"({c})*{name}" for c, name in terms) or "0"
