"""Uniform result objects for the verification routines.

Each verification produces a VerifyReport made of named checks.  A failed
check carries a witness string: the offending inputs plus both side values,
serialized canonically so reports are reproducible.  `str(check)` is its
failure text, `name: witness`; a check or an error that summarises another
report carries that report's `first_failure()`, the text of its first failed
check.

A check that scans many cases is recorded by `VerifyReport.first`, which
reads its witnesses lazily in a fixed order: each case yields None when the
identity holds there and a witness string when it fails.  The first witness
fails the check and nothing after it is evaluated, so a check never computes
past its first counterexample.  A battery whose checks share seeded draws
draws them all into a list first, then scans each check in order; a check
that draws as it goes stops drawing at its first failure.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class Check:
    __slots__ = ("name", "ok", "witness")

    def __init__(self, name: str, ok: bool, witness: str = ""):
        self.name = name
        self.ok = ok
        self.witness = witness

    def __str__(self) -> str:
        """The failure text: `name: witness`, or the name alone."""
        return f"{self.name}: {self.witness}" if self.witness else self.name


class VerifyReport:
    __slots__ = ("title", "checks", "notes", "skipped")

    def __init__(
        self,
        title: str,
        checks: Optional[List[Check]] = None,
        notes: Optional[List[str]] = None,
        skipped: bool = False,
    ):
        self.title = title
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes
        self.skipped = skipped

    @property
    def ok(self) -> bool:
        return not self.skipped and all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, witness: str = "") -> None:
        self.checks.append(Check(name, ok, witness))

    def first(self, name: str, witnesses: Iterable[Optional[str]]) -> bool:
        """Record a check that fails with the first witness that is not None;
        nothing after it is evaluated.  Returns whether the check passed."""
        witness = next((w for w in witnesses if w is not None), None)
        self.add(name, witness is None, witness or "")
        return witness is None

    def copy(self) -> "VerifyReport":
        """A copy that shares no check or note list with this report."""
        return VerifyReport(
            self.title,
            [Check(c.name, c.ok, c.witness) for c in self.checks],
            list(self.notes),
            self.skipped,
        )

    def first_failure(self) -> Optional[str]:
        """The failure text of the first failed check, or None."""
        return next((str(c) for c in self.checks if not c.ok), None)

    def merge(self, other: "VerifyReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(
                Check(f"{prefix}{c.name}" if prefix else c.name, c.ok, c.witness)
            )
        self.notes.extend(other.notes)

    def lines(self) -> List[str]:
        out = [f"[{'pass' if self.ok else 'FAIL'}] {self.title}"]
        for c in self.checks:
            state = "ok" if c.ok else "FAIL"
            line = f"  {state:4} {c.name}"
            if c.witness:
                line += f"  witness: {c.witness}"
            out.append(line)
        for n in self.notes:
            out.append(f"  note: {n}")
        return out
