"""Structured pass/fail bookkeeping for identity verification runs.

Rows are made here only: `bool_entry` judges a claim, and writes residual
"0" on a pass and its witness on a failure; `residual_entry` judges a
residual matrix through it, and `info_entry` states a fact.
`VerificationReport.add_orbit` copies a computed row to the other members
of its orbit under a certified line symmetry.
"""

from __future__ import annotations

from typing import NamedTuple


class CheckEntry(NamedTuple):
    """One verified identity: a stable id, the subject it ran on, and status."""

    check_id: str
    subject: str
    status: str  # "pass" | "fail" | "info"
    residual: str = "0"
    note: str = ""


def residual_entry(check_id, subject, residual, note=""):
    """Entry whose status is decided by a residual matrix being (exactly) zero."""
    ok = residual.is_zero()
    return bool_entry(check_id, subject, ok, "" if ok else f"{residual.max_abs():.6e}", note)


def bool_entry(check_id, subject, ok, residual="1", note=""):
    """Entry whose status is decided by a claim holding; residual is the
    witness written when it fails."""
    return CheckEntry(check_id, subject, "pass" if ok else "fail",
                      "0" if ok else residual, note)


def info_entry(check_id, subject, note):
    return CheckEntry(check_id, subject, "info", "0", note)


class VerificationReport:
    """A list of check entries with aggregate status."""

    def __init__(self, entries=None):
        self.entries = [] if entries is None else entries

    def add(self, entry):
        self.entries.append(entry)

    def extend(self, entries):
        self.entries.extend(entries)

    def add_orbit(self, orbit, subject, entry):
        """Add entry(subject(orbit[0])), the row computed for the orbit's
        first member, then a copy of its status, residual and note under
        subject(x) for every other member x: rows derived by a certified
        line symmetry (quatspin.symmetry)."""
        first = entry(subject(orbit[0]))
        self.add(first)
        self.extend(first._replace(subject=subject(x)) for x in orbit[1:])

    @property
    def ok(self):
        return all(e.status != "fail" for e in self.entries)

    def counts(self):
        out = {"pass": 0, "fail": 0, "info": 0}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def failures(self):
        return [e for e in self.entries if e.status == "fail"]

    def sorted_entries(self):
        return sorted(self.entries, key=lambda e: (e.check_id, e.subject))
