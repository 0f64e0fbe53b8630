"""Patient event records and their CSV interchange format.

An event stream is a flat list of (patient_id, event_kind, code, day) rows.
Days are non-negative integer offsets from an arbitrary per-dataset origin,
so no calendar arithmetic ever enters the picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError
from .tables import read_table, write_table

# The four kinds a record may carry. AED_FAILURE marks the failure of an
# anti-epileptic drug course; the other three are ordinary clinical events.
EVENT_KINDS = ("AED_FAILURE", "DIAGNOSIS", "DRUG", "PROCEDURE")

EVENTS_HEADER = "patient_id,event_kind,code,day"


@dataclass(frozen=True)
class EventRecord:
    """One timestamped event on one patient's timeline."""

    patient_id: str
    event_kind: str
    code: str
    day: int

    def __post_init__(self):
        for label, value in (("patient_id", self.patient_id), ("code", self.code)):
            if not value or "," in value or "\n" in value:
                raise ValueError(f"{label} must be non-empty and free of separators, got {value!r}")
        if self.event_kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.event_kind!r}")
        if isinstance(self.day, bool) or not isinstance(self.day, int) or self.day < 0:
            raise ValueError(f"day must be a non-negative integer, got {self.day!r}")


def _sort_key(rec: EventRecord):
    return (rec.patient_id, rec.day, rec.event_kind, rec.code)


class EventTable:
    """An event stream held in canonical order.

    Records are stable-sorted by (patient_id, day, event_kind, code) on
    construction, so two tables built from the same multiset of records
    compare equal regardless of input order.
    """

    def __init__(self, records: Iterable[EventRecord]):
        self.records: tuple[EventRecord, ...] = tuple(sorted(records, key=_sort_key))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return self.records == other.records

    def __repr__(self) -> str:
        return f"EventTable({len(self.records)} records)"

    def patient_ids(self) -> list[str]:
        """Distinct patient ids in table order."""
        return list(dict.fromkeys(rec.patient_id for rec in self.records))


def read_events(path: str | Path) -> EventTable:
    """Read an event CSV. Raises ParseError with the offending line number."""
    _, lines = read_table(path, EVENTS_HEADER)
    records = []
    for lineno, line in enumerate(lines, start=2):
        pid, kind, code, day_field = line.split(",")
        if not (day_field.isascii() and day_field.isdigit()):
            raise ParseError(lineno, f"day must be a non-negative integer, got {day_field!r}")
        try:
            records.append(EventRecord(pid, kind, code, int(day_field)))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
    return EventTable(records)


def write_events(table: EventTable, path: str | Path) -> None:
    """Write an event CSV; read_events(write_events(t)) round-trips exactly."""
    write_table(path, EVENTS_HEADER, (f"{r.patient_id},{r.event_kind},{r.code},{r.day}" for r in table))
