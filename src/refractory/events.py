"""Patient event records and their CSV interchange format.

An event stream is a flat list of (patient_id, event_kind, code, day) rows.
Days are non-negative integer offsets from an arbitrary per-dataset origin,
so no calendar arithmetic ever enters the picture.

A table holds the stream as four integer columns rather than one object per
row; EventRecord objects are built only when a table is iterated, indexed or
sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError
from .tables import INT64_MAX, encode, encode_into, first_invalid, fits_int64, read_table, write_table

# The four kinds a record may carry. AED_FAILURE marks the failure of an
# anti-epileptic drug course; the other three are ordinary clinical events.
# The tuple is sorted, so a kind's index orders like its name.
EVENT_KINDS = ("AED_FAILURE", "DIAGNOSIS", "DRUG", "PROCEDURE")
_KIND_INDEX = {kind: i for i, kind in enumerate(EVENT_KINDS)}

EVENTS_HEADER = "patient_id,event_kind,code,day"

# A table stores days as int64.
MAX_DAY = INT64_MAX

# Body rows read_events splits at a time; the cell strings of one block of
# rows are alive at once, not those of the whole file.
_PARSE_BLOCK = 4_096


def _is_name(value: str) -> bool:
    return bool(value) and "," not in value and "\n" not in value


def _check_name(label: str, value: str) -> None:
    if not _is_name(value):
        raise ValueError(f"{label} must be non-empty and free of separators, got {value!r}")


@dataclass(frozen=True)
class EventRecord:
    """One timestamped event on one patient's timeline."""

    patient_id: str
    event_kind: str
    code: str
    day: int

    def __post_init__(self):
        _check_name("patient_id", self.patient_id)
        _check_name("code", self.code)
        if self.event_kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.event_kind!r}")
        if isinstance(self.day, bool) or not isinstance(self.day, int) or not 0 <= self.day <= MAX_DAY:
            raise ValueError(f"day must be a non-negative 64-bit integer, got {self.day!r}")


def _sorted_dictionary(label: str, names: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Validate a dictionary of distinct names; return it sorted, and each old index's new one."""
    for name in names:
        _check_name(label, name)
    order = sorted(range(len(names)), key=names.__getitem__)
    ranked = tuple(names[i] for i in order)
    if len(set(ranked)) != len(ranked):
        raise ValueError(f"{label} dictionary repeats a value")
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return ranked, rank


def _indices(label: str, column, size: int) -> np.ndarray:
    column = np.asarray(column, dtype=np.int64).reshape(-1)
    if column.size and (column.min() < 0 or column.max() >= size):
        raise ValueError(f"{label} index out of range [0, {size})")
    return column


def _ascending(keys: Sequence[np.ndarray]) -> bool:
    """Whether the rows of the key columns (most significant first) are in
    non-decreasing lexicographic order, so a stable lexsort would keep them."""
    tied = np.ones(max(len(keys[0]) - 1, 0), dtype=bool)  # adjacent rows equal on every key so far
    for key in keys:
        before, after = key[:-1], key[1:]
        if (tied & (before > after)).any():
            return False
        tied &= before == after
    return True


class EventTable:
    """An event stream held in canonical order, as integer columns.

    Row i is (ids[patient[i]], EVENT_KINDS[kind[i]], codes[code[i]], day[i]).
    Rows are sorted by (patient_id, day, event_kind, code) on construction,
    so two tables built from the same multiset of records compare equal
    regardless of input order. `ids` and `codes` are sorted tuples of
    distinct names, so sorting the index columns sorts the rows by name.
    A view made by `take` shares them and need not use every entry.

    Iterating yields EventRecord objects; an int index gives one record and
    a slice a tuple of them. A table also compares equal to a list or tuple
    of the same records in the same order.
    """

    def __init__(self, records: Iterable[EventRecord]):
        records = list(records)
        ids, patient = encode([rec.patient_id for rec in records])
        codes, code = encode([rec.code for rec in records])
        kind = [_KIND_INDEX[rec.event_kind] for rec in records]
        day = np.array([rec.day for rec in records], dtype=np.int64)
        self._canonical(ids, codes, patient, kind, code, day)

    @classmethod
    def from_columns(cls, ids: Sequence[str], codes: Sequence[str], patient, kind, code, day) -> EventTable:
        """A table from index columns: patient indexes ids, code indexes codes
        and kind indexes EVENT_KINDS. The dictionaries hold distinct valid
        names in any order; days are non-negative. Rows may come in any order.
        The table neither shares nor freezes the caller's arrays.
        """
        # patient and code are always remapped into new arrays; rows already
        # in order keep kind and day as given, so those two are copied here.
        return cls._adopt(ids, codes, patient, np.array(kind, dtype=np.int64), code, np.array(day, dtype=np.int64))

    @classmethod
    def _adopt(cls, ids, codes, patient, kind, code, day) -> EventTable:
        """from_columns for columns no one else holds, which the table may keep
        without a copy."""
        table = cls.__new__(cls)
        table._canonical(ids, codes, patient, kind, code, day)
        return table

    def _canonical(self, ids, codes, patient, kind, code, day) -> None:
        ids, id_rank = _sorted_dictionary("patient_id", ids)
        codes, code_rank = _sorted_dictionary("code", codes)
        patient = id_rank[_indices("patient", patient, len(ids))]
        code = code_rank[_indices("code", code, len(codes))]
        kind = _indices("kind", kind, len(EVENT_KINDS))
        day = np.asarray(day, dtype=np.int64).reshape(-1)
        if not len(patient) == len(kind) == len(code) == len(day):
            raise ValueError("columns differ in length")
        if day.size and day.min() < 0:
            raise ValueError("day must be non-negative")
        keys = (patient, day, kind, code)
        if not _ascending(keys):
            order = np.lexsort(keys[::-1])
            patient, day, kind, code = (key[order] for key in keys)
        self._assign(ids, codes, patient, kind, code, day)

    def _assign(self, ids, codes, patient, kind, code, day) -> None:
        # Views share their columns, so no holder may write to them.
        for column in (patient, kind, code, day):
            column.flags.writeable = False
        self.ids: tuple[str, ...] = ids
        self.codes: tuple[str, ...] = codes
        self.patient: np.ndarray = patient
        self.kind: np.ndarray = kind
        self.code: np.ndarray = code
        self.day: np.ndarray = day

    @classmethod
    def coerce(cls, events: EventTable | Iterable[EventRecord]) -> EventTable:
        """The table itself, or a new table of the given records."""
        return events if isinstance(events, EventTable) else cls(events)

    def take(self, rows: slice | np.ndarray) -> EventTable:
        """The rows picked by a slice or a boolean mask, in table order, over
        the same dictionaries. A slice shares the columns without a copy."""
        view = EventTable.__new__(EventTable)
        view._assign(self.ids, self.codes, self.patient[rows], self.kind[rows], self.code[rows], self.day[rows])
        return view

    def columns(self) -> tuple[list[str], list[str], list[str], list[int]]:
        """The decoded (patient_id, event_kind, code, day) columns, as lists."""
        return (
            np.array(self.ids, dtype=object)[self.patient].tolist(),
            np.array(EVENT_KINDS, dtype=object)[self.kind].tolist(),
            np.array(self.codes, dtype=object)[self.code].tolist(),
            self.day.tolist(),
        )

    @property
    def records(self) -> tuple[EventRecord, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.day)

    def __iter__(self) -> Iterator[EventRecord]:
        return starmap(EventRecord, zip(*self.columns()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self.take(index))
        i = range(len(self))[index]
        return EventRecord(
            self.ids[self.patient[i]], EVENT_KINDS[self.kind[i]], self.codes[self.code[i]], int(self.day[i])
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, EventTable):
            return len(self) == len(other) and self.columns() == other.columns()
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventTable({len(self)} records)"

    def patient_ids(self) -> list[str]:
        """Distinct patient ids in table order."""
        return [self.ids[i] for i in dict.fromkeys(self.patient.tolist())]


def _row_error(pid: str, kind: str, code: str, day_field: str) -> str:
    if not (day_field.isascii() and day_field.isdigit()):
        return f"day must be a non-negative integer, got {day_field!r}"
    try:
        EventRecord(pid, kind, code, int(day_field))
    except ValueError as exc:
        return str(exc)
    raise AssertionError("row passed the record checks")


def read_events(path: str | Path) -> EventTable:
    """Read an event CSV. Raises ParseError with the line of the first bad row.

    The body is split _PARSE_BLOCK rows at a time, so one block's cells are
    alive at once. Each column is dictionary-encoded across the blocks, in
    order of first appearance in the file, and the checks run on each
    column's distinct values only.
    """
    _, lines = read_table(path, EVENTS_HEADER)
    positions: list[dict[str, int]] = [{}, {}, {}, {}]
    indices = [np.empty(len(lines), dtype=np.int64) for _ in range(4)]
    for start in range(0, len(lines), _PARSE_BLOCK):
        cells = ",".join(lines[start:start + _PARSE_BLOCK]).split(",")
        stop = start + len(cells) // 4
        for i, (position, index) in enumerate(zip(positions, indices)):
            index[start:stop] = encode_into(position, cells[i::4])
    del lines
    columns = [(list(position), index) for position, index in zip(positions, indices)]
    checks = (_is_name, _KIND_INDEX.__contains__, _is_name, fits_int64)
    bad = [first_invalid(names, index, valid) for (names, index), valid in zip(columns, checks)]
    first = min((row for row in bad if row is not None), default=None)
    if first is not None:
        raise ParseError(first + 2, _row_error(*(names[index[first]] for names, index in columns)))
    (ids, patient), (kinds, kind), (codes, code), (days, day) = columns
    kind = np.array([_KIND_INDEX[name] for name in kinds], dtype=np.int64)[kind]
    day = np.array([int(field) for field in days], dtype=np.int64)[day]
    return EventTable._adopt(ids, codes, patient, kind, code, day)


def write_events(table: EventTable, path: str | Path) -> None:
    """Write an event CSV; read_events(write_events(t)) round-trips exactly."""
    pids, kinds, codes, days = table.columns()
    write_table(path, EVENTS_HEADER, map(",".join, zip(pids, kinds, codes, map(str, days))))
