"""Cohort construction: labeling timelines and drawing balanced samples.

A patient indexes on the day of their first AED_FAILURE. Cases accumulate at
least four more failures strictly after that day; controls have exactly one
failure in total. Anything in between, or failure-free, is excluded. Only
events strictly before the index day may feed features downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, ParseError
from .events import EVENT_KINDS, EventTable
from .tables import check_unique_ids, fits_int64, read_table, write_table

CASE = "CASE"
CONTROL = "CONTROL"

COHORT_HEADER = "patient_id,index_day,label"

_FAILURE = EVENT_KINDS.index("AED_FAILURE")


@dataclass(frozen=True)
class PatientTimeline:
    """All events for one patient, in day order.

    The events may be given as any iterable of EventRecord; they are held as
    an EventTable, which iterates, indexes and slices as records.
    """

    patient_id: str
    events: EventTable

    def __post_init__(self):
        object.__setattr__(self, "events", EventTable.coerce(self.events))


@dataclass(frozen=True)
class LabeledPatient:
    patient_id: str
    index_day: int
    label: str


@dataclass(frozen=True)
class LabeledCohort:
    """A sampled cohort: cases first, then controls, each id-sorted."""

    patients: tuple[LabeledPatient, ...]
    sampling_seed: int

    def ids(self) -> list[str]:
        return [p.patient_id for p in self.patients]

    def labels(self) -> list[str]:
        return [p.label for p in self.patients]


def build_timelines(table: EventTable) -> list[PatientTimeline]:
    """Group a table into one timeline per patient, in table (id) order.

    Each timeline's events are a slice of the table's columns, not a copy.
    """
    if not len(table):
        return []
    bounds = [0, *(np.flatnonzero(np.diff(table.patient)) + 1).tolist(), len(table)]
    first = table.patient[bounds[:-1]].tolist()
    return [
        PatientTimeline(table.ids[p], table.take(slice(start, stop)))
        for p, start, stop in zip(first, bounds, bounds[1:])
    ]


def label_patient(timeline: PatientTimeline) -> LabeledPatient | None:
    """Apply the case/control rule; None means the patient is excluded."""
    events = timeline.events
    failure_days = events.day[events.kind == _FAILURE]
    if not failure_days.size:
        return None
    index_day = int(failure_days.min())
    future = int(np.count_nonzero(failure_days > index_day))
    if future >= 4:
        return LabeledPatient(timeline.patient_id, index_day, CASE)
    if future == 0 and len(failure_days) == 1:
        return LabeledPatient(timeline.patient_id, index_day, CONTROL)
    return None


def label_timelines(timelines: list[PatientTimeline]) -> list[LabeledPatient]:
    return [lp for t in timelines if (lp := label_patient(t)) is not None]


def pre_index_events(timeline: PatientTimeline, index_day: int) -> EventTable:
    """Events strictly before the index day; index-day events are excluded."""
    events = timeline.events
    return events.take(events.day < index_day)


def sample_cohort(labeled: list[LabeledPatient], n_per_class: int, seed: int) -> LabeledCohort:
    """Draw n_per_class cases and controls uniformly without replacement.

    Candidates are id-sorted before sampling so the draw depends only on the
    seed and the candidate sets, not on input order.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    rng = np.random.default_rng(seed)
    chosen: list[LabeledPatient] = []
    for label in (CASE, CONTROL):
        pool = sorted((p for p in labeled if p.label == label), key=lambda p: p.patient_id)
        if len(pool) < n_per_class:
            raise CapacityError(f"{label}: need {n_per_class}, have {len(pool)}")
        picks = rng.choice(len(pool), size=n_per_class, replace=False)
        chosen.extend(sorted((pool[i] for i in picks), key=lambda p: p.patient_id))
    return LabeledCohort(tuple(chosen), sampling_seed=seed)


def write_cohort(cohort: LabeledCohort, path: str | Path) -> None:
    write_table(path, COHORT_HEADER, (f"{p.patient_id},{p.index_day},{p.label}" for p in cohort.patients))


def read_cohort(path: str | Path, sampling_seed: int = 0) -> LabeledCohort:
    _, lines = read_table(path, COHORT_HEADER)
    patients = []
    for lineno, line in enumerate(lines, start=2):
        pid, day_field, label = line.split(",")
        if label not in (CASE, CONTROL):
            raise ParseError(lineno, f"unknown label {label!r}")
        if not fits_int64(day_field):
            raise ParseError(lineno, f"index_day must be a non-negative 64-bit integer, got {day_field!r}")
        patients.append(LabeledPatient(pid, int(day_field), label))
    check_unique_ids([p.patient_id for p in patients])
    return LabeledCohort(tuple(patients), sampling_seed=sampling_seed)
