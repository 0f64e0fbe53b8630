"""Pre-index event counts as a dense feature matrix.

Feature keys are (event_kind, code) pairs in lexicographic order, and a cell
holds the number of matching events strictly before the patient's index day.
Counts, not indicators: repeat burden is part of the signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .cohort import CASE, CONTROL, LabeledCohort, PatientTimeline, pre_index_events
from .errors import ParseError
from .events import EVENT_KINDS, EventRecord
from .tables import check_unique_ids, read_table, write_table


@dataclass(frozen=True)
class FeatureVocabulary:
    """Ordered (event_kind, code) keys; column i of a matrix is keys[i]."""

    keys: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if list(self.keys) != sorted(set(self.keys)):
            raise ValueError("vocabulary keys must be sorted and unique")

    def __len__(self) -> int:
        return len(self.keys)

    def index(self) -> dict[tuple[str, str], int]:
        return {key: i for i, key in enumerate(self.keys)}

    def column_names(self) -> list[str]:
        return [f"{kind}:{code}" for kind, code in self.keys]


def build_vocabulary(event_lists: Iterable[Sequence[EventRecord]]) -> FeatureVocabulary:
    """Collect the distinct (kind, code) pairs seen across the given events."""
    keys = {(e.event_kind, e.code) for events in event_lists for e in events}
    return FeatureVocabulary(tuple(sorted(keys)))


@dataclass
class FeatureMatrix:
    """Dense per-patient count matrix with optional cohort labels."""

    row_ids: list[str]
    vocabulary: FeatureVocabulary
    values: np.ndarray
    labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-dimensional")
        if self.values.shape[0] != len(self.row_ids):
            raise ValueError("row count does not match row_ids")
        if self.values.shape[1] != len(self.vocabulary):
            raise ValueError("column count does not match vocabulary")
        if self.labels is not None and len(self.labels) != len(self.row_ids):
            raise ValueError("labels length does not match row_ids")

    def iter_nonzero(self, row: int) -> Iterator[tuple[int, int]]:
        """Yield (column, count) for the nonzero cells of one row."""
        values = self.values[row]
        for col in np.flatnonzero(values):
            yield int(col), int(values[col])


def featurize(
    cohort: LabeledCohort,
    timelines: Mapping[str, PatientTimeline],
    vocabulary: FeatureVocabulary,
) -> FeatureMatrix:
    """Count pre-index events per cohort patient against a fixed vocabulary.

    Events on or after the index day never reach the matrix; events whose
    (kind, code) is outside the vocabulary are dropped.
    """
    index = vocabulary.index()
    values = np.zeros((len(cohort.patients), len(vocabulary)), dtype=np.int64)
    for row, patient in enumerate(cohort.patients):
        timeline = timelines.get(patient.patient_id)
        if timeline is None:
            raise ValueError(f"no timeline for patient {patient.patient_id!r}")
        for event in pre_index_events(timeline, patient.index_day):
            col = index.get((event.event_kind, event.code))
            if col is not None:
                values[row, col] += 1
    return FeatureMatrix(list(cohort.ids()), vocabulary, values, list(cohort.labels()))


def write_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    header, lead = ["patient_id", *matrix.vocabulary.column_names()], matrix.row_ids
    if matrix.labels is not None:
        header.insert(1, "label")
        lead = [f"{pid},{label}" for pid, label in zip(matrix.row_ids, matrix.labels)]
    counts = matrix.values.astype(np.int64, copy=False)
    lines = (",".join([first, *map(str, row.tolist())]) for first, row in zip(lead, counts))
    write_table(path, ",".join(header), lines)


def read_matrix(path: str | Path) -> FeatureMatrix:
    header, lines = read_table(path)
    has_labels = len(header) > 1 and header[1] == "label"
    first_col = 2 if has_labels else 1
    keys = []
    for name in header[first_col:]:
        kind, sep, code = name.partition(":")
        if not sep or kind not in EVENT_KINDS or not code:
            raise ParseError(1, f"bad feature column {name!r}")
        keys.append((kind, code))
    try:
        vocabulary = FeatureVocabulary(tuple(keys))
    except ValueError as exc:  # columns out of order or repeated
        raise ParseError(1, str(exc)) from None

    row_ids: list[str] = []
    labels: list[str] | None = [] if has_labels else None
    values = np.zeros((len(lines), len(keys)), dtype=np.int64)
    for row, line in enumerate(lines):
        fields = line.split(",")
        row_ids.append(fields[0])
        if labels is not None:
            if fields[1] not in (CASE, CONTROL):
                raise ParseError(row + 2, f"unknown label {fields[1]!r}")
            labels.append(fields[1])
        counts = fields[first_col:]
        for cell in counts:
            if not (cell.isascii() and cell.isdigit()):
                raise ParseError(row + 2, f"counts must be non-negative integers, got {cell!r}")
        values[row] = list(map(int, counts))
    check_unique_ids(row_ids)
    return FeatureMatrix(row_ids, vocabulary, values, labels)
