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
from .events import _KIND_INDEX, EVENT_KINDS, EventRecord, EventTable
from .tables import check_unique_ids, encode, first_invalid, fits_int64, read_table, write_table


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


def _by_dictionary(tables: dict, events: EventTable, make) -> np.ndarray:
    """The array `make(codes)` kept per code dictionary; a pipeline's timelines share one."""
    key = id(events.codes)
    if key not in tables:
        tables[key] = (events.codes, make(events.codes))  # the tuple keeps the id in use
    return tables[key][1]


def build_vocabulary(event_lists: Iterable[EventTable | Sequence[EventRecord]]) -> FeatureVocabulary:
    """Collect the distinct (kind, code) pairs seen across the given events."""
    seen: dict = {}
    for events in map(EventTable.coerce, event_lists):
        mask = _by_dictionary(seen, events, lambda codes: np.zeros((len(EVENT_KINDS), len(codes)), dtype=bool))
        mask[events.kind, events.code] = True
    keys = {(EVENT_KINDS[k], codes[c]) for codes, mask in seen.values() for k, c in np.argwhere(mask).tolist()}
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

    def column_of(codes: tuple[str, ...]) -> np.ndarray:
        # Vocabulary column of each (kind, code index) pair, -1 outside it;
        # a key whose kind or code no event has keeps a zero column.
        lookup = np.full((len(EVENT_KINDS), len(codes)), -1, dtype=np.int64)
        position = {code: i for i, code in enumerate(codes)}
        for (kind, code), col in index.items():
            if code in position and kind in _KIND_INDEX:
                lookup[_KIND_INDEX[kind], position[code]] = col
        return lookup

    lookups: dict = {}
    cols = []
    for patient in cohort.patients:
        timeline = timelines.get(patient.patient_id)
        if timeline is None:
            raise ValueError(f"no timeline for patient {patient.patient_id!r}")
        window = pre_index_events(timeline, patient.index_day)
        cols.append(_by_dictionary(lookups, window, column_of)[window.kind, window.code])
    n_rows, n_cols = len(cohort.patients), len(vocabulary)
    rows = np.repeat(np.arange(n_rows), [len(c) for c in cols])
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    keep = cols >= 0
    values = np.bincount(rows[keep] * n_cols + cols[keep], minlength=n_rows * n_cols).reshape(n_rows, n_cols)
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

    # One split of the body; labels and counts are dictionary-encoded and
    # checked on their distinct values. The first bad row is reported, its
    # label before its counts.
    cells = np.array(",".join(lines).split(",") if lines else [], dtype=object).reshape(len(lines), len(header))
    row_ids = cells[:, 0].tolist()
    labels = cells[:, 1].tolist() if has_labels else None
    label_names, label_index = encode(labels or [])
    count_names, count_index = encode(cells[:, first_col:].ravel().tolist())
    bad_label = first_invalid(label_names, label_index, (CASE, CONTROL).__contains__)
    bad_count = first_invalid(count_names, count_index, fits_int64)
    if bad_count is not None and (bad_label is None or bad_count // len(keys) < bad_label):
        cell = count_names[count_index[bad_count]]
        raise ParseError(bad_count // len(keys) + 2, f"counts must be non-negative 64-bit integers, got {cell!r}")
    if bad_label is not None:
        raise ParseError(bad_label + 2, f"unknown label {label_names[label_index[bad_label]]!r}")
    values = np.array([int(cell) for cell in count_names], dtype=np.int64)[count_index]
    values = values.reshape(len(lines), len(keys))
    check_unique_ids(row_ids)
    return FeatureMatrix(row_ids, vocabulary, values, labels)
