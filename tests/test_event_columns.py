"""The columnar event layer against the record-based one it replaced.

The reference below is the earlier implementation: one validated
EventRecord per row, sorted by a key function, and cohort and featurize
steps that loop over records. The columnar table must agree with
it on records, patient ids, timelines, labels and feature counts.
"""

from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refractory as r
from refractory.errors import ParseError
from refractory.tables import read_table


class _RecordTable:
    def __init__(self, records):
        self.records = tuple(sorted(records, key=lambda e: (e.patient_id, e.day, e.event_kind, e.code)))

    def __iter__(self):
        return iter(self.records)

    def patient_ids(self):
        return list(dict.fromkeys(rec.patient_id for rec in self.records))


def _reference_read_events(path):
    _, lines = read_table(path, r.events.EVENTS_HEADER)
    records = []
    for lineno, line in enumerate(lines, start=2):
        pid, kind, code, day_field = line.split(",")
        if not (day_field.isascii() and day_field.isdigit()):
            raise ParseError(lineno, f"day must be a non-negative integer, got {day_field!r}")
        try:
            records.append(r.EventRecord(pid, kind, code, int(day_field)))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
    return _RecordTable(records)


def _reference_timelines(table):
    return [(pid, tuple(events)) for pid, events in groupby(table, attrgetter("patient_id"))]


def _reference_label(pid, events):
    failure_days = [e.day for e in events if e.event_kind == "AED_FAILURE"]
    if not failure_days:
        return None
    index_day = min(failure_days)
    future = sum(1 for d in failure_days if d > index_day)
    if future >= 4:
        return r.LabeledPatient(pid, index_day, r.CASE)
    if future == 0 and len(failure_days) == 1:
        return r.LabeledPatient(pid, index_day, r.CONTROL)
    return None


def _reference_counts(labeled, timelines):
    """(vocabulary keys, count matrix) over every labeled patient, from records."""
    windows = [[e for e in timelines[p.patient_id] if e.day < p.index_day] for p in labeled]
    keys = sorted({(e.event_kind, e.code) for window in windows for e in window})
    index = {key: i for i, key in enumerate(keys)}
    values = np.zeros((len(labeled), len(keys)), dtype=np.int64)
    for row, window in enumerate(windows):
        for e in window:
            values[row, index[(e.event_kind, e.code)]] += 1
    return keys, values


def _assert_matches_reference(table, reference):
    assert table.records == reference.records
    assert list(table) == list(reference)
    assert table.patient_ids() == reference.patient_ids()

    timelines = r.build_timelines(table)
    expected = _reference_timelines(reference)
    assert [(t.patient_id, t.events.records) for t in timelines] == expected
    assert [t.events for t in timelines] == [list(events) for _, events in expected]

    labeled = r.label_timelines(timelines)
    assert labeled == [lp for pid, events in expected if (lp := _reference_label(pid, events)) is not None]

    by_id = {t.patient_id: t for t in timelines}
    cohort = r.LabeledCohort(tuple(labeled), sampling_seed=0)
    vocab = r.build_vocabulary([r.pre_index_events(by_id[p.patient_id], p.index_day) for p in labeled])
    matrix = r.featurize(cohort, by_id, vocab)
    keys, values = _reference_counts(labeled, dict(expected))
    assert list(vocab.keys) == keys
    np.testing.assert_array_equal(matrix.values, values)
    assert matrix.row_ids == [p.patient_id for p in labeled]


# The five generator configs of the per-code reference test in test_synth.
_SYNTH_CONFIGS = [
    r.GeneratorConfig(n_case=20, n_control=20, seed=0),
    r.GeneratorConfig(n_case=20, n_control=20, n_signal_codes=3, seed=1),
    r.GeneratorConfig(n_case=20, n_control=20, n_codes=9, n_signal_codes=9, noise_scale=3.0, seed=2),
    r.GeneratorConfig(n_case=20, n_control=20, shell_radii=(0.1, 0.3), noise_scale=0.0, seed=3),
    r.GeneratorConfig(n_case=1, n_control=1, seed=4),
]


@pytest.mark.parametrize("cfg", _SYNTH_CONFIGS, ids=lambda cfg: f"seed{cfg.seed}")
def test_columns_match_record_reference_on_generated_events(tmp_path, cfg):
    path = tmp_path / "e.csv"
    generated = r.generate_events(cfg)
    r.write_events(generated, path)
    reference = _reference_read_events(path)
    table = r.read_events(path)
    assert table == generated
    _assert_matches_reference(table, reference)
    _assert_matches_reference(generated, reference)
    _assert_matches_reference(r.EventTable(reference.records), reference)


_field = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters=",\n\r"),
    min_size=1,
    max_size=6,
)


@given(
    st.lists(
        st.tuples(_field, st.sampled_from(r.EVENT_KINDS), _field, st.integers(0, 400)),
        max_size=30,
    )
)
def test_columns_match_record_reference_on_random_rows(tmp_path_factory, rows):
    records = [r.EventRecord(*row) for row in rows]
    path = tmp_path_factory.mktemp("cols") / "e.csv"
    r.write_events(r.EventTable(records), path)
    reference = _reference_read_events(path)
    assert reference.records == _RecordTable(records).records
    _assert_matches_reference(r.read_events(path), reference)
    _assert_matches_reference(r.EventTable(records), reference)


def test_timeline_views_behave_like_record_tuples():
    table = r.EventTable(
        [
            r.EventRecord("p1", "DRUG", "R1", 4),
            r.EventRecord("p1", "AED_FAILURE", "AED", 9),
            r.EventRecord("p1", "DIAGNOSIS", "D1", 2),
            r.EventRecord("p2", "DRUG", "R2", 1),
        ]
    )
    first = r.build_timelines(table)[0]
    events = first.events.records
    assert len(first.events) == 3
    assert first.events[0] == events[0]
    assert first.events[-1] == events[-1]
    assert first.events[:2] == events[:2]
    assert tuple(reversed(first.events)) == events[::-1]
    assert r.pre_index_events(first, 9) == list(events[:2])
    with pytest.raises(IndexError):
        first.events[3]


def test_days_up_to_max_day_sort():
    # Days at the int64 limit sort by value next to small days.
    records = [
        r.EventRecord("p2", "DRUG", "R1", 0),
        r.EventRecord("p1", "DRUG", "R1", r.events.MAX_DAY),
        r.EventRecord("p1", "DIAGNOSIS", "D1", r.events.MAX_DAY),
        r.EventRecord("p1", "DRUG", "R1", 7),
    ]
    assert r.EventTable(records).records == _RecordTable(records).records


def test_featurize_gives_unknown_kind_a_zero_column():
    # A vocabulary key no event can have, here a kind outside EVENT_KINDS
    # on a code that does occur, counts nothing.
    table = r.EventTable(
        [
            r.EventRecord("a", "DRUG", "R1", 1),
            r.EventRecord("a", "AED_FAILURE", "AED", 5),
            r.EventRecord("b", "AED_FAILURE", "AED", 4),
        ]
    )
    timelines = {t.patient_id: t for t in r.build_timelines(table)}
    cohort = r.LabeledCohort((r.LabeledPatient("a", 5, r.CASE), r.LabeledPatient("b", 4, r.CONTROL)), sampling_seed=0)
    vocab = r.FeatureVocabulary((("DRUG", "R1"), ("VISIT", "R1")))
    matrix = r.featurize(cohort, timelines, vocab)
    np.testing.assert_array_equal(matrix.values, [[1, 0], [0, 0]])


def test_columns_are_read_only():
    table = r.EventTable([r.EventRecord("p1", "DRUG", "R1", 3), r.EventRecord("p2", "DRUG", "R1", 4)])
    timeline = r.build_timelines(table)[0]
    with pytest.raises(ValueError):
        timeline.events.day[0] = 99
    assert table.day.tolist() == [3, 4]


def test_from_columns_rejects_bad_input():
    with pytest.raises(ValueError):
        r.EventTable.from_columns(["p1", ""], ["C1"], [0], [1], [0], [3])
    with pytest.raises(ValueError):
        r.EventTable.from_columns(["p1", "p1"], ["C1"], [0], [1], [0], [3])
    with pytest.raises(ValueError):
        r.EventTable.from_columns(["p1"], ["C1"], [1], [1], [0], [3])
    with pytest.raises(ValueError):
        r.EventTable.from_columns(["p1"], ["C1"], [0], [4], [0], [3])
    with pytest.raises(ValueError):
        r.EventTable.from_columns(["p1"], ["C1"], [0], [1], [0], [-3])


_GOOD = ["p1,DIAGNOSIS,D1,4", "p2,DRUG,R1,7", "p1,AED_FAILURE,AED,9", "p3,PROCEDURE,X1,0"]

_BAD_ROWS = {
    "kind": "p9,VISIT,D1,3",
    "empty id": ",DRUG,R1,3",
    "empty code": "p9,DRUG,,3",
    "plus day": "p9,DRUG,R1,+5",
    "space day": "p9,DRUG,R1, 5",
    "arabic-indic day": "p9,DRUG,R1,١٢",
    "carriage return day": "p9,DRUG,R1,5\r",
}


def _read_body(tmp_path, body):
    path = tmp_path / "e.csv"
    path.write_bytes(("\n".join([r.events.EVENTS_HEADER, *body]) + "\n").encode("utf-8"))
    with pytest.raises(ParseError) as err:
        r.read_events(path)
    return err.value


@pytest.mark.parametrize("name", list(_BAD_ROWS))
@pytest.mark.parametrize("position", [0, 2, len(_GOOD)])
def test_bad_row_reports_its_line(tmp_path, name, position):
    body = list(_GOOD)
    body.insert(position, _BAD_ROWS[name])
    err = _read_body(tmp_path, body)
    assert err.line == position + 2
    with pytest.raises(ParseError) as ref:
        _reference_read_events(tmp_path / "e.csv")
    assert str(err) == str(ref.value)


@pytest.mark.parametrize("name", list(_BAD_ROWS))
def test_first_of_two_bad_rows_is_reported(tmp_path, name):
    # A different fault later in the file must not win over the first one.
    later = _BAD_ROWS["kind" if name != "kind" else "empty code"]
    body = [_GOOD[0], _BAD_ROWS[name], *_GOOD[1:], later]
    assert _read_body(tmp_path, body).line == 3
    body = [_GOOD[0], later, *_GOOD[1:], _BAD_ROWS[name]]
    assert _read_body(tmp_path, body).line == 3


def test_day_beyond_int64_is_rejected(tmp_path):
    err = _read_body(tmp_path, [_GOOD[0], "p9,DRUG,R1,9223372036854775808"])
    assert err.line == 3


def test_read_matrix_reports_first_bad_count_or_label(tmp_path):
    path = tmp_path / "m.csv"
    header = "patient_id,label,DRUG:R1,DRUG:R2"
    cases = [
        (["a,CASE,1,2", "b,CASE,1,x", "c,CONTROL,+1,0"], 3, "'x'"),
        (["a,CASE,1,2", "b,CASE,1,2", "c,CONTROL,1,١"], 4, "'١'"),
        (["a,CASE,1,2", "b,MAYBE,1,2", "c,CONTROL,1, 2"], 3, "MAYBE"),
        (["a,CASE,1,2", "b,MAYBE,x,2"], 3, "MAYBE"),
        (["a,CASE,1,2", "b,CASE,x,2", "c,MAYBE,1,2"], 3, "'x'"),
        (["a,CASE,99999999999999999999,0"], 2, "9999"),
    ]
    for body, line, text in cases:
        path.write_text("\n".join([header, *body]) + "\n")
        with pytest.raises(ParseError) as err:
            r.read_matrix(path)
        assert err.value.line == line, body
        assert text in str(err.value)


def _lexsort_reference(ids, codes, patient, kind, code, day):
    """The table's columns as built before the in-order check: ranked by
    name, then always lexsorted by (patient, day, kind, code)."""
    ids_sorted, codes_sorted = sorted(ids), sorted(codes)
    id_rank = {name: i for i, name in enumerate(ids_sorted)}
    code_rank = {name: i for i, name in enumerate(codes_sorted)}
    p = np.array([id_rank[ids[i]] for i in patient], dtype=np.int64)
    c = np.array([code_rank[codes[i]] for i in code], dtype=np.int64)
    k, d = np.asarray(kind, dtype=np.int64), np.asarray(day, dtype=np.int64)
    order = np.lexsort((c, k, d, p))
    return tuple(ids_sorted), tuple(codes_sorted), p[order], k[order], c[order], d[order]


def _generated_columns():
    """Writeable columns of a generated table, in canonical row order, over
    dictionaries listed in reverse name order."""
    table = r.generate_events(r.GeneratorConfig(n_case=30, n_control=30, seed=0))
    ids, codes = table.ids[::-1], table.codes[::-1]
    patient = len(ids) - 1 - np.array(table.patient)
    code = len(codes) - 1 - np.array(table.code)
    return ids, codes, patient, np.array(table.kind), code, np.array(table.day)


def _assert_equals_lexsort(columns):
    table = r.EventTable.from_columns(*columns)
    ids, codes, *expected = _lexsort_reference(*columns)
    assert (table.ids, table.codes) == (ids, codes)
    for got, want in zip((table.patient, table.kind, table.code, table.day), expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_in_order_shuffled_and_duplicated_columns_match_the_lexsort():
    ids, codes, *rows = _generated_columns()
    n = len(rows[0])
    _assert_equals_lexsort((ids, codes, *rows))
    shuffled = np.random.default_rng(0).permutation(n)
    _assert_equals_lexsort((ids, codes, *(column[shuffled] for column in rows)))
    twice = np.repeat(np.arange(n), 2)  # duplicate records, still in order
    _assert_equals_lexsort((ids, codes, *(column[twice] for column in rows)))
    _assert_equals_lexsort((ids, codes, *(column[shuffled[twice]] for column in rows)))


def test_one_out_of_order_row_is_still_sorted():
    ids, codes, *rows = _generated_columns()
    n = len(rows[0])
    distinct = np.flatnonzero(np.any([column[:-1] != column[1:] for column in rows], axis=0))
    # Swapping two adjacent distinct rows puts exactly one row out of order.
    for i in (distinct[0], distinct[len(distinct) // 2], distinct[-1]):
        swap = np.arange(n)
        swap[[i, i + 1]] = swap[[i + 1, i]]
        columns = (ids, codes, *(column[swap] for column in rows))
        _assert_equals_lexsort(columns)
        assert r.EventTable.from_columns(*columns) == r.EventTable.from_columns(ids, codes, *rows)


def test_in_order_columns_are_not_shared_with_the_caller():
    ids, codes, patient, kind, code, day = _generated_columns()
    table = r.EventTable.from_columns(ids, codes, patient, kind, code, day)
    before = table.columns()
    for column in (patient, kind, code, day):
        assert column.flags.writeable
        column[:] = 0
    assert table.columns() == before
