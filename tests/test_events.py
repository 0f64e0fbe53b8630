import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import refractory as r
from refractory.errors import ParseError


def test_record_fields():
    rec = r.EventRecord("p1", "DIAGNOSIS", "D042", 10)
    assert (rec.patient_id, rec.event_kind, rec.code, rec.day) == ("p1", "DIAGNOSIS", "D042", 10)


@pytest.mark.parametrize(
    "pid,kind,code,day",
    [
        ("", "DIAGNOSIS", "D042", 10),
        ("p1", "DIAGNOSIS", "", 10),
        ("p,1", "DIAGNOSIS", "D042", 10),
        ("p1", "DIAGNOSIS", "D\n042", 10),
        ("p1", "VISIT", "D042", 10),
        ("p1", "DIAGNOSIS", "D042", -1),
        ("p1", "DIAGNOSIS", "D042", True),
        ("p1", "DIAGNOSIS", "D042", 1.5),
    ],
)
def test_record_rejects_bad_fields(pid, kind, code, day):
    with pytest.raises(ValueError):
        r.EventRecord(pid, kind, code, day)


def test_table_is_sorted_and_order_insensitive():
    a = r.EventRecord("p2", "DRUG", "R1", 3)
    b = r.EventRecord("p1", "DIAGNOSIS", "D1", 9)
    c = r.EventRecord("p1", "DIAGNOSIS", "D1", 2)
    table = r.EventTable([a, b, c])
    assert [rec.patient_id for rec in table] == ["p1", "p1", "p2"]
    assert [rec.day for rec in table] == [2, 9, 3]
    assert table == r.EventTable([c, a, b])


def test_same_day_orders_by_kind_then_code():
    recs = [
        r.EventRecord("p1", "DRUG", "R1", 5),
        r.EventRecord("p1", "DIAGNOSIS", "Z9", 5),
        r.EventRecord("p1", "DIAGNOSIS", "A1", 5),
    ]
    table = r.EventTable(recs)
    assert [(rec.event_kind, rec.code) for rec in table] == [
        ("DIAGNOSIS", "A1"),
        ("DIAGNOSIS", "Z9"),
        ("DRUG", "R1"),
    ]


def test_read_single_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("patient_id,event_kind,code,day\np1,DIAGNOSIS,D042,10\n")
    table = r.read_events(path)
    assert len(table) == 1
    rec = table.records[0]
    assert (rec.patient_id, rec.event_kind, rec.code, rec.day) == ("p1", "DIAGNOSIS", "D042", 10)


def test_read_header_only(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("patient_id,event_kind,code,day\n")
    assert len(r.read_events(path)) == 0


def test_bad_day_reports_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("patient_id,event_kind,code,day\np1,DIAGNOSIS,D042,10\np1,DIAGNOSIS,D042,ten\n")
    with pytest.raises(ParseError) as err:
        r.read_events(path)
    assert err.value.line == 3
    assert "ten" in str(err.value)


@pytest.mark.parametrize(
    "row",
    ["p1,DIAGNOSIS,D042", "p1,DIAGNOSIS,D042,10,extra", "p1,VISIT,D042,10", "p1,DIAGNOSIS,D042,-3"],
)
def test_malformed_rows(tmp_path, row):
    path = tmp_path / "e.csv"
    path.write_text(f"patient_id,event_kind,code,day\n{row}\n")
    with pytest.raises(ParseError) as err:
        r.read_events(path)
    assert err.value.line == 2


def test_wrong_header(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("id,kind,code,day\n")
    with pytest.raises(ParseError) as err:
        r.read_events(path)
    assert err.value.line == 1


def test_write_empty_table(tmp_path):
    path = tmp_path / "e.csv"
    r.write_events(r.EventTable([]), path)
    assert path.read_text() == "patient_id,event_kind,code,day\n"


def test_round_trip(tmp_path):
    recs = [
        r.EventRecord("p1", "DIAGNOSIS", "D1", 4),
        r.EventRecord("p1", "AED_FAILURE", "AED", 30),
        r.EventRecord("p2", "PROCEDURE", "X 1", 0),
    ]
    table = r.EventTable(recs)
    path = tmp_path / "e.csv"
    r.write_events(table, path)
    assert r.read_events(path) == table


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
def test_round_trip_property(tmp_path_factory, rows):
    table = r.EventTable(r.EventRecord(*row) for row in rows)
    path = tmp_path_factory.mktemp("rt") / "e.csv"
    r.write_events(table, path)
    again = r.read_events(path)
    assert again == table
    assert again.patient_ids() == table.patient_ids()


# ---------------------------------------------------------------------------
# read_events parses the body a block of rows at a time.

_ONE_BLOCK = 10**9
_HAND_WRITTEN = [
    "p2,DRUG,R1,5",
    "p1,DIAGNOSIS,D042,10",
    "p2,DRUG,R1,5",
    "p10,AED_FAILURE,AED,0",
    "p1,PROCEDURE,X 1,10",
    "p3,DIAGNOSIS,D042,7",
    "p2,DIAGNOSIS,D7,3",
]


def _write_body(path, body):
    path.write_bytes(("\n".join([r.events.EVENTS_HEADER, *body]) + "\n").encode("utf-8"))
    return path


def _generated_body():
    table = r.generate_events(r.GeneratorConfig(n_case=6, n_control=6, seed=3))
    return list(map(",".join, zip(*table.columns()[:3], map(str, table.day.tolist()))))


def _read_in_blocks(monkeypatch, path, block):
    monkeypatch.setattr(r.events, "_PARSE_BLOCK", block)
    return r.read_events(path)


def _same_table(a, b):
    assert (a.ids, a.codes) == (b.ids, b.codes)
    for name in ("patient", "kind", "code", "day"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("source", ["generated", "shuffled", "hand-written"])
@pytest.mark.parametrize("block", [1, 3, 7])
def test_small_blocks_read_the_one_block_table(tmp_path, monkeypatch, source, block):
    body = _HAND_WRITTEN if source == "hand-written" else _generated_body()
    if source == "shuffled":
        random.Random(0).shuffle(body)
    path = _write_body(tmp_path / "e.csv", body)
    whole = _read_in_blocks(monkeypatch, path, _ONE_BLOCK)
    _same_table(_read_in_blocks(monkeypatch, path, block), whole)
    assert len(whole) == len(body)


@pytest.mark.parametrize("bad", ["p9,VISIT,D1,4", "p9,DRUG,R1,x", "p9,DRUG,,4", "p,9,DRUG,R1"])
def test_bad_row_in_the_third_block_reports_its_own_line(tmp_path, monkeypatch, bad):
    body = list(_HAND_WRITTEN)
    body.insert(5, bad)  # row 5 of blocks of 2 is the third block's second row
    path = _write_body(tmp_path / "e.csv", body)
    errors = []
    for block in (2, _ONE_BLOCK):
        with pytest.raises(ParseError) as err:
            _read_in_blocks(monkeypatch, path, block)
        errors.append(str(err.value))
        assert err.value.line == 7
    assert errors[0] == errors[1]


@pytest.mark.parametrize("block", [2, 3, _ONE_BLOCK])
def test_first_bad_row_wins_across_blocks_and_columns(tmp_path, monkeypatch, block):
    # A bad day in the second block of two rows comes before a bad kind and a
    # second bad day, which sorts first, in the third.
    body = list(_HAND_WRITTEN)
    body[2] = "p2,DRUG,R1,later"
    body[4] = "p1,PROCEDURE,X 1,early"
    body[5] = "p3,VISIT,D042,7"
    path = _write_body(tmp_path / "e.csv", body)
    with pytest.raises(ParseError) as err:
        _read_in_blocks(monkeypatch, path, block)
    assert err.value.line == 4
    assert "later" in str(err.value)


def test_read_events_holds_a_bounded_multiple_of_the_file(tmp_path):
    # About 40,000 rows, ten blocks. Splitting the whole body at once peaked
    # at 10.3 times the file's size here.
    path = tmp_path / "e.csv"
    r.write_events(r.generate_events(r.GeneratorConfig(n_case=108, n_control=108, seed=1)), path)
    tracemalloc.start()
    try:
        table = r.read_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 40_000
    ratio = peak / path.stat().st_size
    assert ratio <= 8.0, f"read_events peaked at {ratio:.2f} times the file's size"
