"""The shared artifact formats: where each reader rejects bad input, and the
exact bytes each writer produces."""

import numpy as np
import pytest

import refractory as r
from refractory.classify import write_model_summary
from refractory.cli import RunReport
from refractory.errors import ParseError
from refractory.tables import format_row, write_table, write_text

# reader, header, three valid rows, and the second row with one bad cell
READERS = {
    "events": (
        r.read_events,
        "patient_id,event_kind,code,day",
        ["p1,DRUG,R1,3", "p2,DIAGNOSIS,D1,4", "p3,PROCEDURE,X1,5"],
        "p2,DIAGNOSIS,D1,four",
    ),
    "cohort": (
        r.read_cohort,
        "patient_id,index_day,label",
        ["p1,3,CASE", "p2,4,CONTROL", "p3,5,CASE"],
        "p2,4,MAYBE",
    ),
    "matrix": (
        r.read_matrix,
        "patient_id,label,DRUG:R1,DRUG:R2",
        ["p1,CASE,0,1", "p2,CONTROL,2,0", "p3,CASE,1,1"],
        "p2,CONTROL,2,-1",
    ),
    "embedding": (
        r.read_embedding,
        "patient_id,c0,c1",
        ["p1,0.5,1", "p2,-2,3e-3", "p3,0,0"],
        "p2,abc,1",
    ),
}


def _defect(name, defect):
    """(file text, line the reader must reject) for one defect."""
    _, header, rows, bad_cell_row = READERS[name]
    rows = list(rows)
    line = 3
    if defect == "header":
        header, line = header.replace("patient_id", "id"), 1
    elif defect in ("column order", "column repeat"):  # features.csv only
        swap = "DRUG:R2,DRUG:R1" if defect == "column order" else "DRUG:R1,DRUG:R1"
        header, line = header.replace("DRUG:R1,DRUG:R2", swap), 1
    elif defect == "short":
        rows[1] = rows[1].rsplit(",", 1)[0]
    elif defect == "cell":
        rows[1] = bad_cell_row
    else:  # a repeated patient id
        rows[2], line = "p1" + rows[2][2:], 4
    return "\n".join([header, *rows]) + "\n", line


@pytest.mark.parametrize(
    "name,defect",
    [
        (name, defect)
        for name in READERS
        for defect in ("header", "short", "cell", "repeat")
        if (name, defect) != ("events", "repeat")
    ]
    + [("matrix", "column order"), ("matrix", "column repeat")],
)
def test_reader_rejects_at_line(tmp_path, name, defect):
    text, line = _defect(name, defect)
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        READERS[name][0](path)
    assert err.value.line == line


@pytest.mark.parametrize("name", list(READERS))
def test_reader_accepts_the_valid_rows(tmp_path, name):
    reader, header, rows, _ = READERS[name]
    path = tmp_path / "t.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    reader(path)


def test_events_keep_repeated_rows(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("patient_id,event_kind,code,day\np1,DRUG,R1,3\np1,DRUG,R1,3\n")
    assert len(r.read_events(path)) == 2


def _write_events(path):
    r.write_events(
        r.EventTable([r.EventRecord("p2", "DRUG", "R1", 7), r.EventRecord("p1", "AED_FAILURE", "AED", 0)]),
        path,
    )


def _write_cohort(path):
    patients = (r.LabeledPatient("p1", 12, r.CASE), r.LabeledPatient("p2", 0, r.CONTROL))
    r.write_cohort(r.LabeledCohort(patients, sampling_seed=0), path)


def _write_matrix(path):
    vocabulary = r.FeatureVocabulary((("DRUG", "R1"), ("PROCEDURE", "X1")))
    values = np.array([[3, 0], [0, 12]])
    r.write_matrix(r.FeatureMatrix(["p1", "p2"], vocabulary, values, [r.CASE, r.CONTROL]), path)


def _write_embedding(path):
    values = np.array([[0.1, -2.0], [1e-20, 3.0]])
    r.write_embedding(r.Embedding(values, "PCA", ["p1", "p2"]), path)


def _write_sweep(path):
    cells = [
        r.SweepCell("PCA", "KMEANS", 0.1, 1.0, "ok"),
        r.SweepCell("ISOMAP", "GMM", None, None, "failed: a, b\nc"),
    ]
    r.write_sweep(cells, path)


def _write_roc(path):
    curve = r.RocCurve(np.array([np.inf, 0.9, 0.1]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]))
    r.write_roc(curve, path)


def _write_grid_table(path):
    write_table(path, "depth,mean_accuracy,std_accuracy", [format_row((3, 0.1, 0.0))])


def _write_cv_report(path):
    r.write_cv_report(r.CvReport(2, 0, [1.0, 0.5], [1.0, 0.75], 0.75, 0.25), path)


def _write_model_summary(path):
    write_model_summary({"method": "GBDT", "gamma": None, "deviance_trace": [0.1]}, path)


def _write_run_report(path):
    report = RunReport({"seed": 0}, ["synth"], {"synth": 1.5}, ["events.csv"], {"auc": None})
    write_text(path, report.to_json())


WRITERS = {
    "events": (
        _write_events,
        "patient_id,event_kind,code,day\np1,AED_FAILURE,AED,0\np2,DRUG,R1,7\n",
    ),
    "cohort": (_write_cohort, "patient_id,index_day,label\np1,12,CASE\np2,0,CONTROL\n"),
    "matrix": (
        _write_matrix,
        "patient_id,label,DRUG:R1,PROCEDURE:X1\np1,CASE,3,0\np2,CONTROL,0,12\n",
    ),
    "embedding": (
        _write_embedding,
        "patient_id,c0,c1\np1,0.10000000000000001,-2\np2,9.9999999999999995e-21,3\n",
    ),
    "sweep": (
        _write_sweep,
        "reduction,method,adjusted_rand,adjusted_mutual_info,status\n"
        "PCA,KMEANS,0.10000000000000001,1,ok\nISOMAP,GMM,,,failed: a; b c\n",
    ),
    "roc": (_write_roc, "threshold,fpr,tpr\ninf,0,0\n0.90000000000000002,0,1\n0.10000000000000001,1,1\n"),
    "grid_table": (_write_grid_table, "depth,mean_accuracy,std_accuracy\n3,0.10000000000000001,0\n"),
    "cv_report": (
        _write_cv_report,
        '{\n  "k": 2,\n  "seed": 0,\n  "fold_accuracy": [\n    1.0,\n    0.5\n  ],\n'
        '  "mean": 0.75,\n  "std": 0.25,\n  "fold_auc": [\n    1.0,\n    0.75\n  ]\n}\n',
    ),
    "model_summary": (
        _write_model_summary,
        '{\n  "method": "GBDT",\n  "gamma": null,\n  "deviance_trace": [\n    0.1\n  ]\n}\n',
    ),
    "run_report": (
        _write_run_report,
        '{\n  "config": {\n    "seed": 0\n  },\n  "stages": [\n    "synth"\n  ],\n'
        '  "artifacts": [\n    "events.csv"\n  ],\n  "headline": {\n    "auc": null\n  }\n}\n',
    ),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_bytes(tmp_path, name):
    write, expected = WRITERS[name]
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == expected.encode("utf-8")
