"""tools/artifact_diff.py sizes the columns that moved in a differing CSV and
re-runs the events stages on shuffled rows; tools/fit_memory.py measures each
n x n fit, and the event reader, in a fresh child."""

import importlib.util
from pathlib import Path

from refractory import cli

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)
_spec = importlib.util.spec_from_file_location("fit_memory", ROOT / "tools" / "fit_memory.py")
fit_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_memory)


def _pair(tmp_path, parent_text, change_text):
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text(parent_text)
    change.write_text(change_text)
    return parent, change


def test_column_moves_sizes_numbers_and_counts_other_cells(tmp_path):
    parent, change = _pair(
        tmp_path,
        "id,c0,c1,status\np1,1.0,2.0,ok\np2,3.0,4.0,ok\np3,5.0,,ok\n",
        "id,c0,c1,status\np1,1.0,2.5,ok\np2,3.0000000000001,4.0,failed: x\np3,5.0,6.0,failed: y\n",
    )
    assert artifact_diff.column_moves(parent, change) == [
        "    c0: max |change| 1e-13",
        "    c1: 2 cells differ",
        "    status: 2 cells differ",
    ]


def test_column_moves_needs_same_header_and_rows(tmp_path):
    assert artifact_diff.column_moves(*_pair(tmp_path, "a,b\n1,2\n", "a,c\n1,3\n")) == []
    assert artifact_diff.column_moves(*_pair(tmp_path, "a,b\n1,2\n", "a,b\n1,2\n1,3\n")) == []
    assert artifact_diff.column_moves(*_pair(tmp_path, "a,b\n1,2\n", "a,b\n1,2,3\n")) == []


def test_differing_files_lists_column_moves_under_the_file(tmp_path):
    for side, value in (("parent", "0.25"), ("change", "0.5")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "roc.csv").write_text(f"fpr,threshold\n0.0,{value}\n")
        (tmp_path / side / "same.json").write_text("{}")
    (tmp_path / "parent" / "gone.txt").write_text("x")
    assert artifact_diff.differing_files(tmp_path / "parent", tmp_path / "change") == [
        ("only in parent: gone.txt", []),
        ("differs: roc.csv", ["    threshold: max |change| 0.25"]),
    ]


def test_shuffled_events_stages_write_the_in_order_bytes(tmp_path):
    root, work = tmp_path, tmp_path / "work"
    (root / "stages.cfg").write_text("n_case = 15\nn_control = 15\n")
    in_order = [
        argv
        for argv in artifact_diff.commands(root, work)
        if argv[0] in ("synth", *artifact_diff.SHUFFLED_STAGES) and str(work / "stages") in argv
    ]
    assert [argv[0] for argv in in_order] == ["synth", "cohort", "featurize"]
    for argv in in_order:
        assert cli.main(argv) == 0
    events, shuffled = work / "stages" / "events.csv", work / "shuffled" / "events.csv"
    artifact_diff.shuffle_rows(events, shuffled, artifact_diff.SHUFFLE_SEED)
    header, *rows = events.read_text().splitlines()
    moved = shuffled.read_text().splitlines()
    assert moved[0] == header and moved[1:] != rows and sorted(moved[1:]) == sorted(rows)
    for argv in artifact_diff.shuffled_commands(root, work):
        assert cli.main(argv) == 0
    assert sorted(path.name for path in (work / "shuffled").iterdir()) == ["cohort.csv", "events.csv", "features.csv"]
    assert artifact_diff.order_sensitive_files(work) == []
    (work / "shuffled" / "features.csv").write_text("changed\n")
    assert artifact_diff.order_sensitive_files(work) == [Path("features.csv")]


def test_fit_memory_prints_one_line_per_fit(capsys):
    assert fit_memory.main(["--fits", "KPCA,AGGLOMERATIVE", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [["KPCA", "60"], ["AGGLOMERATIVE", "60"]]
    for line in lines[1:]:
        wall, base, peak = map(float, line.split()[2:])
        assert wall > 0 and 0 < base <= peak


def test_fit_memory_reads_events_written_by_another_child(capsys):
    assert fit_memory.main(["--fits", "READ_EVENTS", "20"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split()[:2] == ["READ_EVENTS", "20"]
    wall, base, peak = map(float, line.split()[2:])  # 20 patients read in under 5 ms
    assert wall >= 0 and 0 < base <= peak


def test_fit_memory_cap_turns_an_oversized_fit_into_memory_error(capsys):
    # 20,000 rows need a 3 GB Gram: under a 1 GiB address-space cap the
    # child's allocation fails at once, without touching that memory.
    assert fit_memory.main(["--fits", "KPCA", "--cap-mib", "1024", "20000"]) == 1
    assert capsys.readouterr().out.splitlines()[1].endswith("MemoryError")


def test_stages_run_ends_in_gbdt_train_and_evaluate(tmp_path):
    # GBDT is byte-compared at 2,000 patients too, on 1,714-row folds.
    root, work = tmp_path, tmp_path / "work"
    stages = [argv for argv in artifact_diff.commands(root, work) if str(work / "stages") in argv]
    assert [argv[0] for argv in stages] == [
        "synth", "cohort", "featurize", "reduce", "cluster-sweep", "train", "evaluate",
    ]
    (root / "stages.cfg").write_text(artifact_diff.STAGES_CONFIG)
    cfg = cli.build_config(cli.load_config(root / "stages.cfg"))
    assert cfg.n_case == cfg.n_control == 1000
    assert cli._evaluated(cfg) == ("GBDT",)


def test_byte_gate_runs_every_subcommand(tmp_path):
    # A stage added to the CLI's table cannot go uncompared.
    run = {argv[0] for argv in artifact_diff.commands(tmp_path, tmp_path / "work")}
    assert {stage.name for stage in cli.STAGES} | {"run-all"} <= run
