import json
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from refractory.classify import ClassifierSpec
from refractory.cli import (
    AUC_TABLE_FILE,
    ALPHA_SWEEP_FILE,
    COHORT_FILE,
    CV_REPORT_FILE,
    DEPTH_SWEEP_FILE,
    EMBEDDING_FILE,
    EVENTS_FILE,
    FEATURES_FILE,
    GAMMA_SWEEP_FILE,
    MODEL_FILE,
    ROC_PLOT_FILE,
    RUN_REPORT_FILE,
    SWEEP_FILE,
    PipelineConfig,
    build_config,
    load_config,
    main,
)
from refractory.cohort import build_timelines, label_timelines, read_cohort
from refractory.errors import ParseError
from refractory.events import read_events
from refractory.featurize import read_matrix
from refractory.reduce import KernelSpec, fit_reducer, read_embedding
from refractory.synth import GeneratorConfig

SMOKE = """
# small-but-realistic settings so the whole chain runs in about a second
seed = 3
n_case = 30
n_control = 30
n_codes = 40
n_signal_codes = 6
n_components = 8
n_neighbors = 8
n_stages = 30
max_iter = 300
restarts = 3
estimators = LOGREG, TREE, GBDT
alpha_grid = 0.05, 0.25
depth_grid = 1, 3
"""


def _write_smoke_config(directory, workdir):
    path = directory / "cfg.txt"
    path.write_text(SMOKE + f"workdir = {workdir}\n")
    return str(path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One full pipeline execution shared by the artifact assertions."""
    root = tmp_path_factory.mktemp("cli_run")
    workdir = root / "artifacts"
    cfg_path = _write_smoke_config(root, workdir)
    assert main(["run-all", "--config", cfg_path]) == 0
    return workdir, cfg_path


# ---------------------------------------------------------------------------
# Config plumbing


def test_load_config_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# intro\n\nseed = 9  # trailing\nworkdir = /tmp/x\n")
    assert load_config(path) == {"seed": "9", "workdir": "/tmp/x"}


def test_load_config_reports_bad_line_number(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("seed = 1\nnot a pair\n")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line == 2


def test_build_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        build_config({"n_trees": "5"})


def test_build_config_rejects_bad_value():
    with pytest.raises(ValueError, match="seed"):
        build_config({"seed": "three"})


def test_build_config_rejects_unknown_method_names():
    with pytest.raises(ValueError, match="reduce_method"):
        build_config({"reduce_method": "UMAP"})
    with pytest.raises(ValueError, match="estimator"):
        build_config({"estimators": "GBDT, FOREST"})


@pytest.mark.parametrize(
    "key, raw",
    [
        ("gamma", "-1"),
        ("gamma_grid", "0.01, -1"),
        ("classifier_gamma", "-1"),
        ("alpha_grid", "0.25, -0.5"),
        ("depth_grid", "2, -1"),
    ],
)
def test_build_config_value_errors_name_their_key(key, raw):
    with pytest.raises(ValueError, match=f"^config key {key!r}: "):
        build_config({key: raw})


@pytest.mark.parametrize(
    "key, raw",
    [
        ("noise_scale", "nan"),
        ("noise_scale", "inf"),
        ("shell_radii", "1, nan"),
        ("shell_radii", "inf, 5"),
        ("learning_rate", "nan"),
        ("svm_reg", "nan"),
        ("l2", "inf"),
        ("classifier_gamma", "inf"),
        ("gamma", "nan"),
        ("max_depth", "-1"),
        ("n_stages", "0"),
        ("max_iter", "0"),
    ],
)
def test_build_config_rejects_a_bad_value_naming_its_field(key, raw):
    # The message names the key and then gives the rejected value as field=value.
    with pytest.raises(ValueError, match=rf"\b{key}\b.*="):
        build_config({key: raw})


def test_overrides_beat_file_values():
    cfg = build_config({"seed": "1", "workdir": "a"}, {"seed": 7, "workdir": None})
    assert cfg.seed == 7
    assert cfg.workdir == "a"  # None override leaves the file value alone


def test_grid_and_pair_parsing():
    cfg = build_config({
        "alpha_grid": "0.1, 0.2",
        "depth_grid": "2,4",
        "shell_radii": "1.5, 4",
        "gamma": "none",
        "n_per_class": "25",
    })
    assert cfg.alpha_grid == (0.1, 0.2)
    assert cfg.depth_grid == (2, 4)
    assert cfg.shell_radii == (1.5, 4.0)
    assert cfg.gamma is None
    assert cfg.n_per_class == 25


def test_resolved_n_per_class_defaults_to_smaller_arm():
    assert PipelineConfig(n_case=10, n_control=30).resolved_n_per_class == 10
    assert PipelineConfig(n_per_class=5).resolved_n_per_class == 5


def test_shell_radii_needs_exactly_two():
    with pytest.raises(ValueError):
        build_config({"shell_radii": "1, 2, 3"})


def test_stage_defaults_equal_the_pipeline_defaults():
    # PipelineConfig restates the generator's and the classifier's defaults.
    pipeline = {f.name: f.default for f in fields(PipelineConfig)}
    for f in fields(GeneratorConfig):
        assert pipeline[f.name] == f.default, f.name
    renamed = {"method": "classifier", "gamma": "classifier_gamma"}
    for f in fields(ClassifierSpec):
        if f.name != "tol":
            assert pipeline[renamed.get(f.name, f.name)] == f.default, f.name


# ---------------------------------------------------------------------------
# Subcommand wiring


def test_synth_requires_out_flag():
    with pytest.raises(SystemExit) as err:
        main(["synth"])
    assert err.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2


def test_missing_upstream_artifact_names_producer(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"workdir = {tmp_path / 'empty'}\n")
    assert main(["cohort", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "events.csv" in err
    assert "synth" in err


@pytest.mark.parametrize(
    "command, present, missing, producer",
    [
        ("cohort", [], EVENTS_FILE, "synth"),
        ("featurize", [], EVENTS_FILE, "synth"),
        ("featurize", [EVENTS_FILE], COHORT_FILE, "cohort"),
        ("reduce", [], FEATURES_FILE, "featurize"),
        ("cluster-sweep", [], FEATURES_FILE, "featurize"),
        ("train", [], EMBEDDING_FILE, "reduce"),
        ("train", [EMBEDDING_FILE], COHORT_FILE, "cohort"),
        ("evaluate", [], EMBEDDING_FILE, "reduce"),
        ("evaluate", [EMBEDDING_FILE], COHORT_FILE, "cohort"),
    ],
)
def test_every_missing_input_names_its_file_and_producer(tmp_path, capsys, command, present, missing, producer):
    workdir = tmp_path / "w"
    workdir.mkdir()
    for name in present:  # only their existence is checked before the missing file
        (workdir / name).write_text("")
    assert main([command, "--workdir", str(workdir)]) == 1
    err = capsys.readouterr().err
    assert f"{workdir / missing} not found; run the {producer} subcommand first" in err


def _synth_and_cohort(tmp_path):
    workdir = tmp_path / "w"
    cfg_path = _write_smoke_config(tmp_path, workdir)
    assert main(["synth", "--config", cfg_path, "--out", str(workdir / EVENTS_FILE)]) == 0
    assert main(["cohort", "--config", cfg_path]) == 0
    return workdir, cfg_path


def test_cohort_index_day_beyond_int64_fails_at_its_line(tmp_path, capsys):
    workdir, cfg_path = _synth_and_cohort(tmp_path)
    path = workdir / COHORT_FILE
    header, *rows = path.read_text().splitlines()
    pid, _, label = rows[1].split(",")
    rows[1] = f"{pid},{2**63 - 1},{label}"
    path.write_text("\n".join([header, *rows]) + "\n")
    assert read_cohort(path).patients[1].index_day == 2**63 - 1
    rows[1] = f"{pid},{2**63},{label}"
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParseError) as err:
        read_cohort(path)
    assert err.value.line == 3
    assert "64-bit" in str(err.value) and str(2**63) in str(err.value)
    assert main(["featurize", "--config", cfg_path]) == 1
    assert "line 3" in capsys.readouterr().err
    assert not (workdir / FEATURES_FILE).exists()


def test_featurize_rejects_a_cohort_from_other_events(tmp_path, capsys):
    workdir, cfg_path = _synth_and_cohort(tmp_path)
    assert main(["synth", "--config", cfg_path, "--seed", "4", "--out", str(workdir / EVENTS_FILE)]) == 0
    fresh = {p.patient_id: p for p in label_timelines(build_timelines(read_events(workdir / EVENTS_FILE)))}
    cohort = read_cohort(workdir / COHORT_FILE).patients
    stale = [p for p in cohort if fresh.get(p.patient_id) != p]
    assert stale, "the second seed must move some index day or label"
    assert main(["featurize", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert repr(stale[0].patient_id) in err and f"index_day={stale[0].index_day}" in err
    assert not (workdir / FEATURES_FILE).exists()


def test_featurize_rejects_a_cohort_patient_without_events(tmp_path, capsys):
    workdir, cfg_path = _synth_and_cohort(tmp_path)
    with open(workdir / COHORT_FILE, "a") as cohort:
        cohort.write("ghost,5,CONTROL\n")
    assert main(["featurize", "--config", cfg_path]) == 1
    assert "'ghost'" in capsys.readouterr().err


def test_bad_config_path_returns_one(tmp_path, capsys):
    assert main(["cohort", "--config", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_all_produces_every_artifact(finished_run):
    workdir, _ = finished_run
    for name in (
        EVENTS_FILE, COHORT_FILE, FEATURES_FILE, EMBEDDING_FILE, SWEEP_FILE,
        MODEL_FILE, AUC_TABLE_FILE, CV_REPORT_FILE, ROC_PLOT_FILE, RUN_REPORT_FILE,
    ):
        assert (workdir / name).exists(), name


def test_sweep_artifact_has_full_grid(finished_run):
    workdir, _ = finished_run
    lines = (workdir / SWEEP_FILE).read_text().splitlines()
    assert lines[0] == "reduction,method,adjusted_rand,adjusted_mutual_info,status"
    assert len(lines) == 1 + 5 * 4


def test_cv_report_matches_k_folds(finished_run):
    workdir, _ = finished_run
    payload = json.loads((workdir / CV_REPORT_FILE).read_text())
    assert payload["k"] == 7
    assert len(payload["fold_accuracy"]) == 7
    assert len(payload["fold_auc"]) == 7
    assert 0.0 <= payload["mean"] <= 1.0


def test_auc_table_lists_requested_estimators(finished_run):
    workdir, _ = finished_run
    lines = (workdir / AUC_TABLE_FILE).read_text().splitlines()
    assert lines[0] == "method,auc,cv_mean_accuracy"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["LOGREG", "TREE", "GBDT"]


def test_per_estimator_roc_files_written(finished_run):
    workdir, _ = finished_run
    for method in ("LOGREG", "TREE", "GBDT"):
        path = workdir / f"roc_{method}.csv"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "threshold,fpr,tpr"


def test_roc_plot_is_standalone_svg(finished_run):
    workdir, _ = finished_run
    svg = (workdir / ROC_PLOT_FILE).read_text()
    assert svg.startswith("<svg")
    assert "viewBox" in svg
    assert svg.count("<polyline") >= 3  # one per estimator plus the diagonal
    assert "0.1" in svg and "0.9" in svg  # tick labels every 0.1


def test_embedding_file_is_the_fit_train_embedding(finished_run):
    workdir, cfg_path = finished_run
    cfg = build_config(load_config(cfg_path))
    model = fit_reducer(
        cfg.reduce_method,
        read_matrix(workdir / FEATURES_FILE).values,
        cfg.n_components,
        kernel=KernelSpec(cfg.kernel, cfg.gamma),
        n_neighbors=cfg.n_neighbors,
        seed=cfg.seed,
    )
    written = read_embedding(workdir / EMBEDDING_FILE).values
    # %.17g round-trips a double exactly, so the file holds the fit's bytes.
    assert written.shape == model.train_embedding.shape
    assert written.tobytes() == model.train_embedding.tobytes()


def test_run_report_excludes_timings(finished_run):
    workdir, _ = finished_run
    payload = json.loads((workdir / RUN_REPORT_FILE).read_text())
    assert "timings" not in payload
    assert payload["config"]["seed"] == 3
    assert "headline" in payload


def test_model_summary_written_for_configured_classifier(finished_run):
    workdir, _ = finished_run
    assert main(["train", "--config", finished_run[1]]) == 0
    payload = json.loads((workdir / MODEL_FILE).read_text())
    assert payload["method"] == "GBDT"
    assert len(payload["deviance_trace"]) == 30


def test_rerun_is_byte_identical(finished_run, tmp_path):
    workdir, cfg_path = finished_run
    before = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
    assert main(["run-all", "--config", cfg_path]) == 0
    after = {p.name: p.read_bytes() for p in workdir.iterdir() if p.is_file()}
    assert before.keys() == after.keys()
    for name in before:
        assert before[name] == after[name], f"{name} changed between identical runs"


def test_seed_override_changes_artifacts(finished_run, tmp_path):
    workdir, cfg_path = finished_run
    other = tmp_path / "other"
    shutil.copytree(workdir, other)
    assert main(["run-all", "--config", cfg_path, "--seed", "4",
                 "--workdir", str(other)]) == 0
    assert (other / EVENTS_FILE).read_bytes() != (workdir / EVENTS_FILE).read_bytes()


def test_train_sweep_writes_grid_tables(finished_run):
    workdir, cfg_path = finished_run
    assert main(["train", "--config", cfg_path, "--sweep"]) == 0
    alpha_lines = (workdir / ALPHA_SWEEP_FILE).read_text().splitlines()
    assert alpha_lines[0] == "alpha,mean_accuracy,std_accuracy"
    assert [float(line.split(",")[0]) for line in alpha_lines[1:]] == [0.05, 0.25]
    depth_lines = (workdir / DEPTH_SWEEP_FILE).read_text().splitlines()
    assert depth_lines[0] == "depth,mean_accuracy,std_accuracy"
    assert [float(line.split(",")[0]) for line in depth_lines[1:]] == [1.0, 3.0]
    # gamma sweep only runs when a grid is configured
    assert not (workdir / GAMMA_SWEEP_FILE).exists()


@pytest.mark.parametrize(
    "settings, args",
    [
        ("", ["--seed", "-1"]),
        ("n_signal_codes = 1", []),
        ("noise_scale = -1", []),
        ("shell_radii = 2, 2", []),
    ],
)
def test_bad_seed_or_generator_value_leaves_the_sweep_untouched(finished_run, tmp_path, capsys, settings, args):
    # cluster-sweep runs no generator, yet the config check still rejects these.
    workdir, cfg_path = finished_run
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{Path(cfg_path).read_text()}{settings}\n")
    before = (workdir / SWEEP_FILE).read_bytes()
    assert main(["cluster-sweep", "--config", str(cfg), *args]) == 1
    assert "error:" in capsys.readouterr().err
    assert (workdir / SWEEP_FILE).read_bytes() == before


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_embedding_missing_cohort_patients_fails_naming_the_first(finished_run, tmp_path, capsys, command):
    workdir, _ = finished_run
    other = tmp_path / "w"
    shutil.copytree(workdir, other)
    lines = (other / EMBEDDING_FILE).read_text().splitlines(keepends=True)
    (other / EMBEDDING_FILE).write_text("".join(lines[:-20]))
    kept = {line.split(",")[0] for line in lines[1:-20]}
    missing = next(p.patient_id for p in read_cohort(other / COHORT_FILE).patients if p.patient_id not in kept)
    outputs = {name: (other / name).read_bytes() for name in (MODEL_FILE, AUC_TABLE_FILE, CV_REPORT_FILE)}
    assert main([command, "--config", _write_smoke_config(tmp_path, other)]) == 1
    assert f"cohort patient {missing!r} is not in the embedding" in capsys.readouterr().err
    assert {name: (other / name).read_bytes() for name in outputs} == outputs


def test_stagewise_subcommands_chain(tmp_path):
    workdir = tmp_path / "w"
    cfg_path = _write_smoke_config(tmp_path, workdir)
    assert main(["synth", "--config", cfg_path, "--out", str(workdir / EVENTS_FILE)]) == 0
    assert main(["cohort", "--config", cfg_path]) == 0
    assert main(["featurize", "--config", cfg_path]) == 0
    assert main(["reduce", "--config", cfg_path]) == 0
    assert (workdir / EMBEDDING_FILE).exists()
    # skipping straight to evaluate works because train is not a dependency
    assert main(["evaluate", "--config", cfg_path]) == 0
    assert (workdir / AUC_TABLE_FILE).exists()


def test_evaluate_adds_a_classifier_missing_from_estimators(tmp_path):
    workdir = tmp_path / "w"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMOKE + f"classifier = SVM_RBF\nestimators = LOGREG, GBDT\nworkdir = {workdir}\n")
    assert main(["run-all", "--config", str(cfg)]) == 0
    rows = [line.split(",") for line in (workdir / AUC_TABLE_FILE).read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["LOGREG", "GBDT", "SVM_RBF"]
    cv_report = json.loads((workdir / CV_REPORT_FILE).read_text())
    assert cv_report["mean"] == float(rows[2][2])
    run_report = json.loads((workdir / RUN_REPORT_FILE).read_text())
    assert run_report["headline"]["classifier"] == "SVM_RBF"
    assert run_report["headline"]["auc"] == float(rows[2][1])
    assert "roc_SVM_RBF.csv" in run_report["artifacts"]
    assert (workdir / "roc_SVM_RBF.csv").exists()


@pytest.mark.parametrize(
    "settings",
    [
        "classifier = FOO",
        "kernel = POLY",
        "k_folds = 7\nn_case = 4\nn_control = 4",
        "k_folds = 1",
        "n_case = 10\nn_control = 10\nn_components = 25",
        "n_clusters = 0",
        "restarts = 0",
        "n_case = 30\nn_control = 30\nn_clusters = 61",
        "n_neighbors = 0",
        "l2 = 0",
        "classifier_gamma = 0",
        "classifier_gamma = -1",
        "alpha_grid = 0.1, 0",
        "depth_grid = -1",
        "gamma_grid = 0.01, -1",
        "n_case = 30\nn_control = 30\nn_per_class = 40",
        "n_components = 0",
        "reduce_method = NONE\nn_components = 0",
        "n_codes = 10\nn_signal_codes = 4\nreduce_method = PCA",
        "n_codes = 10\nn_signal_codes = 4\nreduce_method = ICA",
        "n_case = 30\nn_control = 30\nreduce_method = PCA\nn_components = 60\ngamma_grid = 0.01",
        "n_case = 10\nn_control = 10\nk_folds = 5\nreduce_method = ICA",
        "seed = -1",
        "n_signal_codes = 1",
        "noise_scale = -1",
        "shell_radii = 2, 2",
        "estimators = LOGREG, LOGREG",
        "alpha_grid = 0.1, 0.1",
        "depth_grid = 2, 2",
        "gamma_grid = 0.01, 0.01",
        "reduce_method = PCA\nkernel = POLY",
        "reduce_method = ISOMAP\ngamma = -1",
        "classifier_gamma = inf",
        "svm_reg = nan",
        "learning_rate = nan",
        "l2 = inf",
        "gamma = nan",
        "noise_scale = nan",
        "shell_radii = 1, nan",
        "alpha_grid = 0.25, nan",
        "gamma_grid = inf",
    ],
)
def test_bad_config_fails_before_any_stage(tmp_path, capsys, settings):
    workdir = tmp_path / "w"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{settings}\nworkdir = {workdir}\n")
    assert main(["run-all", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (workdir / EVENTS_FILE).exists()


def test_import_loads_no_scipy():
    # scipy is imported where a fit needs it, so the synth, cohort and
    # featurize stages never pay for it.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import refractory

    src = str(Path(refractory.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, refractory.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
