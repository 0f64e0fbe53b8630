"""The benchmark's workloads, the correctness gates on their outputs, and the
per-layer metrics with the end-to-end metric and workload each should move.

A workload turns (seed, patients per class, work directory) into a list of
steps, each run as its own child process. The workload seed reaches the
program only as ``--seed`` or as ``GeneratorConfig(seed=...)``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import LAYERS

GBDT_MIN = 0.80  # criterion 1: KPCA + GBDT CV accuracy at least this
LINEAR_MAX = 0.65  # criterion 1: linear models at most this
CLUSTER_MAX = 0.05  # criterion 2's null: every sweep cell's |ARI| and |AMI| at most this
SWEEP_CELLS = 20
SEEDS_PER_RUN = 3
# The discarded warm-up: a run-all small enough to take about two seconds.
WARMUP_CONFIG = {"n_case": 40, "n_control": 40, "n_stages": 3, "k_folds": 2, "restarts": 1}

Step = tuple[str, ...]  # (kind, args...): "cli", "seeds" or "probe", as child.py takes them


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_per_class: int
    steps: Callable[[int, int, Path, Path], list[Step]]  # (seed, n_per_class, workdir, config)
    check: Callable[[Path], tuple[list[str], dict]]  # workdir -> (gate failures, extras)
    # Iterations a run measures even when --seconds has passed. Two for the
    # shortest workload halve its burst noise and byte-compare every run.
    min_iterations: int = 1


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def _scale(n_per_class: int) -> dict:
    return {"n_case": n_per_class, "n_control": n_per_class}


def _cli(command: str, seed: int, workdir: Path, config: Path, *extra: str) -> Step:
    return ("cli", command, "--config", str(config), "--workdir", str(workdir), "--seed", str(seed), *extra)


def _pipeline_steps(seed, n_per_class, workdir, config):
    return [_cli("run-all", seed, workdir, write_config(config, _scale(n_per_class)))]


def warmup_steps(seed, n_per_class, workdir, config):
    return [_cli("run-all", seed, workdir, write_config(config, WARMUP_CONFIG))]


STAGES = ("synth", "cohort", "featurize", "reduce", "cluster-sweep")


def _stages_steps(seed, n_per_class, workdir, config):
    write_config(config, _scale(n_per_class))
    steps = []
    for stage in STAGES:
        extra = ("--out", str(workdir / "events.csv")) if stage == "synth" else ()
        steps.append(_cli(stage, seed, workdir, config, *extra))
    return steps


def seed_list(seed: int) -> list[int]:
    """The program seeds one seeds-400 run uses, derived from its workload seed."""
    return [SEEDS_PER_RUN * seed + i for i in range(SEEDS_PER_RUN)]


def _seeds_steps(seed, n_per_class, workdir, config):
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "accuracies.json"
    return [("seeds", str(n_per_class), str(out), *map(str, seed_list(seed)))]


def check_sweep(workdir: Path) -> tuple[list[str], dict]:
    """cluster_sweep.csv: 20 cells, all ok. Criterion 2's null (every |ARI| and
    |AMI| at most CLUSTER_MAX) is reported, not gated: it holds on seed 0,
    which the tests use, but not on every seed. At 400 patients 17 of seeds
    0-29 have a cell above 0.05, and at 2,000 patients seed 4 has ISOMAP/GMM
    at AMI 0.18; a gate would fail the program as it stands.
    """
    path = workdir / "cluster_sweep.csv"
    if not path.exists():
        return [f"{path.name} missing"], {}
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    bad = [] if len(rows) == SWEEP_CELLS else [f"{len(rows)} sweep cells, expected {SWEEP_CELLS}"]
    cell_scores = []
    for row in rows:
        if row["status"] != "ok":
            bad.append(f"sweep cell {row['reduction']}/{row['method']}: {row['status']}")
            continue
        cell_scores.append(max(abs(float(row["adjusted_rand"])), abs(float(row["adjusted_mutual_info"]))))
    return bad, {
        "sweep_max_abs_score": max(cell_scores, default=0.0),
        "sweep_cells_above_null": sum(score > CLUSTER_MAX for score in cell_scores),
    }


def _check_pipeline(workdir: Path) -> tuple[list[str], dict]:
    bad, extras = check_sweep(workdir)
    report_path, table_path = workdir / "run_report.json", workdir / "auc_table.csv"
    if not report_path.exists() or not table_path.exists():
        return bad + ["run_report.json or auc_table.csv missing"], extras
    headline = json.loads(report_path.read_text(encoding="utf-8"))["headline"]
    accuracy = headline["cv_mean_accuracy"]
    if headline["classifier"] != "GBDT" or accuracy < GBDT_MIN:
        bad.append(f"{headline['classifier']} CV accuracy {accuracy:.4f} < {GBDT_MIN}")
    with table_path.open(newline="", encoding="utf-8") as handle:
        table = {row["method"]: row for row in csv.DictReader(handle)}
    for method in ("LOGREG", "SVM_LINEAR"):
        for key in ("auc", "cv_mean_accuracy"):
            value = float(table[method][key])
            if value > LINEAR_MAX:
                bad.append(f"{method} {key} {value:.4f} > {LINEAR_MAX}")
    return bad, {"gbdt_cv_accuracy": accuracy, **extras}


def _check_stages(workdir: Path) -> tuple[list[str], dict]:
    return check_sweep(workdir)


def _check_seeds(workdir: Path) -> tuple[list[str], dict]:
    path = workdir / "accuracies.json"
    if not path.exists():
        return [f"{path.name} missing"], {}
    result = json.loads(path.read_text(encoding="utf-8"))
    gbdt = sum(result["gbdt"]) / len(result["gbdt"])
    logreg = sum(result["logreg"]) / len(result["logreg"])
    bad = []
    if gbdt < GBDT_MIN:
        bad.append(f"mean KPCA + GBDT CV accuracy {gbdt:.4f} < {GBDT_MIN}")
    if logreg > LINEAR_MAX:
        bad.append(f"mean raw-count LOGREG CV accuracy {logreg:.4f} > {LINEAR_MAX}")
    return bad, {"gbdt_cv_accuracy": gbdt, "raw_logreg_cv_accuracy": logreg}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-400",
            "The user's main command: one run-all at the default 400 patients, where "
            "GBDT/AdaBoost fits in evaluate dominate.",
            200,
            _pipeline_steps,
            _check_pipeline,
            min_iterations=2,
        ),
        Workload(
            "stages-2k",
            "Five stage processes at 2,000 patients: event CSV write/re-parse, per-stage "
            "import and the n^2-n^3 clustering sweep, with no classifier.",
            1000,
            _stages_steps,
            _check_stages,
        ),
        Workload(
            "seeds-400",
            "The paper's headline loop in process, no CLI or CSV: 3 seeds of KPCA + GBDT CV "
            "against raw-count LOGREG CV.",
            200,
            _seeds_steps,
            _check_seeds,
        ),
    )
}


# Per-layer metrics: (name, unit, end-to-end metrics it should move, workloads).
# "x.s" is a span's inclusive busy time, "x.self_s" that minus its child spans,
# "x.calls" its call count; the rest are exact work counts.
_TREE = "pipeline-400, seeds-400; no change on stages-2k"
_DATA = "stages-2k most; pipeline-400 and seeds-400 (generate only) a little"
_CLUSTER = "stages-2k; no change on seeds-400"
_REDUCE = "stages-2k most; pipeline-400, seeds-400 a little"
PER_LAYER = [
    *[(m, u, "wall_s, cpu_s", _TREE) for m, u in (
        ("tree.fit_tree.s", "s"), ("tree.fit_tree.self_s", "s"), ("tree.fit_tree.calls", "count"),
        ("tree.nodes", "count"), ("tree.predict_tree.s", "s"), ("classify.fit.GBDT.s", "s"),
        ("classify.fit.ADABOOST.s", "s"), ("classify.gbdt_stages", "count"))],
    ("classify.fit.LOGREG.s", "s", "wall_s", "seeds-400; about 0 on pipeline-400"),
    ("classify.fit.LOGREG.calls", "count", "wall_s", "seeds-400; about 0 on pipeline-400"),
    *[(m, "s", "wall_s", "pipeline-400") for m in (
        "classify.fit.SVM_RBF.s", "classify.fit.SVM_LINEAR.s", "classify.fit.TREE.s",
        "classify.predict_proba.s", "metrics.cross_val_proba.self_s", "metrics.roc_curve.s")],
    *[(m, u, "wall_s, peak_rss_mb", _DATA) for m, u in (
        ("synth.generate_events.s", "s"), ("synth.events_generated", "count"),
        ("events.read_events.s", "s"), ("events.write_events.s", "s"),
        ("events.rows_read", "count"), ("events.csv_bytes", "bytes"),
        ("cohort.build_timelines.s", "s"), ("cohort.label_timelines.s", "s"),
        ("featurize.featurize.s", "s"), ("featurize.read_matrix.s", "s"),
        ("featurize.write_matrix.s", "s"), ("featurize.cells", "count"))],
    *[(f"cluster.fit.{m}.s", "s", "wall_s, peak_rss_mb", _CLUSTER)
      for m in ("KMEANS", "GMM", "SPECTRAL", "AGGLOMERATIVE")],
    *[(f"cluster.iterations.{m}", "count", "wall_s, peak_rss_mb", _CLUSTER)
      for m in ("KMEANS", "GMM", "SPECTRAL", "AGGLOMERATIVE")],
    ("cluster.clustering_sweep.self_s", "s", "wall_s, peak_rss_mb", _CLUSTER),
    ("metrics.adjusted_mutual_info.s", "s", "wall_s, peak_rss_mb", _CLUSTER),
    *[(f"reduce.fit.{m}.s", "s", "wall_s, peak_rss_mb", _REDUCE)
      for m in ("PCA", "KPCA", "ICA", "ISOMAP")],
    *[(m, u, "wall_s, peak_rss_mb", _REDUCE) for m, u in (
        ("reduce.transform.s", "s"), ("linalg.symmetric_eig.s", "s"),
        ("linalg.symmetric_eig.calls", "count"), ("linalg.eig_n3", "count"),
        ("linalg.pairwise_sq_dists.s", "s"), ("linalg.sq_dist_pairs", "count"))],
    *[(f"cli.{stage}.s", "s", "wall_s, setup_s", "pipeline-400, stages-2k")
      for stage in (*STAGES, "train", "evaluate")],
    # Self time summed per layer: the blocking path, since the pipeline runs on one thread.
    *[(f"layer.{layer}.self_s", "s", "wall_s, cpu_s", "every workload the layer runs on")
      for layer in LAYERS],
    ("trace.outside_s", "s", "setup_s", "every workload: process start, import and argv, outside any span"),
    ("trace.wall_s", "s", "wall_s", "every workload: wall time of the traced iteration"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_s", "every workload"),
]
