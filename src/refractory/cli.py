"""Pipeline orchestration for the refractory package.

Subcommands chain the stages: synth -> cohort -> featurize -> reduce ->
cluster-sweep / train -> evaluate, with run-all driving the whole sequence
from one seed. Configuration is a flat ``key = value`` text file; --seed and
--workdir flags override file values. Exit codes: 0 success, 1 runtime or
validation failure, 2 usage error.

Every artifact is byte-deterministic given the config. Stage timings are
printed to stdout only and never written into artifacts, so rerunning the
same config reproduces every output file exactly.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import classify
from . import cluster as cluster_mod
from . import cohort as cohort_mod
from . import events as events_mod
from . import metrics
from . import reduce as reduce_mod
from . import synth
from .errors import DependencyError, ParseError
from .tables import format_row, json_text, write_table, write_text

# The package re-exports the featurize *function*, which shadows the module
# name on the package object, so pull the callables in directly.
from .featurize import build_vocabulary, featurize, read_matrix, write_matrix

EVENTS_FILE = "events.csv"
COHORT_FILE = "cohort.csv"
FEATURES_FILE = "features.csv"
EMBEDDING_FILE = "embedding.csv"
SWEEP_FILE = "cluster_sweep.csv"
MODEL_FILE = "model_summary.json"
ALPHA_SWEEP_FILE = "sweep_alpha.csv"
DEPTH_SWEEP_FILE = "sweep_depth.csv"
GAMMA_SWEEP_FILE = "sweep_gamma.csv"
AUC_TABLE_FILE = "auc_table.csv"
CV_REPORT_FILE = "cv_report.json"
ROC_PLOT_FILE = "roc_curves.svg"
RUN_REPORT_FILE = "run_report.json"

NONE_REDUCER = "NONE"


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob the subcommands read, with desk-scale defaults."""

    seed: int = 0
    workdir: str = "."
    # generator
    n_case: int = 200
    n_control: int = 200
    n_codes: int = 500
    n_signal_codes: int = 20
    noise_scale: float = 0.5
    shell_radii: tuple[float, float] = (1.0, 5.0)
    # cohort
    n_per_class: int | None = None  # None: min(n_case, n_control)
    # reducer
    reduce_method: str = "KPCA"
    n_components: int = 20
    kernel: str = reduce_mod.RBF
    gamma: float | None = None  # None: derived from feature variance
    n_neighbors: int = 10
    # clustering
    n_clusters: int = 2
    restarts: int = 10
    # classifier
    classifier: str = classify.GBDT
    learning_rate: float = 0.25
    max_depth: int = 5
    n_stages: int = 100
    l2: float = 1.0
    max_iter: int = 2000
    svm_reg: float = 0.01
    classifier_gamma: float | None = None
    # evaluation and sweeps
    k_folds: int = 7
    estimators: tuple[str, ...] = classify.CLASSIFIERS
    alpha_grid: tuple[float, ...] = (0.01, 0.05, 0.25, 1.0, 2.0)
    depth_grid: tuple[int, ...] = (1, 2, 3, 5, 7)
    gamma_grid: tuple[float, ...] = ()

    @property
    def resolved_n_per_class(self) -> int:
        return self.n_per_class if self.n_per_class is not None else min(self.n_case, self.n_control)


def _items(cast):
    """Parser of a comma-separated list; blank items are skipped."""
    return lambda text: tuple(cast(v.strip()) for v in text.split(",") if v.strip())


def _optional(cast):
    """Parser that reads '' and 'none' as None."""
    return lambda text: None if text.lower() in ("", "none") else cast(text)


def _pair(text: str) -> tuple[float, float]:
    values = _items(float)(text)
    if len(values) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return values  # type: ignore[return-value]


# One parser per PipelineConfig field annotation.
_PARSE_ANNOTATION = {
    "int": int,
    "str": str,
    "float": float,
    "int | None": _optional(int),
    "float | None": _optional(float),
    "tuple[float, float]": _pair,
    "tuple[int, ...]": _items(int),
    "tuple[float, ...]": _items(float),
    "tuple[str, ...]": _items(str),
}

_PARSERS = {f.name: _PARSE_ANNOTATION[f.type] for f in fields(PipelineConfig)}


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value file; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def build_config(file_values: dict[str, str], overrides: dict | None = None) -> PipelineConfig:
    parsed = {}
    for key, raw in file_values.items():
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            parsed[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            parsed[key] = value
    cfg = replace(PipelineConfig(), **parsed)
    if cfg.reduce_method not in (NONE_REDUCER,) + reduce_mod.REDUCERS:
        raise ValueError(f"unknown reduce_method {cfg.reduce_method!r}")
    for name in cfg.estimators:
        if name not in classify.CLASSIFIERS:
            raise ValueError(f"unknown estimator {name!r}")
    # Build what the later stages build, so a bad value fails before any stage runs.
    _classifier_spec(cfg)
    if cfg.reduce_method == "KPCA":
        reduce_mod.KernelSpec(cfg.kernel, cfg.gamma)
    cluster_mod.ClusterConfig(cluster_mod.KMEANS, cfg.n_clusters, cfg.seed, cfg.restarts)
    if cfg.n_neighbors < 1:
        raise ValueError("n_neighbors must be positive")
    n_patients = 2 * cfg.resolved_n_per_class
    if cfg.n_clusters > n_patients:
        raise ValueError(f"n_clusters={cfg.n_clusters} exceeds the {n_patients} patients")
    most = n_patients - 1 if cfg.reduce_method in ("KPCA", "ISOMAP") else n_patients
    if cfg.reduce_method != NONE_REDUCER and cfg.n_components > most:
        raise ValueError(f"n_components={cfg.n_components} exceeds {most} ({cfg.reduce_method}, {n_patients} patients)")
    if not 2 <= cfg.k_folds <= cfg.resolved_n_per_class:
        raise ValueError(f"k_folds={cfg.k_folds} must be 2 to {cfg.resolved_n_per_class} (per-class count)")
    return cfg


def _workpath(cfg: PipelineConfig, name: str) -> Path:
    return Path(cfg.workdir) / name


def _require(cfg: PipelineConfig, name: str, producer: str) -> Path:
    path = _workpath(cfg, name)
    if not path.exists():
        raise DependencyError(f"{path} not found; run the {producer} subcommand first")
    return path


def _classifier_spec(cfg: PipelineConfig, **over) -> classify.ClassifierSpec:
    spec = classify.ClassifierSpec(
        method=cfg.classifier,
        learning_rate=cfg.learning_rate,
        max_depth=cfg.max_depth,
        n_stages=cfg.n_stages,
        l2=cfg.l2,
        max_iter=cfg.max_iter,
        svm_reg=cfg.svm_reg,
        gamma=cfg.classifier_gamma,
        seed=cfg.seed,
    )
    return replace(spec, **over) if over else spec


# ---------------------------------------------------------------------------
# Stage commands


def cmd_synth(cfg: PipelineConfig, out: Path) -> dict:
    gen = synth.GeneratorConfig(
        n_case=cfg.n_case,
        n_control=cfg.n_control,
        n_codes=cfg.n_codes,
        n_signal_codes=cfg.n_signal_codes,
        seed=cfg.seed,
        noise_scale=cfg.noise_scale,
        shell_radii=cfg.shell_radii,
    )
    table = synth.generate_events(gen)
    events_mod.write_events(table, out)
    n_patients = len(table.patient_ids())
    print(f"wrote {out}: {len(table)} events for {n_patients} patients")
    return {"events": len(table), "patients": n_patients}


def cmd_cohort(cfg: PipelineConfig) -> dict:
    path = _require(cfg, EVENTS_FILE, "synth")
    table = events_mod.read_events(path)
    labeled = cohort_mod.label_timelines(cohort_mod.build_timelines(table))
    sampled = cohort_mod.sample_cohort(labeled, cfg.resolved_n_per_class, cfg.seed)
    out = _workpath(cfg, COHORT_FILE)
    cohort_mod.write_cohort(sampled, out)
    print(f"wrote {out}: {len(sampled.patients)} patients ({cfg.resolved_n_per_class} per class)")
    return {"patients": len(sampled.patients)}


def cmd_featurize(cfg: PipelineConfig) -> dict:
    events_path = _require(cfg, EVENTS_FILE, "synth")
    cohort_path = _require(cfg, COHORT_FILE, "cohort")
    table = events_mod.read_events(events_path)
    sampled = cohort_mod.read_cohort(cohort_path)
    timelines = {t.patient_id: t for t in cohort_mod.build_timelines(table)}
    window_events = []
    for patient in sampled.patients:
        timeline = timelines.get(patient.patient_id)
        if timeline is None:
            raise ValueError(f"no events for cohort patient {patient.patient_id!r}")
        window_events.append(cohort_mod.pre_index_events(timeline, patient.index_day))
    vocabulary = build_vocabulary(window_events)
    matrix = featurize(sampled, timelines, vocabulary)
    out = _workpath(cfg, FEATURES_FILE)
    write_matrix(matrix, out)
    print(f"wrote {out}: {matrix.values.shape[0]} x {matrix.values.shape[1]} counts")
    return {"rows": matrix.values.shape[0], "columns": matrix.values.shape[1]}


def cmd_reduce(cfg: PipelineConfig) -> dict:
    path = _require(cfg, FEATURES_FILE, "featurize")
    matrix = read_matrix(path)
    values = matrix.values.astype(float)
    if cfg.reduce_method != NONE_REDUCER:
        kernel = None
        if cfg.reduce_method == "KPCA":
            kernel = reduce_mod.KernelSpec(cfg.kernel, cfg.gamma)
        model = reduce_mod.fit_reducer(
            cfg.reduce_method,
            values,
            cfg.n_components,
            kernel=kernel,
            n_neighbors=cfg.n_neighbors,
            seed=cfg.seed,
        )
        values = reduce_mod.transform(model, values).values
    embedding = reduce_mod.Embedding(values, cfg.reduce_method, list(matrix.row_ids))
    out = _workpath(cfg, EMBEDDING_FILE)
    reduce_mod.write_embedding(embedding, out)
    n, k = embedding.values.shape
    print(f"wrote {out}: {n} x {k} {cfg.reduce_method} embedding")
    return {"rows": n, "components": k}


def cmd_cluster_sweep(cfg: PipelineConfig) -> dict:
    path = _require(cfg, FEATURES_FILE, "featurize")
    matrix = read_matrix(path)
    if matrix.labels is None:
        raise ValueError("features file has no label column; rerun the featurize subcommand")
    y = np.asarray([1 if label == cohort_mod.CASE else 0 for label in matrix.labels])
    cells = cluster_mod.clustering_sweep(
        matrix.values.astype(float),
        y,
        k=cfg.n_components,
        n_clusters=cfg.n_clusters,
        n_neighbors=cfg.n_neighbors,
        seed=cfg.seed,
        restarts=cfg.restarts,
    )
    out = _workpath(cfg, SWEEP_FILE)
    cluster_mod.write_sweep(cells, out)
    failed = sum(1 for c in cells if c.status != "ok")
    print(f"wrote {out}: {len(cells)} cells" + (f" ({failed} failed)" if failed else ""))
    return {"cells": len(cells), "failed": failed}


def _load_xy(cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Embedding rows joined with cohort labels, as (X, y in {0,1})."""
    embedding_path = _require(cfg, EMBEDDING_FILE, "reduce")
    cohort_path = _require(cfg, COHORT_FILE, "cohort")
    embedding = reduce_mod.read_embedding(embedding_path, cfg.reduce_method)
    sampled = cohort_mod.read_cohort(cohort_path)
    label_of = {p.patient_id: p.label for p in sampled.patients}
    try:
        y = np.asarray([1 if label_of[pid] == cohort_mod.CASE else 0 for pid in embedding.row_ids])
    except KeyError as exc:
        raise ValueError(f"embedding row {exc} is not in the cohort") from None
    return embedding.values, y


def cmd_train(cfg: PipelineConfig, sweep: bool = False) -> dict:
    X, y = _load_xy(cfg)
    if not sweep:
        spec = _classifier_spec(cfg)
        model = classify.fit_classifier(spec, X, y)
        summary = classify.model_summary(model)
        out = _workpath(cfg, MODEL_FILE)
        classify.write_model_summary(summary, out)
        print(f"wrote {out}: {spec.method} on {X.shape[0]} x {X.shape[1]}")
        return {"method": spec.method}

    if not cfg.alpha_grid or not cfg.depth_grid:
        raise ValueError("alpha_grid and depth_grid must be non-empty for train --sweep")

    gbdt = _classifier_spec(cfg, method=classify.GBDT)
    _cv_sweep(cfg, y, "alpha", ALPHA_SWEEP_FILE, cfg.alpha_grid, lambda a: (X, replace(gbdt, learning_rate=a)))
    _cv_sweep(cfg, y, "depth", DEPTH_SWEEP_FILE, cfg.depth_grid, lambda d: (X, replace(gbdt, max_depth=d)))
    # The kernel-width sweep refits the reducer per value, so it is opt-in.
    if cfg.gamma_grid:
        matrix = read_matrix(_require(cfg, FEATURES_FILE, "featurize"))

        def kpca(gamma: float) -> tuple[np.ndarray, classify.ClassifierSpec]:
            kernel = reduce_mod.KernelSpec(reduce_mod.RBF, gamma)
            model = reduce_mod.fit_reducer("KPCA", matrix.values, cfg.n_components, kernel=kernel, seed=cfg.seed)
            return reduce_mod.transform(model, matrix.values).values, gbdt

        _cv_sweep(cfg, y, "gamma", GAMMA_SWEEP_FILE, cfg.gamma_grid, kpca)
    return {"alpha_rows": len(cfg.alpha_grid), "depth_rows": len(cfg.depth_grid)}


def _cv_sweep(cfg: PipelineConfig, y: np.ndarray, name: str, file: str, grid, case) -> None:
    """Write one (value, mean, std) CV accuracy row per value; case(value) gives its (X, spec)."""
    rows = []
    for value in grid:
        X, spec = case(value)
        report = metrics.kfold_cv(X, y, spec, k=cfg.k_folds, seed=cfg.seed)
        rows.append(format_row((value, report.mean, report.std)))
        print(f"{name}={value:g}: accuracy {report.mean:.4f} +/- {report.std:.4f}")
    write_table(_workpath(cfg, file), f"{name},mean_accuracy,std_accuracy", rows)


def _evaluated(cfg: PipelineConfig) -> tuple[str, ...]:
    """The estimators evaluate cross-validates: the configured ones plus the classifier."""
    return cfg.estimators + ((cfg.classifier,) if cfg.classifier not in cfg.estimators else ())


def cmd_evaluate(cfg: PipelineConfig) -> dict:
    X, y = _load_xy(cfg)
    curves: list[tuple[str, metrics.RocCurve]] = []
    table_rows = []
    for method in _evaluated(cfg):
        fit_predict = metrics.classifier_fit_predict(_classifier_spec(cfg, method=method))
        report, oof = metrics.cross_val_proba(X, y, fit_predict, k=cfg.k_folds, seed=cfg.seed)
        curve = metrics.roc_curve(oof, y)
        area = metrics.auc(curve)
        metrics.write_roc(curve, _workpath(cfg, f"roc_{method}.csv"))
        curves.append((method, curve))
        table_rows.append(format_row((method, area, report.mean)))
        if method == cfg.classifier:
            metrics.write_cv_report(report, _workpath(cfg, CV_REPORT_FILE))
            headline = {
                "classifier": method,
                "cv_mean_accuracy": report.mean,
                "cv_std_accuracy": report.std,
                "auc": area,
            }
        print(f"{method}: AUC {area:.4f}, CV accuracy {report.mean:.4f} +/- {report.std:.4f}")
    write_table(_workpath(cfg, AUC_TABLE_FILE), "method,auc,cv_mean_accuracy", table_rows)
    write_text(_workpath(cfg, ROC_PLOT_FILE), _roc_plot_svg(curves))
    return headline


# ---------------------------------------------------------------------------
# SVG emission (no plotting dependency)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


def _roc_plot_svg(curves: list[tuple[str, metrics.RocCurve]]) -> str:
    """One ROC polyline per estimator on a fixed 800x600 canvas."""
    x0, y0, x1, y1 = 70.0, 20.0, 610.0, 560.0

    def px(v: float) -> float:
        return x0 + v * (x1 - x0)

    def py(v: float) -> float:
        return y1 - v * (y1 - y0)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600" width="800" height="600">',
        '<rect x="0" y="0" width="800" height="600" fill="white"/>',
        f'<rect x="{x0:.0f}" y="{y0:.0f}" width="{x1 - x0:.0f}" height="{y1 - y0:.0f}"'
        ' fill="none" stroke="black"/>',
        f'<line x1="{px(0):.1f}" y1="{py(0):.1f}" x2="{px(1):.1f}" y2="{py(1):.1f}"'
        ' stroke="#999999" stroke-dasharray="6,4"/>',
    ]
    for i in range(11):
        v = i / 10.0
        parts.append(
            f'<line x1="{px(v):.1f}" y1="{y1:.1f}" x2="{px(v):.1f}" y2="{y1 + 6:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(v):.1f}" y="{y1 + 22:.1f}" font-size="12" text-anchor="middle">{v:.1f}</text>'
        )
        parts.append(
            f'<line x1="{x0 - 6:.1f}" y1="{py(v):.1f}" x2="{x0:.1f}" y2="{py(v):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 10:.1f}" y="{py(v) + 4:.1f}" font-size="12" text-anchor="end">{v:.1f}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="595" font-size="14" text-anchor="middle">false positive rate</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" font-size="14" text-anchor="middle"'
        f' transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">true positive rate</text>'
    )
    for i, (name, curve) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{px(f):.2f},{py(t):.2f}" for f, t in zip(curve.fpr, curve.tpr)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = 40 + 22 * i
        parts.append(
            f'<line x1="625" y1="{ly - 4}" x2="655" y2="{ly - 4}" stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="662" y="{ly}" font-size="13">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# run-all


@dataclass
class RunReport:
    """Everything one pipeline run produced.

    Timings are kept in memory and printed, never serialized: the on-disk
    report must be byte-identical across reruns of the same config.
    """

    config: dict
    stages: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    headline: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json_text({key: getattr(self, key) for key in ("config", "stages", "artifacts", "headline")})


def cmd_run_all(cfg: PipelineConfig) -> RunReport:
    report = RunReport(config=asdict(cfg))
    stages = [
        ("synth", lambda: cmd_synth(cfg, _workpath(cfg, EVENTS_FILE)), [EVENTS_FILE]),
        ("cohort", lambda: cmd_cohort(cfg), [COHORT_FILE]),
        ("featurize", lambda: cmd_featurize(cfg), [FEATURES_FILE]),
        ("reduce", lambda: cmd_reduce(cfg), [EMBEDDING_FILE]),
        ("cluster-sweep", lambda: cmd_cluster_sweep(cfg), [SWEEP_FILE]),
        ("train", lambda: cmd_train(cfg), [MODEL_FILE]),
        (
            "evaluate",
            lambda: cmd_evaluate(cfg),
            [f"roc_{m}.csv" for m in _evaluated(cfg)]
            + [AUC_TABLE_FILE, CV_REPORT_FILE, ROC_PLOT_FILE],
        ),
    ]
    for name, run, artifacts in stages:
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:
            raise RuntimeError(f"stage {name} failed: {exc}") from exc
        report.timings[name] = time.perf_counter() - start
        report.stages.append(name)
        report.artifacts.extend(artifacts)
        if name == "evaluate":
            report.headline = result
        print(f"[{name}] {report.timings[name]:.2f}s")
    out = _workpath(cfg, RUN_REPORT_FILE)
    write_text(out, report.to_json())
    print(f"wrote {out}")
    return report


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refractory",
        description="Synthetic refractory-cohort pipeline: generation, cohorting, "
        "featurization, reduction, clustering, classification, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--workdir", help="artifact directory (default '.')")
        return p

    synth_p = add("synth", "generate a synthetic event stream")
    synth_p.add_argument("--out", required=True, help="destination events CSV")
    add("cohort", "index, label, and subsample patients from events.csv")
    add("featurize", "build the pre-index count matrix for the cohort")
    add("reduce", "fit the configured reducer and write the embedding")
    add("cluster-sweep", "run the reduction x clustering grid against labels")
    train_p = add("train", "fit the configured classifier on the embedding")
    train_p.add_argument(
        "--sweep",
        action="store_true",
        help="emit CV accuracy tables over the alpha and depth grids instead",
    )
    add("evaluate", "cross-validate every estimator; write ROC/AUC/CV artifacts")
    add("run-all", "execute the full chain and write a run report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = load_config(args.config) if args.config else {}
        cfg = build_config(file_values, {"seed": args.seed, "workdir": args.workdir})
        Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            cmd_synth(cfg, Path(args.out))
        elif args.command == "cohort":
            cmd_cohort(cfg)
        elif args.command == "featurize":
            cmd_featurize(cfg)
        elif args.command == "reduce":
            cmd_reduce(cfg)
        elif args.command == "cluster-sweep":
            cmd_cluster_sweep(cfg)
        elif args.command == "train":
            cmd_train(cfg, sweep=args.sweep)
        elif args.command == "evaluate":
            cmd_evaluate(cfg)
        else:
            cmd_run_all(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
