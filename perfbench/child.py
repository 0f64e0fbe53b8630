"""One workload process: time the package import, then run one step.

Usage: python child.py T0 RECORD TRACE KIND [ARGS...]

T0 is the parent's ``time.monotonic()`` just before it started this process
(the monotonic clock is system-wide on Linux), so ``setup_s`` runs from
process start to ``import refractory`` returned. RECORD receives a JSON
object with the setup time, the host record for ``probe`` steps, and the
layer trace when TRACE is 1. KIND is one of

- ``probe``: import the package and exit;
- ``cli ARGV...``: ``refractory.cli.main(ARGV)``, as ``python -m refractory.cli``
  does (untraced CLI steps run that command itself);
- ``seeds N_PER_CLASS OUT SEED...``: the criterion-1 experiment in process,
  writing the per-seed accuracies to OUT.
"""

import sys
import time

T0 = float(sys.argv[1])

import refractory  # noqa: E402  (the import is what setup_s times)

SETUP_S = time.monotonic() - T0

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def host_record() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def seeds_experiment(n_per_class: int, out: Path, seeds: list[int]) -> None:
    """KPCA(20, RBF) + GBDT CV against raw-count LOGREG CV, per seed.

    Calls go through the module attributes so the layer wrappers see them.
    """
    mod = {m: importlib.import_module(f"refractory.{m}") for m in
           ("synth", "cohort", "featurize", "reduce", "classify", "metrics")}
    synth, cohort, feat = mod["synth"], mod["cohort"], mod["featurize"]
    reduce, classify, metrics = mod["reduce"], mod["classify"], mod["metrics"]
    result = {"seeds": seeds, "gbdt": [], "logreg": []}
    for seed in seeds:
        gen = synth.GeneratorConfig(n_case=n_per_class, n_control=n_per_class, seed=seed)
        timelines = cohort.build_timelines(synth.generate_events(gen))
        sampled = cohort.sample_cohort(cohort.label_timelines(timelines), n_per_class, seed=seed)
        by_id = {t.patient_id: t for t in timelines}
        windows = [cohort.pre_index_events(by_id[p.patient_id], p.index_day) for p in sampled.patients]
        matrix = feat.featurize(sampled, by_id, feat.build_vocabulary(windows))
        y = np.array([1 if label == cohort.CASE else 0 for label in matrix.labels])
        model = reduce.fit_reducer("KPCA", matrix.values, 20, kernel=reduce.KernelSpec(reduce.RBF))
        emb = reduce.transform(model, matrix.values).values
        gbdt = classify.ClassifierSpec(method=classify.GBDT)
        logreg = classify.ClassifierSpec(method=classify.LOGREG)
        result["gbdt"].append(metrics.kfold_cv(emb, y, gbdt, k=7, seed=seed).mean)
        result["logreg"].append(metrics.kfold_cv(matrix.values, y, logreg, k=7, seed=seed).mean)
    out.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    record_path, traced, kind, args = Path(sys.argv[2]), sys.argv[3] == "1", sys.argv[4], sys.argv[5:]
    record: dict = {"setup_s": SETUP_S}
    recorder = None
    if traced:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    code = 0
    try:
        if kind == "probe":
            record["host"] = host_record()
        elif kind == "cli":
            code = importlib.import_module("refractory.cli").main(args)
        elif kind == "seeds":
            seeds_experiment(int(args[0]), Path(args[1]), [int(s) for s in args[2:]])
        else:
            raise ValueError(f"unknown step kind {kind!r}")
    finally:
        if recorder is not None:
            record["trace"] = recorder.summary(time.monotonic() - T0)
            record["spans"] = recorder.spans
        record_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
