"""Self-test of the benchmark itself, on a tiny config (about a minute).

    python3 perfbench/selftest.py

Runs every workload twice, traced, at 40 patients per class with the same
seed, and fails (exit 1) unless

- BENCHMARK.json names exactly the workloads and metrics this code reports;
- every binding in REQUIRED_BINDINGS was installed and entered, so a
  refactor that moves a call cannot silently zero a layer metric;
- every per-layer metric except the trace totals is non-zero on at least one
  workload;
- every count (call counts and work counts) is identical across the two runs,
  and so are the work directories.
"""

from __future__ import annotations

import json
import sys
import time

import bench
from workloads import PER_LAYER, WORKLOADS

TINY_PER_CLASS = 40
SEED = 3

# Names bound by `from ... import` in the module that calls them, plus the
# entry points the per-layer metrics hang on.
REQUIRED_BINDINGS = (
    "cli.featurize",
    "cli.build_vocabulary",
    "cli.read_matrix",
    "cli.write_matrix",
    "reduce.symmetric_eig",
    "reduce.pairwise_sq_dists",
    "cluster.symmetric_eig",
    "cluster.pairwise_sq_dists",
    "cluster.adjusted_rand",
    "cluster.adjusted_mutual_info",
    "featurize.pre_index_events",
    "cli.cmd_run_all",
    "cli.cmd_synth",
    "cli.cmd_cluster_sweep",
    "synth.generate_events",
    "events.read_events",
    "events.write_events",
    "cohort.build_timelines",
    "cohort.label_timelines",
    "reduce.fit_reducer",
    "reduce.transform",
    "cluster.clustering_sweep",
    "cluster.fit_clusters",
    "classify.fit_classifier",
    "classify.predict_proba",
    "classify.gbdt_fit",
    "tree.fit_tree",
    "tree.predict_tree",
    "metrics.kfold_cv",
    "metrics.cross_val_proba",
    "metrics.roc_curve",
)


def check_benchmark_json(problems: list[str]) -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    if workloads != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(bench.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from bench.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != bench.per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from bench.per_layer_metrics()")


def main() -> int:
    problems: list[str] = []
    check_benchmark_json(problems)
    deadline = time.monotonic() + 600
    entered, installed, fed = set(), set(), set()
    for name, workload in WORKLOADS.items():
        runs = []
        for i in range(2):
            it = bench.run_iteration(workload, SEED, TINY_PER_CLASS, bench.OUT / "work" / f"selftest-{name}",
                                     f"selftest-{name}-{i}", True, deadline, gate=False)
            problems += [f"{name} run {i}: {f}" for f in it.failures]
            trace = bench.merge_traces([p.record for p in it.procs])
            installed.update(b for p in it.procs for b in p.record.get("trace", {}).get("bindings", []))
            entered.update(trace["entered"])
            runs.append((it, trace))
        (first, a), (second, b) = runs
        for key in ("calls", "counts"):
            if a[key] != b[key]:
                diff = sorted(k for k in a[key].keys() | b[key].keys() if a[key].get(k) != b[key].get(k))
                problems.append(f"{name}: {key} differ between two runs of one seed: {diff}")
        if first.digest != second.digest:
            problems.append(f"{name}: two runs of one seed left different work directories")
        values = bench.layer_values(a)
        fed.update(metric for metric, value in values.items() if value)
        print(f"{name}: {sum(a['calls'].values())} calls, counts {dict(sorted(a['counts'].items()))}")
    problems += [f"binding {b} was not installed" for b in REQUIRED_BINDINGS if b not in installed]
    problems += [f"binding {b} was never entered" for b in REQUIRED_BINDINGS if b in installed and b not in entered]
    problems += [f"per-layer metric {m} is zero on every workload"
                 for m, _, _, _ in PER_LAYER if m not in fed and not m.startswith("trace.")]
    idle = sorted(b for b in installed - entered if not b.startswith("refractory."))
    print(f"{len(installed)} bindings installed, {len(entered)} entered; never entered, "
          f"besides the package namespace: {', '.join(idle)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
