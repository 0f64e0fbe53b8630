"""Reports built from benchmark runs.

    python3 perfbench/report.py summary [--seeds 1 2 3] [--workloads ...] [--trace] [--baseline FILE]
    python3 perfbench/report.py roadmap-table [--seed 0]
    python3 perfbench/report.py layers

``summary`` runs ``run.py`` in a fresh process once per workload and seed,
and prints every end-to-end metric by name and unit with its median,
quartile spread against the bound in BENCHMARK.json, sample count and
failed/attempted operations, plus the GBDT CV accuracy. ``--trace`` adds one
traced run per workload (tracing overhead and layer self times).
``--baseline`` compares the medians with an earlier summary's. The summary
is saved to ``.perfbench/results/summary.json``.

``roadmap-table`` regenerates the ROADMAP's per-layer baseline table
(400 -> 2,000 patients) from traced runs: pipeline-400, and stages-2k
followed by one GBDT and one SVM_RBF ``train`` on its embedding.

``layers`` prints which end-to-end metric and workload each per-layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench
from workloads import PER_LAYER, WORKLOADS, warmup_steps, write_config



def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run.py process; returns its result line and its full results file."""
    command = [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=bench.ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n{done.stderr}")
    path = bench.OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    return json.loads(lines[-1]), json.loads(path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> float:
    """Quartile distance over the median, as the acceptance check computes it."""
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(args) -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8")) if args.baseline else None
    saved: dict = {}
    worst_ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        attempted = failed = 0
        accuracy: list[float] = []
        for seed in args.seeds:
            result, full = run_once(workload, seed, seconds, False)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if "gbdt_cv_accuracy" in full["extras"]:
                accuracy.append(full["extras"]["gbdt_cv_accuracy"])
            for failure in full["failures"]:
                print(f"  seed {seed}: FAILED {failure}")
        print(f"== {workload}: {len(args.seeds)} runs, failed {failed} of {attempted} operations")
        saved[workload] = {"values": values, "attempted": attempted, "failed": failed}
        for name, samples in values.items():
            unit = units[name]
            s, bound = spread(samples), bounds[name]
            status = "steady" if s <= bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if name != "setup_s" and s > bound:
                worst_ok = False
            line = (f"  {bench.describe(name, unit, samples)}; quartile spread {s:.3f} of median"
                    f" (bound {bound}, {status})")
            if baseline and workload in baseline:
                before = statistics.median(baseline[workload]["values"][name])
                change = statistics.median(samples) / before - 1
                verdict = "ok" if change <= bound else "WORSE THAN BOUND"
                line += f"; vs baseline {change:+.3f} ({verdict})"
                worst_ok = worst_ok and change <= bound
            print(line)
        if accuracy:
            print(f"  gbdt_cv_accuracy: median {statistics.median(accuracy):.6f} (n={len(accuracy)})")
        else:
            print("  gbdt_cv_accuracy: not measured (this workload runs no classifier)")
        if args.trace:
            _, full = run_once(workload, args.seeds[0], seconds, True)
            metrics = full["metrics"]
            print(f"  traced seed {args.seeds[0]}: overhead {metrics['trace.overhead_s']['value']:.3f} s on "
                  f"{metrics['trace.wall_s']['value']:.3f} s traced wall")
    path = bench.OUT / "results" / "summary.json"
    bench.write_json(path, saved)
    print(f"summary saved to {path.relative_to(bench.ROOT)}")
    return 0 if worst_ok else 1


def _fits_2k_steps(seed, n_per_class, workdir, config):
    steps = WORKLOADS["stages-2k"].steps(seed, n_per_class, workdir, config)
    for classifier in ("GBDT", "SVM_RBF"):
        path = write_config(config.with_name(f"{config.stem}-{classifier}.cfg"),
                            {"n_case": n_per_class, "n_control": n_per_class, "classifier": classifier})
        steps.append(("cli", "train", "--config", str(path), "--workdir", str(workdir), "--seed", str(seed)))
    return steps


TABLE_ROWS = (
    ("`generate_events`", "synth.generate_events", "synth.events_generated"),
    ("`read_events`", "events.read_events", None),
    ("GBDT fit", "classify.fit.GBDT", None),
    ("SVM_RBF fit", "classify.fit.SVM_RBF", None),
    ("AGGLOMERATIVE", "cluster.fit.AGGLOMERATIVE", None),
    ("ISOMAP fit", "reduce.fit.ISOMAP", None),
    ("SPECTRAL", "cluster.fit.SPECTRAL", None),
)


def roadmap_table(args) -> int:
    deadline = time.monotonic() + 900
    traces = {}
    for label, workload, steps_fn in (("400 patients", WORKLOADS["pipeline-400"], None),
                                      ("2,000 patients", WORKLOADS["stages-2k"], _fits_2k_steps)):
        workdir = bench.OUT / "work" / f"table-{workload.name}"
        bench.run_iteration(workload, args.seed, 0, workdir, "table-warmup", False, deadline,
                            steps_fn=warmup_steps, gate=False)
        it = bench.run_iteration(workload, args.seed, workload.n_per_class, workdir, f"table-{workload.name}",
                                 True, deadline, steps_fn=steps_fn)
        for failure in it.failures:
            print(f"FAILED {label}: {failure}")
        traces[label] = bench.merge_traces([p.record for p in it.procs])
    print(f"Per-call times from traced runs (seed {args.seed}, one BLAS thread):\n")
    print("| layer | " + " | ".join(traces) + " |")
    print("|---|" + "---|" * len(traces))
    for label, span, count in TABLE_ROWS:
        cells = []
        for trace in traces.values():
            calls = trace["calls"].get(span, 0)
            if not calls:
                cells.append("not run")
                continue
            cell = f"{trace['busy'][span] / calls:.2f} s"
            if count:
                cell += f" ({trace['counts'][count] / calls / 1000:.0f}k events)"
            cells.append(cell + ("" if calls == 1 else f" x {calls}"))
        print(f"| {label} | " + " | ".join(cells) + " |")
    bench.write_json(bench.OUT / "results" / "roadmap-table.json", traces)
    return 0


def layers(args) -> int:
    print("| per-layer metric | unit | should move | on |")
    print("|---|---|---|---|")
    for name, unit, moves, on in PER_LAYER:
        print(f"| `{name}` | {unit} | {moves} | {on} |")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--baseline", help="an earlier summary.json to compare medians against")
    p.set_defaults(run=summary)
    p = sub.add_parser("roadmap-table")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=roadmap_table)
    sub.add_parser("layers").set_defaults(run=layers)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
