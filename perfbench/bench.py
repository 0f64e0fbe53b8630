"""Run one workload of the benchmark and assemble its metrics.

Every workload step is a fresh child process started with ``PYTHONPATH=src``
and one BLAS thread. The parent waits with ``os.wait4``, so each child's CPU
time and peak RSS come from the kernel, not from the child.

A run is: one tiny run-all (discarded; it pays the byte-compilation and
OpenBLAS page-in that the first process after idle pays), then iterations of
the workload until ``seconds`` have passed and the workload's
``min_iterations`` are done. ``PROBES`` import-only processes for
``setup_s`` run before, between and after the iterations.
A traced run measures traced iterations the same way and then one untraced
iteration of the same seed, whose wall time gives the tracing overhead.
All iterations of one run use the same seed, so their work directories must
be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS
from workloads import PER_LAYER, WORKLOADS, Workload, warmup_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBES = 5
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children are killed past this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in BENCHMARK.json order."""
    return [(name, unit) for name, unit, _, _ in PER_LAYER]


def child_env() -> dict[str, str]:
    """One BLAS thread: on a shared 2-CPU host a second thread mostly adds variance."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Proc:
    code: int
    cpu_s: float
    rss_mib: float
    record: dict  # what child.py wrote: setup_s, host, trace, spans


def spawn(step: tuple[str, ...], traced: bool, log: Path, deadline: float) -> Proc:
    """Run one step to completion in a child; kill it if the run's deadline passes.

    An untraced CLI step is exactly the user's ``python -m refractory.cli``;
    every other step goes through child.py, which writes a record.
    """
    record_path = log.with_suffix(".record.json")
    record_path.unlink(missing_ok=True)
    t0 = time.monotonic()
    if step[0] == "cli" and not traced:
        argv = [sys.executable, "-m", "refractory.cli", *step[1:]]
    else:
        argv = [sys.executable, str(HERE / "child.py"), repr(t0), str(record_path), str(int(traced)), *step]
    with log.open("ab") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    record = json.loads(record_path.read_text(encoding="utf-8")) if record_path.exists() else {}
    return Proc(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, record)


@dataclass
class Iteration:
    wall_s: float
    procs: list[Proc]
    failures: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mib(self) -> float:
        return max(p.rss_mib for p in self.procs)


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode() + b"\0" + file.read_bytes() + b"\0")
    return h.hexdigest()


def run_iteration(
    workload: Workload, seed: int, n_per_class: int, workdir: Path, tag: str, traced: bool,
    deadline: float, steps_fn=None, gate: bool = True,
) -> Iteration:
    """One pass over the workload's steps (or steps_fn's) in a fresh work directory.

    Logs and the config file are named by tag, beside the work directory.
    With gate, the workload's correctness gates check the outputs.
    """
    work = workdir.parent
    config = work / f"{tag}.cfg"
    shutil.rmtree(workdir, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    steps = (steps_fn or workload.steps)(seed, n_per_class, workdir, config)
    procs: list[Proc] = []
    failures: list[str] = []
    start = time.perf_counter()
    for index, step in enumerate(steps):
        proc = spawn(step, traced, work / f"{tag}.{index}.log", deadline)
        procs.append(proc)
        if proc.code != 0:
            failures.append(f"{' '.join(step[:2])} exited with {proc.code} (see {tag}.{index}.log)")
            break
    wall = time.perf_counter() - start
    it = Iteration(wall, procs, failures)
    if not failures and gate:
        it.failures, it.extras = workload.check(workdir)
    it.digest = digest_dir(workdir) if workdir.exists() else ""
    shutil.rmtree(workdir, ignore_errors=True)
    return it


def merge_traces(records: list[dict]) -> dict:
    """Sum the per-process traces of one iteration."""
    merged = {"busy": {}, "self": {}, "calls": {}, "counts": {}, "outside_s": 0.0, "entered": set()}
    for record in records:
        trace = record.get("trace")
        if not trace:
            continue
        for key in ("busy", "self", "calls", "counts"):
            for name, value in trace[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["outside_s"] += trace["outside_s"]
        merged["entered"].update(trace["entered"])
    return merged


def layer_values(trace: dict) -> dict[str, float]:
    """Every per-layer metric but trace.wall_s and trace.overhead_s, from a merged trace."""
    values = {}
    for name, _, _, _ in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name.startswith("layer."):
            prefix = base.removeprefix("layer.") + "."
            values[name] = sum(v for span, v in trace["self"].items() if span.startswith(prefix))
        elif name == "trace.outside_s":
            values[name] = trace["outside_s"]
        elif name.startswith("trace."):
            continue
        elif suffix == "s":
            values[name] = trace["busy"].get(base, 0.0)
        elif suffix == "self_s":
            values[name] = trace["self"].get(base, 0.0)
        elif suffix == "calls":
            values[name] = trace["calls"].get(base, 0)
        else:
            values[name] = trace["counts"].get(name, 0)
    return values


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with at least ten samples beyond it."""
    p = int(100 * (1 - 10 / n)) if n else 0
    return p if p > 50 else None


def describe(name: str, unit: str, samples: list[float]) -> str:
    tail = tail_percentile(len(samples))
    text = f"{name}: median {statistics.median(samples):.6g} {unit} (n={len(samples)}"
    if tail is None:
        return text + ", too few samples for a tail percentile)"
    ordered = sorted(samples)
    return text + f", p{tail} {ordered[min(len(ordered) - 1, int(len(ordered) * tail / 100))]:.6g} {unit})"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one run of a workload, print it, and return the result object (see run.py)."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    # Artifacts name their work directory, so every iteration of a run uses the same one.
    workdir = OUT / "work" / tag

    def iterate(label: str, traced_iteration: bool, **kwargs) -> Iteration:
        return run_iteration(workload, seed, workload.n_per_class, workdir, f"{tag}-{label}",
                             traced_iteration, deadline, **kwargs)

    probes: list[Proc] = []

    def probe() -> None:
        if len(probes) < PROBES:
            probes.append(spawn(("probe",), False, OUT / "work" / f"{tag}-probe{len(probes)}.log", deadline))

    ops: list[tuple[str, list[str]]] = []  # (operation, its failures)
    warm = iterate("warmup", False, steps_fn=warmup_steps, gate=False)
    ops.append(("warm-up", warm.failures))
    # Probes are spread over the run: host speed drifts over seconds, and
    # back-to-back probes would all sample the same moment.
    probe()
    iterations: list[Iteration] = []
    measure_start = time.monotonic()
    while len(iterations) < workload.min_iterations or time.monotonic() - measure_start < seconds:
        iterations.append(iterate(str(len(iterations)), traced))
        probe()
    untraced = iterate("untraced", False) if traced else None
    while len(probes) < PROBES:
        probe()
    ops += [(f"import probe {i}", [f"exited with {p.code}"] if p.code else []) for i, p in enumerate(probes)]
    measured = iterations + ([untraced] if untraced else [])
    ops += [(f"iteration {i}", it.failures) for i, it in enumerate(measured)]
    if len(measured) > 1:
        digests = {it.digest for it in measured}
        ops.append(("byte comparison", [] if len(digests) == 1 else
                    [f"{len(measured)} runs of seed {seed} left {len(digests)} different work directories"]))

    samples = {
        "wall_s": [it.wall_s for it in iterations],
        "cpu_s": [it.cpu_s for it in iterations],
        "setup_s": [p.record["setup_s"] for p in probes if "setup_s" in p.record],
        "peak_rss_mb": [it.rss_mib for it in iterations],
    }
    lines = [f"workload {name}, seed {seed}, trace {int(traced)}: {len(iterations)} measured iteration(s)"]
    if traced:
        values, count_failures, more = traced_values(iterations, untraced, tag)
        ops.append(("count comparison", count_failures))
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in per_layer_metrics()}
        lines += more
    else:
        metrics = {key: {"value": statistics.median(samples[key]), "unit": unit} for key, unit in END_TO_END}
        lines += [describe(key, unit, samples[key]) for key, unit in END_TO_END]
    extras = {k: statistics.median(it.extras[k] for it in measured if k in it.extras)
              for k in sorted({k for it in measured for k in it.extras})}
    lines += [f"{key}: {value:.6g}" for key, value in extras.items()]
    failed = [(op, f) for op, failures in ops for f in failures]
    n_failed = sum(1 for _, failures in ops if failures)
    lines.append(f"failed {n_failed} of {len(ops)} operations")
    lines += [f"  FAILED {op}: {f}" for op, f in failed]
    print("\n".join(lines))

    result = {"correct": not n_failed, "attempted": len(ops), "failed": n_failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, trace=traced, samples=samples, extras=extras,
                  failures=[f"{op}: {f}" for op, f in failed], elapsed_s=time.monotonic() - start,
                  host=next((p.record["host"] for p in probes if "host" in p.record), {}))
    if traced:
        record["traces"] = [merge_traces([p.record for p in it.procs]) for it in iterations]
    write_json(OUT / "results" / f"{tag}.json", record)
    return result


def traced_values(iterations: list[Iteration], untraced: Iteration, tag: str):
    """Per-layer values (medians over traced iterations), failures of the
    exact-count check, and readable lines; writes the spans of the first
    traced iteration as JSON lines."""
    per_iter = [layer_values(merge_traces([p.record for p in it.procs])) for it in iterations]
    failures = [f"{key} differs between traced iterations: {sorted({v[key] for v in per_iter})}"
                for key, value in per_iter[0].items()
                if isinstance(value, int) and len({v[key] for v in per_iter}) != 1]
    values = {key: statistics.median(v[key] for v in per_iter) for key in per_iter[0]}
    values["trace.wall_s"] = statistics.median(it.wall_s for it in iterations)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced.wall_s
    lines = [
        f"tracing overhead: traced {values['trace.wall_s']:.3f} s - untraced {untraced.wall_s:.3f} s"
        f" = {values['trace.overhead_s']:.3f} s",
        "self time per layer along the blocking path (one thread, so every span blocks):",
    ]
    blocking = sorted(((values[f"layer.{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    blocking.append((values["trace.outside_s"], "outside any span (start-up, import, argv)"))
    lines += [f"  {value:9.3f} s  {layer}" for value, layer in blocking]
    spans_path = OUT / "results" / f"{tag}.spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as handle:
        for proc_index, proc in enumerate(iterations[0].procs):
            for span_id, parent, span, t0, t1 in proc.record.get("spans", []):
                handle.write(json.dumps({"proc": proc_index, "id": span_id, "parent": parent,
                                         "name": span, "start": t0, "end": t1}) + "\n")
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return values, failures, lines


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=sorted) + "\n", encoding="utf-8")
