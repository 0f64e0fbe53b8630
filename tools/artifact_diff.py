"""Byte-compare the artifacts of two source trees of this package.

Usage: python tools/artifact_diff.py PARENT_TREE CHANGE_TREE

Each tree is run from its own ``src`` (PYTHONPATH=<tree>/src) with one BLAS
thread, in the same absolute work directory, since ``run_report.json``
echoes the workdir. The commands are:

- ``run-all --seed 0`` and ``run-all --seed 1`` at the default config;
- ``run-all --seed 0`` with ``classifier = estimators = TREE``, and again
  with ``classifier = estimators = ADABOOST``, each in its own work
  directory, so the exact trees' ``model_summary.json`` (their gains are the
  feature importances) is compared as well as GBDT's;
- ``train --sweep`` with ``gamma_grid = 0.01`` in the seed-0 directory;
- ``synth``, ``cohort``, ``featurize``, ``reduce`` and ``cluster-sweep`` at
  ``n_case = n_control = 1000``, seed 0, then ``train`` and ``evaluate``
  there with ``estimators = GBDT``: GBDT on all 2,000 rows and on 1,714-row
  CV folds, where every bin is populated and children are large, beside the
  400-patient runs above;
- ``cohort`` and ``featurize`` again, in their own work directory, on a copy
  of that ``events.csv`` whose data rows are shuffled with a fixed seed, so
  events parsed in order and out of order are both covered.

Every file the two trees write is compared byte for byte. Each file that
differs, or exists on one side only, is listed. So is each file of a tree's
shuffled-rows run that differs from the same file of its in-order run,
since row order in the events file must not change a result. Under a
differing CSV with the same header and row count on both sides, each column
that moved is listed too: with its largest absolute change when every
differing cell is a finite number on both sides, and with its count of
differing cells when not. The exit status is 1 if any
file is listed or any command fails, and 0 otherwise. The outputs are kept
for inspection unless both trees wrote the same bytes.
"""

from __future__ import annotations

import filecmp
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_CONFIG = "gamma_grid = 0.01\n"
STAGES_CONFIG = "n_case = 1000\nn_control = 1000\nestimators = GBDT\n"
STAGES = ("cohort", "featurize", "reduce", "cluster-sweep", "train", "evaluate")
SHUFFLED_STAGES = ("cohort", "featurize")  # the stages that parse events.csv
SHUFFLE_SEED = 0
EXACT_TREES = ("TREE", "ADABOOST")  # the classifiers grown by tree.fit_tree


def commands(root: Path, work: Path) -> list[list[str]]:
    sweep, stages = root / "sweep.cfg", root / "stages.cfg"
    seed0, seed1, big = work / "seed0", work / "seed1", work / "stages"
    big_args = ["--config", str(stages), "--seed", "0", "--workdir", str(big)]
    return [
        ["run-all", "--seed", "0", "--workdir", str(seed0)],
        ["run-all", "--seed", "1", "--workdir", str(seed1)],
        ["train", "--sweep", "--config", str(sweep), "--seed", "0", "--workdir", str(seed0)],
        *[
            ["run-all", "--config", str(root / f"{name}.cfg"), "--seed", "0", "--workdir", str(work / name)]
            for name in EXACT_TREES
        ],
        ["synth", *big_args, "--out", str(big / "events.csv")],
        *[[stage, *big_args] for stage in STAGES],
    ]


def shuffled_commands(root: Path, work: Path) -> list[list[str]]:
    """The stages that parse events.csv, on the shuffled copy in work/shuffled."""
    args = ["--config", str(root / "stages.cfg"), "--seed", "0", "--workdir", str(work / "shuffled")]
    return [[stage, *args] for stage in SHUFFLED_STAGES]


def shuffle_rows(source: Path, dest: Path, seed: int) -> None:
    """Copy a CSV to `dest` with its header first and its data rows shuffled."""
    header, *rows = source.read_text().splitlines()
    random.Random(seed).shuffle(rows)
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text("\n".join([header, *rows]) + "\n")


def run_tree(tree: Path, root: Path, work: Path) -> int:
    """Run every command from one tree into `work`; return the number that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    work.mkdir()

    def run(argv: list[str]) -> bool:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "refractory.cli", *argv], env=env, cwd=root, capture_output=True, text=True
        )
        status = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
        shown = " ".join(argv).replace(f"{root}{os.sep}", "")
        print(f"  {shown}: {status}, {time.perf_counter() - start:.1f} s", flush=True)
        if proc.returncode != 0:
            print(proc.stderr.rstrip(), file=sys.stderr)
        return proc.returncode != 0

    failed = sum(run(argv) for argv in commands(root, work))
    events = work / "stages" / "events.csv"
    if events.exists():  # if synth failed, the shuffled stages fail on the missing file
        shuffle_rows(events, work / "shuffled" / "events.csv", SHUFFLE_SEED)
    return failed + sum(run(argv) for argv in shuffled_commands(root, work))


def order_sensitive_files(work: Path) -> list[Path]:
    """Files of the shuffled-rows run, other than its events.csv, that differ
    from (or are missing in) the in-order run's work directory."""
    shuffled, in_order = work / "shuffled", work / "stages"
    return [
        rel
        for rel in sorted(relative_files(shuffled))
        if rel != Path("events.csv")
        and not ((in_order / rel).is_file() and filecmp.cmp(shuffled / rel, in_order / rel, shallow=False))
    ]


def relative_files(top: Path) -> set[Path]:
    return {path.relative_to(top) for path in top.rglob("*") if path.is_file()}


def _finite(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def column_moves(parent: Path, change: Path) -> list[str]:
    """One line per column that differs between two CSVs of one shape.

    Returns no lines when the headers, row counts or row widths differ.
    """
    old, new = ([line.split(",") for line in path.read_text().splitlines()] for path in (parent, change))
    if not old or len(old) != len(new) or old[0] != new[0]:
        return []
    width = len(old[0])
    if any(len(row) != width for row in old + new):
        return []
    moves = []
    for col, name in enumerate(old[0]):
        pairs = [(a[col], b[col]) for a, b in zip(old[1:], new[1:]) if a[col] != b[col]]
        if not pairs:
            continue
        numbers = [(_finite(a), _finite(b)) for a, b in pairs]
        if all(a is not None and b is not None for a, b in numbers):
            moves.append(f"    {name}: max |change| {max(abs(b - a) for a, b in numbers):.2g}")
        else:
            moves.append(f"    {name}: {len(pairs)} cells differ")
    return moves


def differing_files(parent: Path, change: Path) -> list[tuple[str, list[str]]]:
    """(listing, column moves) for each file that differs or exists on one side."""
    parent_files, change_files = relative_files(parent), relative_files(change)
    listed = []
    for rel in sorted(parent_files | change_files):
        if rel not in change_files:
            listed.append((f"only in parent: {rel}", []))
        elif rel not in parent_files:
            listed.append((f"only in change: {rel}", []))
        elif not filecmp.cmp(parent / rel, change / rel, shallow=False):
            moves = column_moves(parent / rel, change / rel) if rel.suffix == ".csv" else []
            listed.append((f"differs: {rel}", moves))
    return listed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/artifact_diff.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    root = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    (root / "sweep.cfg").write_text(SWEEP_CONFIG)
    (root / "stages.cfg").write_text(STAGES_CONFIG)
    for name in EXACT_TREES:
        (root / f"{name}.cfg").write_text(f"classifier = {name}\nestimators = {name}\n")
    work = root / "work"
    failed = 0
    reordered = []
    for side, tree in trees.items():
        print(f"{side}: {tree}", flush=True)
        failed += run_tree(tree, root, work)
        reordered += [(f"{side}: shuffled rows change {rel}", []) for rel in order_sensitive_files(work)]
        work.rename(root / side)
    listed = differing_files(root / "parent", root / "change") + reordered
    n_files = len(relative_files(root / "parent") | relative_files(root / "change"))
    for line, moves in listed:
        print("\n".join([line, *moves]))
    print(f"{n_files} files compared, {len(listed)} listed, {failed} commands failed")
    if listed or failed:
        print(f"outputs kept in {root}")
        return 1
    shutil.rmtree(root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
