"""Byte-compare the artifacts of two source trees of this package.

Usage: python tools/artifact_diff.py PARENT_TREE CHANGE_TREE

Each tree is run from its own ``src`` (PYTHONPATH=<tree>/src) with one BLAS
thread, in the same absolute work directory, since ``run_report.json``
echoes the workdir. The commands are:

- ``run-all --seed 0`` and ``run-all --seed 1`` at the default config;
- ``train --sweep`` with ``gamma_grid = 0.01`` in the seed-0 directory;
- ``synth``, ``cohort``, ``featurize``, ``reduce`` and ``cluster-sweep`` at
  ``n_case = n_control = 1000``, seed 0.

Every file the two trees write is compared byte for byte. Each file that
differs, or exists on one side only, is listed. The exit status is 1 if any
file is listed or any command fails, and 0 otherwise. The outputs are kept
for inspection unless both trees wrote the same bytes.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_CONFIG = "gamma_grid = 0.01\n"
STAGES_CONFIG = "n_case = 1000\nn_control = 1000\n"
STAGES = ("cohort", "featurize", "reduce", "cluster-sweep")


def commands(root: Path, work: Path) -> list[list[str]]:
    sweep, stages = root / "sweep.cfg", root / "stages.cfg"
    seed0, seed1, big = work / "seed0", work / "seed1", work / "stages"
    big_args = ["--config", str(stages), "--seed", "0", "--workdir", str(big)]
    return [
        ["run-all", "--seed", "0", "--workdir", str(seed0)],
        ["run-all", "--seed", "1", "--workdir", str(seed1)],
        ["train", "--sweep", "--config", str(sweep), "--seed", "0", "--workdir", str(seed0)],
        ["synth", *big_args, "--out", str(big / "events.csv")],
        *[[stage, *big_args] for stage in STAGES],
    ]


def run_tree(tree: Path, root: Path, work: Path) -> int:
    """Run every command from one tree into `work`; return the number that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREAD_VARS})
    work.mkdir()
    failed = 0
    for argv in commands(root, work):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "refractory.cli", *argv], env=env, cwd=root, capture_output=True, text=True
        )
        status = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
        shown = " ".join(argv).replace(f"{root}{os.sep}", "")
        print(f"  {shown}: {status}, {time.perf_counter() - start:.1f} s", flush=True)
        if proc.returncode != 0:
            failed += 1
            print(proc.stderr.rstrip(), file=sys.stderr)
    return failed


def relative_files(top: Path) -> set[Path]:
    return {path.relative_to(top) for path in top.rglob("*") if path.is_file()}


def differing_files(parent: Path, change: Path) -> list[str]:
    parent_files, change_files = relative_files(parent), relative_files(change)
    listed = []
    for rel in sorted(parent_files | change_files):
        if rel not in change_files:
            listed.append(f"only in parent: {rel}")
        elif rel not in parent_files:
            listed.append(f"only in change: {rel}")
        elif not filecmp.cmp(parent / rel, change / rel, shallow=False):
            listed.append(f"differs: {rel}")
    return listed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/artifact_diff.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    root = Path(tempfile.mkdtemp(prefix="artifact-diff-"))
    (root / "sweep.cfg").write_text(SWEEP_CONFIG)
    (root / "stages.cfg").write_text(STAGES_CONFIG)
    work = root / "work"
    failed = 0
    for side, tree in trees.items():
        print(f"{side}: {tree}", flush=True)
        failed += run_tree(tree, root, work)
        work.rename(root / side)
    listed = differing_files(root / "parent", root / "change")
    n_files = len(relative_files(root / "parent") | relative_files(root / "change"))
    for line in listed:
        print(line)
    print(f"{n_files} files compared, {len(listed)} listed, {failed} commands failed")
    if listed or failed:
        print(f"outputs kept in {root}")
        return 1
    shutil.rmtree(root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
