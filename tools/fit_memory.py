"""Wall time and peak RSS of the n x n fits and the event reader, one fit
per fresh process.

Usage: python tools/fit_memory.py [--tree TREE] [--fits KPCA,ISOMAP,...]
                                  [--cap-mib MIB] N [N ...]

For each row count N and each fit (KPCA, ISOMAP, SPECTRAL, AGGLOMERATIVE and
READ_EVENTS by default), a child process runs the package from ``TREE/src``
(default: the tree this script lives in) with one BLAS thread. It draws an
N x 500 matrix of Poisson(0.3) counts, seed 0, and fits it once as the
clustering sweep does: KPCA and ISOMAP with k = 20 (ISOMAP with 10
neighbours), SPECTRAL and AGGLOMERATIVE with 2 clusters. READ_EVENTS reads
the ``events.csv`` of N generated patients, seed 0, which another child
writes to a temporary directory first, so the reader's peak is not hidden
under the generator's. One line per fit gives the fit's wall time, the
child's ``ru_maxrss`` before the fit (imports and data) and after it.

``--cap-mib`` sets ``RLIMIT_AS`` in each child before numpy loads, so a fit
that would outgrow the cap fails with MemoryError in its own process instead
of pressing on the host's memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FITS = ("KPCA", "ISOMAP", "SPECTRAL", "AGGLOMERATIVE", "READ_EVENTS")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
N_COLUMNS = 500


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _cap(cap_mib: int) -> None:
    if cap_mib > 0:
        cap = cap_mib * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def write_events_child(n: int, path: str, cap_mib: int) -> None:
    """Write the events.csv of n generated patients; called in a fresh process."""
    _cap(cap_mib)
    import refractory as r

    r.write_events(r.generate_events(r.GeneratorConfig(n_case=n // 2, n_control=n - n // 2, seed=0)), path)


def child(fit: str, n: int, cap_mib: int, events_csv: str) -> None:
    """Run one fit and print one JSON line; called in a fresh process."""
    _cap(cap_mib)
    import numpy as np  # after the cap, so the BLAS buffers count against it

    import refractory as r
    from refractory.cluster import ClusterConfig, fit_clusters

    X = np.random.default_rng(0).poisson(0.3, size=(n, N_COLUMNS)).astype(float) if fit != "READ_EVENTS" else None
    run = {
        "KPCA": lambda: r.fit_reducer("KPCA", X, 20),
        "ISOMAP": lambda: r.fit_reducer("ISOMAP", X, 20, n_neighbors=10),
        "SPECTRAL": lambda: fit_clusters(ClusterConfig("SPECTRAL", 2), X),
        "AGGLOMERATIVE": lambda: fit_clusters(ClusterConfig("AGGLOMERATIVE", 2), X),
        "READ_EVENTS": lambda: r.read_events(events_csv),
    }[fit]
    base = _maxrss_mib()
    start = time.perf_counter()
    try:
        run()
        error = None
    except MemoryError:
        error = "MemoryError"
    wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "base_mib": base, "peak_mib": _maxrss_mib(), "error": error}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1], int(argv[2]), int(argv[3]), argv[4])
        return 0
    if argv[:1] == ["--write-events"]:
        write_events_child(int(argv[1]), argv[2], int(argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", nargs="+", type=int, help="row counts N")
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--fits", default=",".join(FITS), help="comma-separated subset of " + ",".join(FITS))
    parser.add_argument("--cap-mib", type=int, default=0, help="RLIMIT_AS per child in MiB (0: none)")
    args = parser.parse_args(argv)
    fits = args.fits.split(",")
    unknown = sorted(set(fits) - set(FITS))
    if unknown:
        parser.error(f"unknown fits {unknown}")
    env = dict(os.environ, PYTHONPATH=str(args.tree.resolve() / "src"), **{v: "1" for v in THREAD_VARS})
    failed = 0
    print(f"{'fit':<14}{'rows':>7}{'wall_s':>9}{'base_MiB':>10}{'peak_MiB':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.rows:
            events_csv = str(Path(tmp) / f"events_{n}.csv")
            for fit in fits:
                steps = [[sys.executable, __file__, "--child", fit, str(n), str(args.cap_mib), events_csv]]
                if fit == "READ_EVENTS":
                    steps.insert(0, [sys.executable, __file__, "--write-events", str(n), events_csv, str(args.cap_mib)])
                for argv_child in steps:
                    proc = subprocess.run(argv_child, env=env, capture_output=True, text=True)
                    if proc.returncode != 0:
                        break
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failed += 1
                    tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
                    print(f"{fit:<14}{n:>7}  failed (exit {proc.returncode}): {tail}")
                    continue
                result = json.loads(lines[-1])
                line = f"{fit:<14}{n:>7}{result['wall_s']:>9.2f}{result['base_mib']:>10.1f}{result['peak_mib']:>10.1f}"
                if result["error"]:
                    failed += 1
                    line += f"  {result['error']}"
                print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
