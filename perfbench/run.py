"""Benchmark entry point: measure one workload and print one JSON result line.

    python3 perfbench/run.py --workload pipeline-400 --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository. With ``--trace 0`` the metrics are the
end-to-end ones (wall, CPU, set-up time, peak RSS), with ``--trace 1`` the
per-layer ones from a traced run. Human-readable lines come first; the last
line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Full results, the host record and the spans go under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys

import bench
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (bench.SRC / "refractory" / "__init__.py").is_file():
        print(f"error: no package source at {bench.SRC / 'refractory'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
