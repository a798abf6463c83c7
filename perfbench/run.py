"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload fig4-medium --seed 0 --seconds 20 --trace 0

Prints progress and check results, then one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  ``--smoke`` runs the same paths on tiny inputs.
Exits non-zero, printing no result, when the repository sources are
missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fig4-medium", "fig4-large", "ml-collectives")


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import bench

    result = bench.run_benchmark(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        smoke=args.smoke,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
