"""Serial end-to-end and per-layer benchmark of the reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload oracle-fig17 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  To re-record the
per-job output digests the correctness gate compares against::

    python3 perfbench/run.py --record-digests 0-19

See ``perfbench/README.md`` for the metrics, workloads and layer map.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Native thread pools stay single-threaded: the benchmark measures the
#: serial path and must not start more threads than the host has cores.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        type=_seed_range,
        metavar="LO-HI",
        help="run one pass per workload and seed and rewrite digests.json",
    )
    args = parser.parse_args(argv)
    if args.record_digests is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {SRC.name}/repro next to "
            "the benchmark; run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import harness

    if args.record_digests is not None:
        return harness.record_digests(args.record_digests)
    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
