"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload imdb-serve --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with traced and untraced rounds alternating and prints the
per-layer metrics (spans land in ``perfbench/results/``).  The program
under test is imported from ``src/`` of the checkout; without it the
script exits with code 2 and prints no result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a run uses: changing the workload seed
    changes the hash seed too, so string/set hashing is varied across
    seeds and fixed for a given seed."""
    return str(seed % 4294967296)


def parse_args(argv):
    from squidbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    args = parse_args(argv)
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)

    from squidbench.workloads import run

    trace_path = None
    if args.trace:
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        trace_path = os.path.join(results, f"spans-{args.workload}.jsonl")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=trace_path)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
