"""Run every workload once for one seed and print each report.

Usage: python3 bench/all.py --seed N [--seconds S] [--trace {0,1}]

Each workload's report names all seven end-to-end metrics (with
failed_share and any failing query) or, with --trace 1, every
per-layer metric; the exit code is 1 if any workload reports a failure.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import workloads

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        if not json.loads(proc.stdout.strip().splitlines()[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
