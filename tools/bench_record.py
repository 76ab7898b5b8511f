#!/usr/bin/env python3
"""Record the benchmark trajectory: write BENCH_<N>.json at the repository root.

Usage:
    python3 tools/bench_record.py N [--checkout DIR]

Runs ``bench/run.py`` of the checkout (default: this one) for every
workload at seeds 1, 2 and 3 for 30 s each, untraced (the end-to-end
metrics) and traced (the per-layer self times and work counts), one run
at a time.  Each metric
is stored with its unit, the value of every run in seed order and their
median; each workload also keeps the runs' query and failure counts and
whether every answer was correct.  The environment is the one
``bench/run.py`` records (Python, cores, commit, digest of ``src``),
plus the seeds, the seconds, the machine and whether ``src`` differs
from that commit (untracked files count).  The seeds and seconds are
fixed so that every BENCH file measures the same runs.

``--checkout`` records another tree with this tool, for example the
parent commit cloned elsewhere, so that two BENCH files compare one
change on one machine.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("finite", "certify", "pipeline")
SEEDS = (1, 2, 3)
SECONDS = 30


def run_once(checkout: pathlib.Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The last JSON line of one bench/run.py run, and its result file's environment."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result_file = checkout / "bench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return summary, json.loads(result_file.read_text())["environment"]


def src_modified(checkout: pathlib.Path) -> bool | None:
    """Whether src differs from the checkout's commit, untracked files
    included; None outside git."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=all", "--", "src"],
                          cwd=checkout, capture_output=True, text=True)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def rows(runs: list[dict]) -> dict:
    """metric -> unit, the runs' values in order and their median."""
    values = {name: [run["metrics"][name]["value"] for run in runs] for name in runs[0]["metrics"]}
    return {name: {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(vs),
                   "runs": vs} for name, vs in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="the number in BENCH_<N>.json")
    parser.add_argument("--checkout", type=pathlib.Path, default=ROOT,
                        help="the tree whose bench/run.py and src are measured")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    workloads, environment = {}, None
    for workload in WORKLOADS:
        record = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = []
            for seed in SEEDS:
                summary, environment = run_once(checkout, workload, seed, trace)
                runs.append(summary)
                print(f"{workload} seed {seed} trace {trace}: correct {summary['correct']}, "
                      f"{summary['attempted']} queries, {summary['failed']} failed", flush=True)
            record[key] = rows(runs)
            record[f"{key}_runs"] = [{"correct": run["correct"], "attempted": run["attempted"],
                                      "failed": run["failed"]} for run in runs]
        workloads[workload] = record
    environment = {**environment, "seeds": list(SEEDS), "seconds": SECONDS,
                   "src_modified": src_modified(checkout),
                   "machine": platform.machine(), "system": platform.system()}
    del environment["seed"]
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps({"bench": args.n, "environment": environment,
                               "workloads": workloads}, indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
