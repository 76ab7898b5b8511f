#!/usr/bin/env python3
"""Replay the benchmark's queries in process and print one digest per run.

Usage:
    python3 tools/replay_queries.py [--checkout DIR]

Builds every query of each workload at seeds 1, 2 and 3 with
``bench/workloads.generate``, at the round count ``bench/run.py`` takes
for a 30-second run (finite 4, certify 5, pipeline 7 rounds), and runs it
through ``braidkernel.cli.run`` in this process, once as the workload
writes it and once with ``--json`` on its last command.  A piped query
feeds the first command's stdout to the second; a sequence stops at the
first command that exits non-zero, as ``bench/run.py`` does.  It prints
one line per workload and seed: the query count and a sha256 over every
run's argv, exit codes, stdout and stderr.  Two trees that print the
same lines answered every query alike, byte for byte.

``--checkout DIR`` replays another tree's ``src`` against its own
``bench/workloads.py`` (say, the parent commit cloned elsewhere) with
this script.  The queries and the files they read live in a temporary
directory, the working directory of every run, so their argv does not
depend on where the tree is; nothing in the tree is written.  Like
``bench/run.py``, the replay runs under PYTHONHASHSEED=0.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

WORKLOADS = ("finite", "certify", "pipeline")
SEEDS = (1, 2, 3)
SECONDS = 30


def run_command(cli, argv: list[str], stdin: str) -> tuple[int, str, str]:
    """One command through ``cli.run`` on the given stdin: exit code, stdout, stderr."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def replay(cli, query: dict, json_mode: bool) -> list:
    """The argv, exit codes, stdout of the last command run and the stderr of all."""
    cmds = [list(args) for args in query["cmds"]]
    if json_mode:
        cmds[-1].append("--json")
    codes, out, err, stdin = [], "", "", query["stdin"]
    for args in cmds:
        code, out, more = run_command(cli, args, stdin)
        codes.append(code)
        err += more
        if query["pipe"]:
            stdin = out
        elif code != 0:
            break
        else:
            stdin = ""
    return [cmds, codes, out, err]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from braidkernel import cli

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for workload in WORKLOADS:
            rounds = max(1, round(SECONDS / workloads.NOMINAL_ROUND_S[workload]))
            for seed in SEEDS:
                workdir = pathlib.Path(f"work-{workload}-{seed}")
                workdir.mkdir()
                queries = workloads.generate(workload, seed, rounds, str(workdir),
                                             root / "bench" / "data")
                for query in queries:
                    for name, text in query["files"].items():
                        (workdir / name).write_text(text, encoding="utf-8")
                digest = hashlib.sha256()
                for query in queries:
                    for json_mode in (False, True):
                        digest.update(json.dumps(replay(cli, query, json_mode)).encode() + b"\n")
                print(f"{workload} seed {seed}: {len(queries)} queries {digest.hexdigest()}",
                      flush=True)
        os.chdir(root)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
