"""The braidkernel benchmark: seeded CLI batch workloads, timed from outside.

Usage:
    python3 bench/run.py --workload {finite,certify,pipeline} --seed N
                         --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout.  Every query is one or two
``python -m braidkernel`` subprocesses with the checkout's ``src`` on
PYTHONPATH, run one at a time (one client, closed loop), timed from
spawn to exit, and checked against a verdict the benchmark derived
without braidkernel (see workloads.py).  A no-op command
(``quotients --surface S2 --sheets 1``) is timed between queries for
``setup_s``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
as many rounds twice, untraced and then through launcher.py, and
reports per-layer self times and result-derived counts from the spans,
plus ``trace.overhead_s`` (traced minus untraced batch wall time).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
A result file with the environment record goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NOOP_QUERY = {"cmds": [["quotients", "--surface", "S2", "--sheets", "1"]], "pipe": False,
              "stdin": "", "expect": {"exit": 0, "stdout": None}}
PROBE_EVERY = 3        # one no-op and one reference sample per this many queries
QUERY_TIMEOUT_S = 30   # a query running longer counts as failed
MAX_RUN_S = 120        # stop issuing queries past this, to exit within 180 s

# The reference: a child interpreter that imports the standard modules
# the CLI imports and runs a fixed pure-Python loop, without touching
# braidkernel.  The shared machine's speed drifts by 40% within minutes,
# and the reference slows and speeds up with the queries, so end-to-end
# times are scaled by REFERENCE_S / (this run's median reference time):
# seconds on a machine where the reference takes REFERENCE_S (its median
# ran 0.085 to 0.14 s on the 2-core machine the benchmark was calibrated
# on).  Raw figures go to the report and the result file.
REFERENCE_CODE = ("import argparse, collections, dataclasses, json, re, typing\n"
                  "d = {}\nfor i in range(100000):\n    d[i % 977] = d.get(i % 977, 0) + i * i % 7\n"
                  "s = sorted(d.items())")
REFERENCE_S = 0.1

END_TO_END_UNITS = {"setup_s": "s", "query_p50_s": "s", "query_tail_s": "s",
                    "queries_per_s": "1/s", "decided_share": "ratio",
                    "failed_share": "ratio", "peak_rss_mb": "MB"}

# span name -> per-layer self-time metric
SPAN_METRICS = {
    "cli.run": "cli.self_s",
    "presentations.parse": "presentations.parse_s",
    "presentations.hom_check": "presentations.hom_check_s",
    "presentations.substitute": "presentations.substitute_s",
    "presentations.abelianization": "presentations.abelianization_s",
    "words.pow": "words.pow_s",
    "snf.smith_normal_form": "snf.smith_normal_form_s",
    "atlas.pure_braid_rp2": "atlas.pure_braid_rp2_s",
    "atlas.tau_n": "atlas.tau_n_s",
    "coset.todd_coxeter": "coset.todd_coxeter_s",
    "coset.query": "coset.query_s",
    "rewriting.knuth_bendix": "rewriting.knuth_bendix_s",
    "rewriting.normal_form": "rewriting.normal_form_s",
    "derivations.search": "derivations.search_s",
    "derivations.replay": "derivations.replay_s",
    "coverings.can_cover": "coverings.can_cover_s",
    "coverings.kernel_description": "coverings.kernel_description_s",
}
COUNT_UNITS = {"words.pow_calls": "count", "words.pow_letters": "count", "snf.cells": "count",
               "atlas.pure_braid_rp2_calls": "count", "coset.cosets": "count",
               "coset.cosets_per_s": "1/s", "coset.complete_share": "ratio",
               "rewriting.rules": "count", "rewriting.confluent_share": "ratio",
               "derivations.found_share": "ratio", "derivations.chain_steps": "count",
               "trace.decided": "count", "trace.failed": "count"}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# running queries --------------------------------------------------------------------

class Runner:
    def __init__(self, workdir: pathlib.Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("BRAIDKERNEL_MAX_COSETS", None)
        self.span_files = 0

    def _argv(self, args: list[str], traced: bool) -> list[str]:
        if not traced:
            return [sys.executable, "-m", "braidkernel", *args]
        self.span_files += 1
        return [sys.executable, str(BENCH / "launcher.py"),
                str(self.workdir / f"spans-{self.span_files}.json"), *args]

    def run(self, query: dict, traced: bool = False) -> dict:
        """Run one query; return its wall time, outcome and (traced) spans."""
        first_span = self.span_files + 1
        start = time.perf_counter()
        try:
            if query["pipe"]:
                codes, out, err = self._run_pipe(query, traced)
            else:
                codes, out, err = self._run_sequence(query, traced)
        except subprocess.TimeoutExpired:
            return {"wall_s": time.perf_counter() - start, "outcome": "failed",
                    "reason": "timeout", "spans": []}
        wall = time.perf_counter() - start
        spans = []
        for k in range(first_span, self.span_files + 1):
            path = self.workdir / f"spans-{k}.json"
            if path.exists():
                spans.append(json.loads(path.read_text()))
                path.unlink()
        outcome, reason = classify(query["expect"], codes, out, err)
        return {"wall_s": wall, "outcome": outcome, "reason": reason, "spans": spans}

    def reference(self) -> float:
        start = time.perf_counter()
        # captured pipes let the wait end at the child's exit, not at a poll
        subprocess.run([sys.executable, "-c", REFERENCE_CODE], env=self.env, cwd=ROOT,
                       capture_output=True, check=True, timeout=QUERY_TIMEOUT_S)
        return time.perf_counter() - start

    def _run_sequence(self, query, traced):
        codes, out, err = [], "", ""
        stdin = query["stdin"]
        for args in query["cmds"]:
            proc = subprocess.run(self._argv(args, traced), input=stdin, capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=QUERY_TIMEOUT_S)
            codes.append(proc.returncode)
            out, err = proc.stdout, err + proc.stderr
            stdin = ""
            if proc.returncode != 0:
                break
        return codes, out, err

    def _run_pipe(self, query, traced):
        first, second = query["cmds"]
        p1 = subprocess.Popen(self._argv(first, traced), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        p2 = subprocess.Popen(self._argv(second, traced), stdin=p1.stdout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        p1.stdout.close()
        try:
            p1.stdin.write(query["stdin"].encode())
            p1.stdin.close()
            out, err2 = p2.communicate(timeout=QUERY_TIMEOUT_S)
            err1 = p1.stderr.read().decode()
            p1.wait(timeout=QUERY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for p in (p1, p2):
                p.kill()
                p.wait()
            raise
        finally:
            p1.stderr.close()
        return [p1.returncode, p2.returncode], out, err1 + err2


def classify(expect: dict, codes: list[int], out: str, err: str) -> tuple[str, str]:
    """decided / undecided / failed, from exit codes, stdout and stderr."""
    if "Traceback (most recent call last)" in err:
        return "failed", "traceback"
    if any(code != 0 for code in codes[:-1]):
        return "failed", f"earlier command exited {codes}"
    code = codes[-1]
    if code == 2:
        return "undecided", ""
    if code not in (0, 1):
        return "failed", f"exit {code}: {err.strip()[-200:]}"
    if expect["exit"] is None:
        return "failed", f"exit {code} where no decided answer is correct"
    if code != expect["exit"]:
        return "failed", f"exit {code}, expected {expect['exit']}"
    if expect["stdout"] is not None and not re.fullmatch(expect["stdout"], out.strip(), re.DOTALL):
        return "failed", f"stdout {out.strip()[:200]!r}"
    return "decided", ""


def run_batch(runner: Runner, queries: list[dict], traced: bool, deadline: float,
              probes: dict | None = None) -> dict:
    """Run queries in order, one at a time; with ``probes``, time the no-op
    command and the reference between them (outside the batch wall time)."""
    results = []
    probe_s = 0.0
    start = time.perf_counter()
    for k, query in enumerate(queries):
        if time.perf_counter() > deadline:
            break
        if probes is not None and k % PROBE_EVERY == 0:
            noop = runner.run(NOOP_QUERY)
            if noop["outcome"] != "decided":
                raise SetupError(f"no-op command failed: {noop['reason']}")
            ref_s = runner.reference()
            probes["noop"].append(noop["wall_s"])
            probes["reference"].append(ref_s)
            probe_s += noop["wall_s"] + ref_s
        result = runner.run(query, traced)
        result["family"] = query["family"]
        result["query"] = f"{query['family']}: {' '.join(query['cmds'][-1])[:160]}"
        results.append(result)
    return {"results": results, "wall_s": time.perf_counter() - start - probe_s}


# metrics ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it, and its label."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(1, n - 10)  # ordered[k - 1] has n - k >= 10 samples above it
    return ordered[k - 1], 100.0 * k / n


def end_to_end(batch: dict, probes: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    results = batch["results"]
    walls = [r["wall_s"] for r in results]
    n = len(results)
    tail_s, pct = tail(walls)
    raw = {
        "setup_s": statistics.median(probes["noop"]),
        "query_p50_s": statistics.median(walls),
        "query_tail_s": tail_s,
        "queries_per_s": n / batch["wall_s"],
    }
    reference_s = statistics.median(probes["reference"])
    scale = REFERENCE_S / reference_s
    metrics = {k: v / scale if k == "queries_per_s" else v * scale for k, v in raw.items()}
    metrics.update({
        "decided_share": sum(r["outcome"] == "decided" for r in results) / n,
        "failed_share": sum(r["outcome"] == "failed" for r in results) / n,
        "peak_rss_mb": peak_rss_mb,
    })
    return metrics, {"query_tail_percentile": pct, "query_samples": n,
                     "setup_samples": len(probes["noop"]), "reference_median_s": reference_s,
                     "scale": scale, "raw": raw}


def layer_metrics(batch: dict) -> dict:
    self_s = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    counts = dict.fromkeys(COUNT_UNITS, 0)
    calls = {"coset.todd_coxeter": 0, "rewriting.knuth_bendix": 0, "derivations.search": 0}
    complete = confluent = found = 0
    import_s = 0.0
    for result in batch["results"]:
        counts["trace.decided"] += result["outcome"] == "decided"
        counts["trace.failed"] += result["outcome"] == "failed"
        for record in result["spans"]:
            import_s += record["import_s"]
            spans = record["spans"]
            child_s = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent is not None:
                    child_s[parent] += end - start
            for (name, start, end, _, info), inner in zip(spans, child_s):
                self_s[SPAN_METRICS[name]] += end - start - inner
                if name in calls:
                    calls[name] += 1
                if name == "words.pow":
                    counts["words.pow_calls"] += 1
                    counts["words.pow_letters"] += info["letters"]
                elif name == "snf.smith_normal_form":
                    counts["snf.cells"] += info["cells"]
                elif name == "atlas.pure_braid_rp2":
                    counts["atlas.pure_braid_rp2_calls"] += 1
                elif name == "coset.todd_coxeter":
                    counts["coset.cosets"] += info["cosets"]
                    complete += info["complete"]
                elif name == "rewriting.knuth_bendix":
                    counts["rewriting.rules"] += info["rules"]
                    confluent += info["confluent"]
                elif name == "derivations.search":
                    counts["derivations.chain_steps"] += info["steps"]
                    found += info["found"]

    def share(part, name):
        return part / calls[name] if calls[name] else 0.0

    tc_s = self_s["coset.todd_coxeter_s"]
    counts["coset.cosets_per_s"] = counts["coset.cosets"] / tc_s if tc_s else 0.0
    counts["coset.complete_share"] = share(complete, "coset.todd_coxeter")
    counts["rewriting.confluent_share"] = share(confluent, "rewriting.knuth_bendix")
    counts["derivations.found_share"] = share(found, "derivations.search")
    metrics = {"cli.import_s": {"value": import_s, "unit": "s"}}
    metrics.update({k: {"value": v, "unit": "s"} for k, v in self_s.items()})
    metrics.update({k: {"value": v, "unit": COUNT_UNITS[k]} for k, v in counts.items()})
    return metrics


# environment ---------------------------------------------------------------------

def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(), "src_sha256": _tree_digest(ROOT / "src"), "seed": seed}


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _tree_digest(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        digest.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


# main ----------------------------------------------------------------------------

def prepare(workload: str, seed: int, rounds: int) -> tuple[pathlib.Path, list[dict]]:
    """Generate every input as text and write the files queries read."""
    workdir = OUT / f"work-{workload}-{seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    queries = workloads.generate(workload, seed, rounds, str(workdir.relative_to(ROOT)),
                                 BENCH / "data")
    for query in queries:
        for name, text in query["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
    return workdir, queries


def check_checkout():
    if not (ROOT / "src" / "braidkernel" / "cli.py").is_file():
        raise SetupError(f"no braidkernel sources under {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round cut to its first 6 queries, for the self-tests")
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    deadline = run_start + min(MAX_RUN_S, 3 * args.seconds + 30)
    try:
        check_checkout()
        rounds = max(1, round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]))
        workdir, queries = prepare(args.workload, args.seed, 1 if args.smoke else rounds)
        if args.smoke:
            queries = queries[:6]
        runner = Runner(workdir)
        warm = runner.run(queries[0])  # bytecode caches exist before timing
        runner.run(NOOP_QUERY)
        runner.reference()
        if warm["reason"] == "traceback":
            raise SetupError("the warm-up query ended in a traceback")
        if args.trace:
            untraced = run_batch(runner, queries, False, deadline)
            batch = run_batch(runner, queries[:len(untraced["results"])], True, deadline)
            metrics = layer_metrics(batch)
            overhead = batch["wall_s"] - untraced["wall_s"]
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            results = untraced["results"] + batch["results"]
            report = {}
        else:
            probes = {"noop": [], "reference": []}
            batch = run_batch(runner, queries, False, deadline, probes)
            results = batch["results"]
            peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            values, report = end_to_end(batch, probes, peak_mb)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [f"{r['query']} -- {r['reason']}" for r in results if r["outcome"] == "failed"]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "rounds": 1 if args.smoke else rounds, "queries": len(queries),
              "families": _families(results), "run_s": time.perf_counter() - run_start,
              "environment": environment(args.seed), **report,
              "metrics": metrics, "failures": failures}
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(workdir)

    print(f"workload {args.workload}, seed {args.seed}, {len(results)} queries run "
          f"({record['rounds']} rounds), environment {json.dumps(record['environment'])}")
    for key, value in report.items():
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for failure in failures:
        print(f"  FAILED {failure}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    # failed_share is printed above; the contract's metrics must never be 0
    contract = {k: v for k, v in metrics.items() if k != "failed_share"}
    print(json.dumps({"correct": not failures, "attempted": len(results),
                      "failed": len(failures), "metrics": contract}))
    return 0


def _families(results: list[dict]) -> dict:
    """Per query family: count, median wall time and outcomes."""
    by_family: dict[str, list[dict]] = {}
    for r in results:
        by_family.setdefault(r["family"], []).append(r)
    return {family: {"count": len(rs), "median_s": statistics.median(r["wall_s"] for r in rs),
                     "decided": sum(r["outcome"] == "decided" for r in rs),
                     "failed": sum(r["outcome"] == "failed" for r in rs)}
            for family, rs in sorted(by_family.items())}


if __name__ == "__main__":
    sys.exit(main())
