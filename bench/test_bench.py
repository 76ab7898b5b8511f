"""Self-checks of the benchmark harness.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _generate(workload, seed):
    return json.dumps(workloads.generate(workload, seed, 2, "bench/out/work", BENCH / "data"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _generate(workload, 7) == _generate(workload, 7)
    assert _generate(workload, 7) != _generate(workload, 8)


def test_generation_does_not_import_the_package():
    code = ("import sys, pathlib; sys.path.insert(0, 'bench'); import workloads; "
            "[workloads.generate(w, 1, 1, 'x', pathlib.Path('bench/data')) for w in workloads.WORKLOADS]; "
            "assert not any(m.startswith('braidkernel') for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)


@pytest.mark.parametrize("codes, err, expect, outcome", [
    ([0], "", {"exit": 0, "stdout": None}, "decided"),
    ([1], "", {"exit": 0, "stdout": None}, "failed"),
    ([2], "undecided: budget", {"exit": 0, "stdout": None}, "undecided"),
    ([3], "error: bad", {"exit": 0, "stdout": None}, "failed"),
    ([1], "Traceback (most recent call last):", {"exit": 1, "stdout": None}, "failed"),
    ([0], "", {"exit": None, "stdout": None}, "failed"),
    ([0], "", {"exit": 0, "stdout": "5040"}, "failed"),
    ([1, 0], "", {"exit": 0, "stdout": None}, "failed"),
])
def test_classify(codes, err, expect, outcome):
    assert run.classify(expect, codes, "120\n", err)[0] == outcome


def test_tail_leaves_ten_samples_above():
    samples = [float(k) for k in range(40)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and percentile == 75.0


def _bench(*args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_quick_and_reports_the_contract_metrics(workload):
    start = time.perf_counter()
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert time.perf_counter() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = _bench(*args), _bench(*args)
    assert sorted(first["metrics"]) == sorted(m["name"] for m in CONTRACT["per_layer"])
    counts = {m["name"] for m in CONTRACT["per_layer"] if m["unit"] in ("count", "ratio")}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_spec_names_only_reported_metrics():
    spec = json.loads((BENCH / "spec.json").read_text())
    reported = {m["name"] for m in CONTRACT["per_layer"] + CONTRACT["end_to_end"]}
    named = {m for row in spec["predictions"] for m in row["metrics"] + row["moves"]}
    assert named <= reported
    assert set(spec["workloads"]) == {w["name"] for w in CONTRACT["workloads"]}


def test_refuses_a_checkout_without_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "finite", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout
