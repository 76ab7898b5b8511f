"""The benchmark's tracer, ``bench/launcher.py``, still fits the code: it wraps
the functions its ``TRACED`` table names and summarises their results by
attribute, so a renamed function or field would fail every traced query at
once.  The launcher is read and run from ``bench/``; nothing there is written."""

import json
import pathlib
import runpy
import subprocess
import sys

import pytest

import braidkernel
from braidkernel import cli
from braidkernel import (
    Word, knuth_bendix, quaternion_presentation, search_equality, todd_coxeter,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
# run_path compiles the source without writing bytecode next to it
LAUNCHER = runpy.run_path(str(BENCH / "launcher.py"))
GROUPS = runpy.run_path(str(BENCH / "groups.py"))
Q8 = quaternion_presentation()


@pytest.mark.parametrize("module,attr", [entry[:2] for entry in LAUNCHER["TRACED"]])
def test_every_traced_name_resolves_through_the_package(module, attr):
    assert callable(getattr(getattr(braidkernel, module), attr))


def test_the_summaries_read_fields_the_results_have():
    assert LAUNCHER["_summary_tc"](todd_coxeter(Q8), (Q8,)) == {"cosets": 8, "complete": True}
    rs = knuth_bendix(Q8)
    assert LAUNCHER["_summary_kb"](rs, (Q8,)) == {"rules": len(rs.rules), "confluent": True}
    i, j = Q8.gen(Q8.alphabet[0]), Q8.gen(Q8.alphabet[1])
    chain = search_equality(Q8, i * i, j * j)
    assert LAUNCHER["_summary_search"](chain, ()) == {"found": True, "steps": len(chain.steps)}
    assert LAUNCHER["_summary_search"](None, ()) == {"found": False, "steps": 0}
    # the launcher wraps Word.__pow__ in place and reads letter_length off its result
    assert LAUNCHER["_summary_pow"](Word.__pow__(i, 5), (i, 5)) == {"letters": 5}
    assert LAUNCHER["_summary_snf"](None, ([[2, 4], [6, 8]],)) == {"cells": 4}


@pytest.mark.parametrize("argv,stdout,span,summary", [
    (["order"], "8", "coset.todd_coxeter", {"cosets": 8, "complete": True}),
    (["equal", "--table", "--lhs", "rho1^2", "--rhs", "rho2^2"], "equal", "coset.query", None),
    (["central", "--element", "rho1^2"], "rho1^2 is central", "coset.query", None),
    (["equal", "--rewrite", "--lhs", "rho1^2", "--rhs", "rho2^2"], "equal",
     "rewriting.knuth_bendix", {"rules": len(knuth_bendix(Q8).rules), "confluent": True}),
], ids=["order", "equal-table", "central", "equal-rewrite"])
def test_a_traced_command_answers_and_records_its_spans(tmp_path, argv, stdout, span, summary):
    pres = tmp_path / "q8.pres"
    pres.write_text(braidkernel.format_presentation(Q8))
    spans_file = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(BENCH / "launcher.py"), str(spans_file), *argv,
                           "--input", str(pres)], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, stdout, "")
    spans = json.loads(spans_file.read_text())["spans"]
    assert spans[0][0] == "cli.run"
    assert [s[4] for s in spans if s[0] == span][:1] == [summary]


@pytest.mark.parametrize("n", [4, 8])
def test_a_traced_tower_query_answers_as_the_untraced_one(tmp_path, capsys, monkeypatch, n):
    # the benchmark's central --element tau on its own P_n(RP2) text: the traced run enters
    # the tower, and answers as cli.run does
    text = GROUPS["pure_braid_rp2"](n).text()
    pres = tmp_path / "p.pres"
    pres.write_text(text)
    argv = ["central", "--element", "tau", "--max-cosets", "1000", "--input", str(pres)]
    proc = subprocess.run([sys.executable, str(BENCH / "launcher.py"), str(tmp_path / "spans.json"),
                           *argv], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.endswith(" is central\n"), proc.stderr) == (0, True, "")
    assert cli.run(argv) == 0
    assert capsys.readouterr() == (proc.stdout, "")
