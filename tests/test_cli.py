import errno
import gc
import hashlib
import os
import pathlib
import io
import json
import random
import subprocess
import sys
import time

import pytest

import braidkernel
from braidkernel.atlas import RP2_MAX_STRANDS, pure_braid_rp2
from braidkernel.base import Undecided
from braidkernel.cli import _COMMANDS, run
from braidkernel.commands.chain import first_answer
DATA_DIR = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def build_rp2(capsys, n):
    code, out, _ = invoke(capsys, ["build", "--surface", "rp2", "--n", str(n)])
    assert code == 0
    return out


def test_build_then_order_pipeline(capsys, monkeypatch):
    pres = build_rp2(capsys, 2)
    code, out, _ = invoke(capsys, ["order"], stdin=pres, monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == "8"


def test_build_surfaces(capsys):
    for spec in ["torus", "klein", "quaternion", "nonorientable:3"]:
        code, out, _ = invoke(capsys, ["build", "--surface", spec])
        assert code == 0 and out.startswith("group ")
    code, _, err = invoke(capsys, ["build", "--surface", "rp2"])
    assert code == 3 and "error:" in err
    code, _, err = invoke(capsys, ["build", "--surface", "mystery"])
    assert code == 3


def test_central_tau(capsys, tmp_path):
    pres = build_rp2(capsys, 2)
    path = tmp_path / "p2.pres"
    path.write_text(pres)
    code, out, _ = invoke(capsys, ["central", "--element", "tau",
                                   "--input", str(path)])
    assert code == 0 and "central" in out
    code, out, _ = invoke(capsys, ["central", "--element", "rho1",
                                   "--input", str(path)])
    assert code == 1 and "not central" in out


def test_central_tau_rejected_off_atlas(capsys, monkeypatch):
    text = "group custom\ngens a\nrel a^3\n"
    code, _, err = invoke(capsys, ["central", "--element", "tau"],
                          stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and "error:" in err


def test_central_tau_needs_the_atlas_generators(capsys, monkeypatch):
    # an atlas name over other generators: refused before any enumeration
    text = "group P3(RP2)\ngens a b\nrel a^2\n"
    code, out, err = invoke(capsys, ["central", "--element", "tau"],
                            stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err == 'error: "tau" on P3(RP2) needs the atlas generators B12 B13 B23 rho1 rho2 rho3\n'


def test_central_tau_builds_only_the_tower_gates_atlas_presentation(capsys, monkeypatch):
    # tau is read over the atlas alphabet; the group is the one on stdin, and the one atlas
    # presentation built is the one the tower's gate compares it with
    pres = build_rp2(capsys, RP2_MAX_STRANDS)
    pure_braid_rp2.cache_clear()
    code, out, err = invoke(capsys, ["central", "--element", "tau", "--max-cosets", "5"],
                            stdin=pres, monkeypatch=monkeypatch)
    assert (code, out.endswith(" is central\n"), err) == (0, True, "")
    assert pure_braid_rp2.cache_info().misses == 1


# sha256 of `build --surface rp2 --n k` for k = 1..12; relator order is part
# of the chain-certificate format, so the text must not change
BUILD_RP2_SHA256 = [
    "46ad033195a63dbf910e3971a9e32ad337c810d311e8a7e735ea30a2c91130c0",
    "df5c609406031355d915e1351aa340d20c9fbdf43e714ef9e54ff35a75f34257",
    "324a275be3270614e1bcb4c3cdb9b7531daccd6c13b7b58c3e28ffd2d2697df9",
    "3be100c1ed416c39a3f69bf69afd14fb11d0f0a0d1a44026e9a089170da459d7",
    "f1bf8e3461ae81e74c8a39abad3a1a38249327c25013c462ad4f75ab5065730f",
    "0f6eeaadd6152f00990cde143fac39f3027acd5a2ea373eadf45c55328bf58e8",
    "b23a8143b40fbf7338d50e09e5d44b95366cd9c2a527a87e0fa5c2cfa5cc1878",
    "b001e84311bc43e0cace2488f3dfb26c37313fc9847d18f7b201f0adec2904c6",
    "edd2469a24b5539f7ec272c8f5810e27facaa5be0c09c56bdf8a8e233fb97549",
    "5fed04ade093d007bb2672a32bad394399379c3dd4e1db48f21b8aeaecd54849",
    "c8ed25468ad6a7d43f1666328f0e33a70076c9c62e457cee1c430b305cf8bfbf",
    "a59795c080bb1bc5b0ab17788d3c4b5d84531bf6f6e86db0e0ad12763a2407de",
]


def test_build_rp2_output_pinned(capsys):
    for k, digest in enumerate(BUILD_RP2_SHA256, start=1):
        out = build_rp2(capsys, k)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, k


def test_order_budget_is_inclusive(capsys, monkeypatch):
    pres = build_rp2(capsys, 3)
    code, _, err = invoke(capsys, ["order", "--max-cosets", "500"],
                          stdin=pres, monkeypatch=monkeypatch)
    assert code == 2
    assert err == "undecided: enumeration budget exhausted at 500 live cosets\n"


def test_order_budget_exhaustion_exits_2(capsys, monkeypatch):
    text = "group T2\ngens a b\nrel a b a^-1 b^-1\n"
    code, _, err = invoke(capsys, ["order", "--max-cosets", "10"],
                          stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and err.startswith("undecided:")


def test_abelianize(capsys, monkeypatch):
    text = "group K\ngens x y\nrel x^2 = y^2\n"
    code, out, _ = invoke(capsys, ["abelianize", "--json"],
                          stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["result"] == {"rank": 1, "torsion": [2]}


def test_equal_table_modes(capsys, monkeypatch, tmp_path):
    pres = build_rp2(capsys, 2)
    path = tmp_path / "p2.pres"
    path.write_text(pres)
    base = ["equal", "--input", str(path)]
    code, out, _ = invoke(capsys, base + ["--lhs", "B12", "--rhs", "rho1^2"])
    assert code == 0 and out.strip() == "equal"
    code, out, _ = invoke(capsys, base + ["--lhs", "rho1", "--rhs", "rho2"])
    assert code == 1 and out.strip() == "not equal"
    code, out, _ = invoke(capsys, base + ["--lhs", "B12", "--rhs", "rho1^2",
                                          "--rewrite"])
    assert code == 0
    code, out, _ = invoke(capsys, base + ["--lhs", "rho1", "--rhs", "rho2",
                                          "--rewrite"])
    assert code == 1
    code, out, _ = invoke(capsys, base + ["--lhs", "B12",
                                          "--rhs", "rho2 rho1^-1 rho2^-1 rho1",
                                          "--search", "--max-word-len", "12"])
    assert code == 0 and "step" in out
    # rho1^2 = B12 = rho2^2 takes two relators, past 50 nodes; no witness separates equal words
    for mode in ([], ["--json"]):
        code, out, err = invoke(capsys, base + ["--lhs", "rho1^2", "--rhs", "rho2^2",
                                                "--search", "--max-nodes", "50"] + mode)
        assert (code, out) == (2, "")
        assert err == "undecided: no chain found within budget\n"


# each engine gives up on B12 != 1 in P3(RP2); a checked index-2 witness answers
UNDECIDED_ENGINES = {"table": ["--table", "--max-cosets", "100"],
                     "search": ["--search", "--max-nodes", "100"],
                     "rewrite": ["--rewrite", "--max-rules", "20"]}


@pytest.mark.parametrize("engine", list(UNDECIDED_ENGINES))
def test_equal_falls_back_to_a_checked_witness(capsys, monkeypatch, engine):
    p3 = build_rp2(capsys, 3)
    argv = ["equal", "--lhs", "B12", "--rhs", "1", *UNDECIDED_ENGINES[engine]]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (1, "not equal\n", "")
    code, out, err = invoke(capsys, argv + ["--json"], stdin=p3, monkeypatch=monkeypatch)
    assert (code, err) == (1, "")
    result = json.loads(out)["result"]
    assert result["equal"] is False
    witness = result["witness"]
    assert set(witness) == {"map", "schreier_generators", "functional", "modulus"}
    assert len(witness["map"]) == 6 and set(witness["map"]) == {0, 1}
    # one column per (coset, generator) pair but the tree edge
    assert len(witness["schreier_generators"]) == len(witness["functional"]) == 11
    assert witness["modulus"] == 4


def test_equal_witness_by_the_map_alone(capsys, monkeypatch):
    p3 = build_rp2(capsys, 3)
    code, out, _ = invoke(capsys, ["equal", "--search", "--max-nodes", "5", "--lhs", "rho1",
                                   "--rhs", "rho2", "--json"], stdin=p3, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["result"] == {"equal": False, "witness": {"map": [0, 0, 0, 1, 0, 0]}}


def test_equal_unseparated_pair_keeps_the_engines_line(capsys, monkeypatch):
    # equal words: no witness separates them, and off the tower's gate (P4(RP2) with an atlas
    # relator dropped) the engine's own undecided line stands; in P4(RP2) and in its quotient
    # by rho_k^6 the tower proves them equal
    p4 = build_rp2(capsys, 4)
    for engine, line in (("--rewrite", "rewriting system is not confluent"),
                         ("--search", "no chain found within budget")):
        argv = ["equal", engine, "--max-rules", "150", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]]
        assert invoke(capsys, argv, stdin=drop_first_relator(p4), monkeypatch=monkeypatch) == (
            2, "", f"undecided: {line}\n")
        for group in (p4, p4 + P4_QUOTIENT):
            assert invoke(capsys, argv, stdin=group, monkeypatch=monkeypatch) == (0, "equal\n", "")


WITNESS_DEFECT = (3, "", "error: the index-2 witness found failed its check\n")


def test_equal_prints_no_unchecked_witness(capsys, monkeypatch):
    # a witness the check rejects is a defect of the search, not an undecided pair
    from braidkernel import schreier
    monkeypatch.setattr(schreier, "check_witness", lambda p, u, v, witness: False)
    p4 = build_rp2(capsys, 4)
    assert invoke(capsys, ["equal", "--search", "--max-nodes", "5", "--lhs", "B12", "--rhs", "1"],
                  stdin=p4, monkeypatch=monkeypatch) == WITNESS_DEFECT


def test_a_tampered_witness_is_an_error(capsys, monkeypatch):
    from braidkernel import schreier
    p4 = build_rp2(capsys, 4)
    find = schreier.find_witness

    def tampered(p, u, v):  # the functional zeroed: it no longer sees u v^-1
        found = find(p, u, v)
        return schreier.Witness(found.bits, (0,) * len(found.functional), found.modulus)

    monkeypatch.setattr(schreier, "find_witness", tampered)
    argv = ["equal", "--search", "--max-nodes", "5", "--lhs", "B12", "--rhs", "1"]
    for tail in ([], ["--json"]):
        assert invoke(capsys, argv + tail, stdin=p4, monkeypatch=monkeypatch) == WITNESS_DEFECT


def paper_identities():
    """The paper's P3(RP2) identities in the certify workload's forms: B_ij as a
    rho-word, the conjugation of rho_j, the braid-like relation, and tau_3 central."""
    pairs = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        b = f"B{i}{j}"
        pairs += [(b, f"rho{j} rho{i}^-1 rho{j}^-1 rho{i}"),
                  (f"{b}^-1 rho{j} {b}", f"rho{i}^-2 rho{j} rho{i}^2"),
                  (f"rho{i} rho{j} rho{i} rho{j}", f"rho{j} rho{i} rho{j} rho{i}")]
    tau = "B12 B13 B23"
    return pairs + [(f"{tau} {x}", f"{x} {tau}") for x in ("B12", "B13", "B23", "rho1", "rho2", "rho3")]


CERTIFY_MODES = {"rewrite": ["--rewrite", "--max-rules", "150"],
                 "search": ["--search", "--max-word-len", "12", "--max-nodes", "4000"]}


# In the test names below, "the fiber" is the kernel <B13, B23, rho3> of P3(RP2) -> P2(RP2),
# free of rank 2, which the strand-forgetting tower reads at its level 3 ("engine": "tower").


@pytest.mark.parametrize("mode", list(CERTIFY_MODES))
def test_every_paper_identity_is_equal_in_p3(capsys, monkeypatch, mode):
    p3 = build_rp2(capsys, 3)
    engines = set()
    for lhs, rhs in paper_identities():
        argv = ["equal", *CERTIFY_MODES[mode], "--lhs", lhs, "--rhs", rhs, "--json"]
        code, out, err = invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch)
        assert (code, err) == (0, ""), (lhs, rhs)
        result = json.loads(out)["result"]
        assert result["equal"] is True
        # an engine's own answer keeps its fields; the tower names itself
        assert result.get("engine") == "tower" or {"chain", "confluent"} & set(result)
        engines.add(result.get("engine"))
    assert "tower" in engines


@pytest.mark.parametrize("mode", list(CERTIFY_MODES))
def test_the_fiber_answers_equal_before_any_witness_search(capsys, monkeypatch, mode):
    # a witness is searched for only to certify "not equal": equal words never reach it
    from braidkernel import schreier

    def no_search(p, u, v):
        raise AssertionError("find_witness ran on equal words")

    monkeypatch.setattr(schreier, "find_witness", no_search)
    p3 = build_rp2(capsys, 3)
    for lhs, rhs in paper_identities():
        argv = ["equal", *CERTIFY_MODES[mode], "--lhs", lhs, "--rhs", rhs]
        code, out, err = invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch)
        # a chain the search found follows its "equal" line
        assert (code, out.partition("\n")[0], err) == (0, "equal", ""), (lhs, rhs)


# the whole --json answer of an undecided search on P3(RP2): a witness from the map
# alone, a witness with a functional, and a commutator in the fiber <B13, B23, rho3> that no
# witness separates, which the tower's level 3 does
PINNED_FALLBACKS = {
    "parity": ("rho1", "rho2", {"equal": False, "witness": {"map": [0, 0, 0, 1, 0, 0]}}),
    "functional": ("B12", "1", {"equal": False, "witness": {
        "map": [0, 0, 0, 1, 0, 0],
        "schreier_generators": [[0, "B12"], [0, "B13"], [0, "B23"], [0, "rho2"], [0, "rho3"],
                                [1, "B12"], [1, "B13"], [1, "B23"], [1, "rho1"], [1, "rho2"],
                                [1, "rho3"]],
        "functional": [2, 0, 0, 3, 0, 2, 0, 0, 2, 1, 0],
        "modulus": 4}}),
    "fiber": ("B13 B23 B13^-1 B23^-1", "1", {"equal": False, "engine": "tower"}),
}


@pytest.mark.parametrize("case", list(PINNED_FALLBACKS))
def test_fallback_json_is_pinned(capsys, monkeypatch, case):
    lhs, rhs, result = PINNED_FALLBACKS[case]
    p3 = build_rp2(capsys, 3)
    argv = ["equal", "--search", "--max-nodes", "100", "--lhs", lhs, "--rhs", rhs, "--json"]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (
        1, json.dumps({"result": result}, indent=2) + "\n", "")


@pytest.mark.parametrize("case", list(PINNED_FALLBACKS))
def test_a_pair_the_fiber_separates_is_never_searched(capsys, monkeypatch, case):
    # no chain joins unequal words: --search asks the tower first and prints the same bytes
    def no_search(*args, **kwargs):
        raise AssertionError("searched a pair the tower separates")

    monkeypatch.setattr(braidkernel.derivations, "search_equality", no_search)
    lhs, rhs, result = PINNED_FALLBACKS[case]
    p3 = build_rp2(capsys, 3)
    argv = ["equal", "--search", "--max-nodes", "100", "--lhs", lhs, "--rhs", rhs]
    assert invoke(capsys, argv + ["--json"], stdin=p3, monkeypatch=monkeypatch) == (
        1, json.dumps({"result": result}, indent=2) + "\n", "")
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (1, "not equal\n", "")


def test_a_pair_the_fiber_calls_equal_still_prints_its_chain(capsys, monkeypatch):
    # relator 9, rho3 B12 rho3^-1 B12^-1, inserted at 1: the search's first level finds it
    p3 = build_rp2(capsys, 3)
    argv = ["equal", "--search", "--max-word-len", "12", "--max-nodes", "4000",
            "--lhs", "rho1 B12", "--rhs", "rho1 rho3 B12 rho3^-1"]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (0, (
        "equal\npresentation P3(RP2)\nstart rho1*B12\nstep 9 0 1 1\n"
        "end rho1*rho3*B12*rho3^-1\n"), "")


def test_a_quotient_the_fiber_refuses_still_searches(capsys, monkeypatch):
    # P3(RP2)/<rho^2>: rho_k^2 goes to -1 in Q8, so the tower proves only "equal" there.  It
    # does not separate the braid-like words, so the search runs once, finds no chain within
    # its budget, and the tower's "equal" answers
    searches = []
    search = braidkernel.derivations.search_equality

    def counting(*args, **kwargs):
        searches.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(braidkernel.derivations, "search_equality", counting)
    quotient = build_rp2(capsys, 3) + "".join(f"rel rho{k}^2\n" for k in (1, 2, 3))
    argv = ["equal", "--search", "--max-nodes", "100", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]]
    assert invoke(capsys, argv, stdin=quotient, monkeypatch=monkeypatch) == (0, "equal\n", "")
    assert len(searches) == 1


def test_equal_by_the_fiber_oracle_prints_no_chain(capsys, monkeypatch):
    p3 = build_rp2(capsys, 3)
    argv = ["equal", "--search", "--max-nodes", "100", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (0, "equal\n", "")
    code, out, _ = invoke(capsys, argv + ["--json"], stdin=p3, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["result"] == {"equal": True, "engine": "tower"}
    # a commutator in the fiber that no index-2 witness separates
    argv = ["equal", "--search", "--max-nodes", "100", "--lhs", "B13 B23 B13^-1 B23^-1",
            "--rhs", "1", "--json"]
    code, out, _ = invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch)
    assert code == 1 and json.loads(out)["result"] == {"equal": False, "engine": "tower"}


def test_the_fiber_oracle_keeps_the_engines_line_on_a_quotient(capsys, monkeypatch):
    # P3(RP2)/<rho^6>: rho1^6 goes to -1 in Q8, so the tower proves no "not equal" there.
    # The fiber commutator it separates in P3(RP2) is undecided there, no witness separates
    # it, and the rewriting line stands
    p3 = build_rp2(capsys, 3)
    quotient = p3 + "".join(f"rel rho{k}^6\n" for k in (1, 2, 3))
    argv = ["equal", "--rewrite", "--max-rules", "150", "--lhs", "B13 B23 B13^-1 B23^-1",
            "--rhs", "1"]
    assert invoke(capsys, argv, stdin=quotient, monkeypatch=monkeypatch) == (
        2, "", "undecided: rewriting system is not confluent\n")


def test_the_fiber_oracle_decides_tau_and_identities_on_a_quotient(capsys, monkeypatch):
    # tau is central in P3(RP2), so in P3(RP2)/<rho^6>; the tower decides before any enumeration
    quotient = build_rp2(capsys, 3) + "".join(f"rel rho{k}^6\n" for k in (1, 2, 3))
    argv = ["central", "--element", "tau", "--max-cosets", "1000"]
    assert invoke(capsys, argv, stdin=quotient, monkeypatch=monkeypatch) == (
        0, "B12*B13*B23 is central\n", "")
    code, out, _ = invoke(capsys, argv + ["--json"], stdin=quotient, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["result"] == {
        "element": "B12*B13*B23", "central": True, "engine": "tower"}
    argv = ["equal", "--rewrite", "--max-rules", "150", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]]
    assert invoke(capsys, argv, stdin=quotient, monkeypatch=monkeypatch) == (0, "equal\n", "")


def test_central_on_p3_falls_back_to_the_fiber_oracle(capsys, monkeypatch):
    p3 = build_rp2(capsys, 3)
    argv = ["central", "--element", "tau", "--max-cosets", "1000"]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (
        0, "B12*B13*B23 is central\n", "")
    code, out, _ = invoke(capsys, argv + ["--json"], stdin=p3, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["result"] == {
        "element": "B12*B13*B23", "central": True, "engine": "tower"}
    argv = ["central", "--element", "rho1", "--max-cosets", "1000"]
    assert invoke(capsys, argv, stdin=p3, monkeypatch=monkeypatch) == (
        1, "rho1 is not central\n", "")
    # the same tower decides P4(RP2) and its quotient by rho_k^6, where tau is central too;
    # off its gate the enumeration's line stands
    p4 = build_rp2(capsys, 4)
    argv = ["central", "--element", "tau", "--max-cosets", "1000"]
    for group in (p4, p4 + P4_QUOTIENT):
        assert invoke(capsys, argv, stdin=group, monkeypatch=monkeypatch) == (
            0, "B12*B13*B14*B23*B24*B34 is central\n", "")
    assert invoke(capsys, argv, stdin=drop_first_relator(p4), monkeypatch=monkeypatch) == (
        2, "", "undecided: enumeration budget exhausted at 1000 live cosets\n")


def test_central_asks_the_fiber_before_the_table(capsys, monkeypatch):
    # on the finite quotients the tower's answer comes first and says so, with no table, as
    # large as it may be: tau is central in P3(RP2), so in every quotient of it
    p3 = build_rp2(capsys, 3)
    rho2, rho4 = (p3 + "".join(f"rel rho{k}^{m}\n" for k in (1, 2, 3)) for m in (2, 4))
    argv = ["central", "--json", "--element", "B12*B13*B23"]
    for group in (rho2, rho4):
        code, out, _ = invoke(capsys, argv, stdin=group, monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["result"] == {
            "element": "B12*B13*B23", "central": True, "engine": "tower"}
    assert invoke(capsys, argv[:1] + argv[2:] + ["--max-cosets", "10"], stdin=rho4,
                  monkeypatch=monkeypatch) == (0, "B12*B13*B23 is central\n", "")


def test_central_decides_from_any_disproved_commutator(capsys, monkeypatch):
    # on P3(RP2)/<rho_k^4> the levels above Q8 prove only "equal", but rho1 B12 does not
    # commute with rho2 in Q8, which every rho_k^4 maps onto: the tower proves "not central",
    # and the table never runs
    from braidkernel import coset
    monkeypatch.setattr(coset, "todd_coxeter", None)
    rho4 = build_rp2(capsys, 3) + "".join(f"rel rho{k}^4\n" for k in (1, 2, 3))
    argv = ["central", "--element", "rho1 B12"]
    assert invoke(capsys, argv, stdin=rho4, monkeypatch=monkeypatch) == (
        1, "rho1*B12 is not central\n", "")
    code, out, _ = invoke(capsys, argv + ["--json"], stdin=rho4, monkeypatch=monkeypatch)
    assert code == 1 and json.loads(out)["result"] == {
        "element": "rho1*B12", "central": False, "engine": "tower"}


def fake_links(engine_proves, answers, ran):
    """The links equal passes (its engine, the witness and the tower), faked: each link
    appends its name to ran when it runs, then returns (answer, name, [name]), or raises
    Undecided(name) when its answer is None."""
    def link(name, proves, answer):
        def call():
            ran.append(name)
            if answer is None:
                raise Undecided(name)
            return answer, name, [name]
        return proves, call
    return [link(*case) for case in zip(("engine", "witness", "tower"),
                                        (engine_proves, {False}, {True, False}), answers)]


# (the answers the engine proves, the engine's, witness's and tower's answers or None for
# undecided, the link whose answer is printed, the links run in order).  An engine that
# proves both answers runs first; one that proves only "equal" runs after the tower, and not
# at all when the tower says "not equal"; the witness runs after the tower, and not at all
# when it says "equal".  Some cases give a link an answer the tower contradicts, to show that
# it never runs.
CHAIN_CASES = [
    ({True, False}, (True, None, True), "engine", ["engine"]),
    ({True, False}, (False, False, False), "engine", ["engine"]),
    ({True, False}, (None, False, False), "witness", ["engine", "tower", "witness"]),
    ({True, False}, (None, None, False), "tower", ["engine", "tower", "witness"]),
    ({True, False}, (None, False, True), "tower", ["engine", "tower"]),
    ({True, False}, (None, False, None), "witness", ["engine", "tower", "witness"]),
    ({True}, (True, None, True), "engine", ["tower", "engine"]),
    ({True}, (None, False, True), "tower", ["tower", "engine"]),
    ({True}, (True, False, False), "witness", ["tower", "witness"]),
    ({True}, (True, None, False), "tower", ["tower", "witness"]),
    ({True}, (True, None, None), "engine", ["tower", "engine"]),
    ({True}, (None, False, None), "witness", ["tower", "engine", "witness"]),
]


@pytest.mark.parametrize("engine_proves,answers,decider,ran", CHAIN_CASES)
def test_first_answer_runs_each_link_once_and_prints_in_list_order(engine_proves, answers,
                                                                   decider, ran):
    runs = []
    answer = answers[["engine", "witness", "tower"].index(decider)]
    assert first_answer(fake_links(engine_proves, answers, runs)) == (answer, decider, [decider])
    assert runs == ran


@pytest.mark.parametrize("engine_proves,ran", [({True, False}, ["engine", "tower", "witness"]),
                                               ({True}, ["tower", "engine", "witness"])])
def test_first_answer_raises_the_first_links_undecided(engine_proves, ran):
    runs = []
    with pytest.raises(Undecided, match="^engine$"):
        first_answer(fake_links(engine_proves, (None, None, None), runs))
    assert runs == ran


def test_first_answer_leaves_no_cyclic_garbage():
    # the console script runs with the cyclic collector off: neither an undecided chain nor
    # one that a later link decides may leave a kept Undecided in a reference cycle
    gc.collect()
    gc.disable()
    try:
        for answers in ((None, None, None), (None, None, True), (None, False, False)):
            for engine_proves in ({True}, {True, False}):
                try:
                    first_answer(fake_links(engine_proves, answers, []))
                except Undecided:
                    pass
                assert gc.collect() == 0, (engine_proves, answers)
    finally:
        gc.enable()


def test_equal_search_never_prints_an_unchecked_chain(capsys, monkeypatch):
    # a splice that wrongly cancels everything "reaches" the identity at once
    monkeypatch.setattr(braidkernel.derivations, "_splice",
                        lambda word, ins, pos: (0, 0, 0, len(word)))
    code, out, err = invoke(capsys, ["equal", "--lhs", "a", "--rhs", "1", "--search"],
                            stdin="group G\ngens a\nrel a^3\n", monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err == "error: search chain replays to a^4, not 1\n"


def test_equal_parse_error(capsys, monkeypatch):
    text = "group K\ngens x y\nrel x^2 = y^2\n"
    code, _, err = invoke(capsys, ["equal", "--lhs", "z", "--rhs", "x"],
                          stdin=text, monkeypatch=monkeypatch)
    assert code == 3 and "error:" in err


def test_cover_exit_codes(capsys):
    code, out, _ = invoke(capsys, ["cover", "--from", "klein", "--to", "torus",
                                   "--sheets", "2"])
    assert code == 1 and "nonabelian-quotient" in out
    code, out, _ = invoke(capsys, ["cover", "--from", "S3", "--to", "S2",
                                   "--sheets", "2"])
    assert code == 0 and "not excluded" in out
    code, out, _ = invoke(capsys, ["cover", "--from", "torus", "--to", "klein",
                                   "--sheets", "1"])
    assert code == 1 and "orientation-lift" in out


def run_cli(argv, stdin):
    """The CLI in a child process, killed after 30 s."""
    return subprocess.run([sys.executable, "-m", "braidkernel", *argv], input=stdin,
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


def test_abelianize_dense_random_presentation_finishes():
    # 14 relators over 10 generators with exponents in [-9, 9]: reducing
    # against a fixed pivot blows the entries up past any time limit
    rng = random.Random(0)
    lines = ["group dense", "gens " + " ".join(f"x{j}" for j in range(10))]
    for _ in range(14):
        exps = [rng.randint(-9, 9) for _ in range(10)]
        lines.append("rel " + " ".join(f"x{j}^{e}" for j, e in enumerate(exps) if e))
    proc = run_cli(["abelianize"], "\n".join(lines) + "\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rank 0, torsion []\n", "")


def test_stdin_that_is_not_utf8_exits_3():
    proc = subprocess.run([sys.executable, "-m", "braidkernel", "order"],
                          input=b"group G\ngens a\nrel a^\xff3\n", capture_output=True,
                          timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC),
                                               PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


def test_equal_search_skips_a_relator_longer_than_any_kept_word():
    # odd relators: no map onto Z/2, so no witness separates a and b either
    proc = run_cli(["equal", "--search", "--lhs", "a", "--rhs", "b", "--max-nodes", "5"],
                   "group G\ngens a b\nrel a^30000001\nrel b^3\n")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "undecided: no chain found within budget\n"


def test_chain_replay_splices_only_at_the_junctions(tmp_path):
    # 200 insertions of a 1000-syllable relator at position 0: the replayed word grows to
    # 200000 syllables, and each step copies it instead of normalizing it again (2.5 s before)
    rel = " ".join(["a b"] * 500)
    (tmp_path / "g.pres").write_text(f"group G\ngens a b\nrel {rel}\n")
    (tmp_path / "long.chain").write_text(
        "start 1\n" + "step 0 0 1 0\n" * 200 + "end " + " ".join(["a b"] * 100000) + "\n")
    start = time.perf_counter()
    proc = run_cli(["check-derivation", str(tmp_path / "long.chain"), "--input",
                    str(tmp_path / "g.pres")], "")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "valid: 200 steps replayed\n", "")
    assert elapsed < 0.5


def test_abelianize_splits_off_ready_smith_blocks():
    # <g1..g1200 | gi^2> is diagonal already: every row is a Smith block (39 s before)
    k = 1200
    gens = " ".join(f"g{i}" for i in range(1, k + 1))
    rels = "".join(f"rel g{i}^2\n" for i in range(1, k + 1))
    start = time.perf_counter()
    proc = run_cli(["abelianize"], f"group G\ngens {gens}\n{rels}")
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"rank 0, torsion {[2] * k}\n"
    assert elapsed < 1.0


def test_quotients_output(capsys):
    code, out, _ = invoke(capsys, ["quotients", "--surface", "S3", "--sheets", "2"])
    assert code == 0
    assert "S2" in out and "N4" in out
    code, out, _ = invoke(capsys, ["quotients", "--surface", "torus",
                                   "--sheets", "4"])
    assert code == 0 and "(q,r)" in out


def test_kernel_json_round_trip(capsys, tmp_path):
    out_file = tmp_path / "kernel.pres"
    code, out, _ = invoke(capsys, ["kernel", "--quotient", "rp2", "--n", "2",
                                   "--presentation-out", str(out_file), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["case"] == "mod-center"
    assert payload["result"]["presentation_file"] == str(out_file)
    assert out_file.exists()
    # byte-identical re-rendering
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    # the written file is a loadable presentation
    code, out2, _ = invoke(capsys, ["order", "--input", str(out_file)])
    assert code == 0 and out2.strip() == "4"


def test_kernel_json_schema(capsys, tmp_path):
    code, out, _ = invoke(capsys, ["kernel", "--quotient", "torus", "--n", "5",
                                   "--q", "2", "--r", "3", "--json"])
    assert code == 0
    payload = json.loads(out)["result"]
    assert list(payload) == ["case", "base", "q", "r"]
    assert payload == {"case": "mod-lattice",
                       "base": {"surface": "S1", "orientable": True, "genus": 1, "n": 5,
                                "pure": True},
                       "q": 2, "r": 3}
    assert list(payload["base"]) == ["surface", "orientable", "genus", "n", "pure"]
    out_file = str(tmp_path / "out.pres")
    code, out, _ = invoke(capsys, ["kernel", "--quotient", "rp2", "--n", "2",
                                   "--presentation-out", out_file, "--json"])
    assert code == 0
    payload = json.loads(out)["result"]
    assert list(payload) == ["case", "base", "q", "r", "presentation_file"]
    assert payload == {"case": "mod-center",
                       "base": {"surface": "N1", "orientable": False, "genus": 1, "n": 2,
                                "pure": True},
                       "q": None, "r": None, "presentation_file": out_file}


def test_kernel_full_braid(capsys):
    code, out, _ = invoke(capsys, ["kernel", "--quotient", "rp2", "--n", "2",
                                   "--full-braid", "--json"])
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["base"]["pure"] is False
    assert payload["case"] == "mod-center"
    assert "presentation_file" not in payload


def test_equal_rewrite_undecided_when_not_confluent(capsys, monkeypatch, tmp_path):
    pres = build_rp2(capsys, 2)
    path = tmp_path / "p2.pres"
    path.write_text(pres)
    for mode in ([], ["--json"]):
        code, out, err = invoke(capsys, ["equal", "--input", str(path),
                                         "--lhs", "rho1^2", "--rhs", "rho2^2",
                                         "--rewrite", "--max-rules", "3"] + mode)
        assert (code, out) == (2, "")
        assert err == "undecided: rewriting system is not confluent\n"


def test_kernel_usage_errors(capsys):
    code, _, err = invoke(capsys, ["kernel", "--quotient", "torus", "--n", "1"])
    assert code == 3
    code, _, err = invoke(capsys, ["kernel", "--quotient", "torus", "--n", "1",
                                   "--q", "2"])
    assert code == 3


def check_chain(capsys, monkeypatch, pres, path):
    """Exit code, stdout and --json stdout of check-derivation on one chain file."""
    code, out, err = invoke(capsys, ["check-derivation", str(path)],
                            stdin=pres, monkeypatch=monkeypatch)
    json_code, json_out, json_err = invoke(capsys, ["check-derivation", str(path), "--json"],
                                           stdin=pres, monkeypatch=monkeypatch)
    assert json_code == code and err == json_err == ""
    return code, out, json_out


def test_check_derivation_corpus(capsys, tmp_path, monkeypatch):
    pres = build_rp2(capsys, 2)
    chain_path = DATA_DIR / "b12_as_rho_n2.chain"
    assert check_chain(capsys, monkeypatch, pres, chain_path) == (
        0, "valid: 2 steps replayed\n",
        '{\n  "result": {\n    "valid": true,\n    "steps": 2,\n'
        '    "message": "2 steps replayed"\n  }\n}\n')
    # corrupt the declared endpoint
    bad = chain_path.read_text().replace("end rho2*rho1^-1*rho2^-1*rho1",
                                         "end rho1")
    bad_path = tmp_path / "bad.chain"
    bad_path.write_text(bad)
    message = "chain replays but ends at rho2*rho1^-1*rho2^-1*rho1, file declares rho1"
    assert check_chain(capsys, monkeypatch, pres, bad_path) == (
        1, f"invalid: {message}\n",
        '{\n  "result": {\n    "valid": false,\n    "steps": 2,\n'
        f'    "message": "{message}"\n  }}\n}}\n')


def test_check_derivation_out_of_range_is_negative(capsys, tmp_path, monkeypatch):
    pres = build_rp2(capsys, 2)
    bad_path = tmp_path / "oob.chain"
    bad_path.write_text("start B12\nstep 99 0 1 0\nend B12\n")
    assert check_chain(capsys, monkeypatch, pres, bad_path) == (
        1, "invalid: relator index 99 out of range\n",
        '{\n  "result": {\n    "valid": false,\n'
        '    "error": "relator index 99 out of range"\n  }\n}\n')


@pytest.mark.parametrize("end,result", [
    ("a^19999997", (0, "valid: 1 steps replayed\n")),
    ("a^19999998", (1, "invalid: chain replays but ends at a^19999997, "
                       "file declares a^19999998\n")),
], ids=["valid", "wrong-end"])
def test_check_derivation_answers_a_chain_over_the_letter_limit(capsys, tmp_path, monkeypatch,
                                                                end, result):
    # the replay splits words per syllable: only an inserted relator is
    # expanded to letters, so a 20000000-letter start is answered exactly
    path = tmp_path / "big.chain"
    path.write_text(f"start a^20000000\nstep 0 0 -1 0\nend {end}\n")
    pres = "group G\ngens a\nrel a^3\n"
    assert check_chain(capsys, monkeypatch, pres, path)[:2] == result


def test_hom_check_map_file(capsys, tmp_path):
    map_text = """hom klein-to-q8
begin source
group pi1(Klein)
gens x y
rel x^2 = y^2
end
begin target
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
end
send x = rho1
send y = rho2
"""
    path = tmp_path / "map.hom"
    path.write_text(map_text)
    code, out, _ = invoke(capsys, ["hom-check", "--map", str(path)])
    assert code == 0 and out.strip() == "verified"
    # a failing map: torus generators onto non-commuting elements
    bad = """begin source
group T2
gens a b
rel a b a^-1 b^-1
end
begin target
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
end
send a = rho1
send b = rho2
"""
    bad_path = tmp_path / "bad.hom"
    bad_path.write_text(bad)
    code, out, _ = invoke(capsys, ["hom-check", "--map", str(bad_path)])
    assert code == 1 and "failed" in out


def forget_map(n, broken=False):
    """The strand-forgetting map P_n(RP2) -> P3(RP2) as a map file; broken sends rho1 to
    rho1 B12, which is no homomorphism."""
    source, target = pure_braid_rp2(n), pure_braid_rp2(3)
    sends = {g: g if g in target.alphabet else "1" for g in source.alphabet}
    if broken:
        sends["rho1"] = "rho1 B12"
    return (f"begin source\n{braidkernel.format_presentation(source)}end\n"
            f"begin target\n{braidkernel.format_presentation(target)}end\n"
            + "".join(f"send {g} = {image}\n" for g, image in sends.items()))


@pytest.mark.parametrize("n", range(4, 9))
def test_hom_check_forgetting_maps_into_p3_are_decided_by_the_fiber(capsys, tmp_path, n):
    # P3(RP2) is infinite, so a table runs out; the tower, asked first, decides through the
    # fiber <B13, B23, rho3> at its level 3
    path = tmp_path / "forget.hom"
    path.write_text(forget_map(n))
    assert invoke(capsys, ["hom-check", "--map", str(path)]) == (0, "verified\n", "")
    code, out, _ = invoke(capsys, ["hom-check", "--map", str(path), "--json"])
    assert (code, json.loads(out)) == (0, {"result": {"status": "verified",
                                                      "failing_relator": None,
                                                      "engine": "tower"}})


@pytest.mark.parametrize("n", [4, 6])
def test_hom_check_names_the_first_relator_the_fiber_proves_broken(capsys, tmp_path, n):
    from braidkernel.tower import Tower
    path = tmp_path / "broken.hom"
    path.write_text(forget_map(n, broken=True))
    hom = braidkernel.parse_hom_file(path.read_text())
    oracle, one = Tower(3), hom.target.word("1")
    trivial = [oracle(braidkernel.substitute(hom, rel), one) for rel in hom.source.relators]
    first = trivial.index(False)
    assert first > 0 and all(trivial[:first])  # every earlier image is proved trivial
    assert invoke(capsys, ["hom-check", "--map", str(path)]) == (
        1, f"failed at relator {first}\n", "")


@pytest.mark.parametrize("answers,index", [((None, False, True), 1), ((None, True, True), None)])
def test_first_unequal_decides_after_an_undecided_pair(answers, index):
    # a pair proved unequal decides after an undecided one; otherwise pair 0's Undecided is
    # raised, kept in no reference cycle (the console script runs with the collector off)
    from braidkernel.presentations import first_unequal
    source = braidkernel.presentation("C", ["x"], ["x^2", "x^3", "x^5"])
    target = braidkernel.presentation("Z", ["a"], [])
    hom = braidkernel.GroupHom(source, target, (target.word("a"),))
    images = [braidkernel.substitute(hom, rel) for rel in source.relators]

    def oracle(u, v):
        answer = answers[images.index(u)]
        if answer is None:
            raise Undecided(f"pair {images.index(u)}")
        return answer

    pairs = [(image, target.word("1")) for image in images]
    if index is not None:
        assert first_unequal(oracle, pairs) == index
        assert braidkernel.hom_check(hom, oracle) == braidkernel.HomCheckResult("failed", index)
        return
    gc.collect()
    gc.disable()
    try:
        for check in (lambda: first_unequal(oracle, pairs),
                      lambda: braidkernel.hom_check(hom, oracle)):
            with pytest.raises(Undecided, match="^pair 0$"):
                check()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["order", "--bogus"])
    assert code == 3 and "error:" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, ["order", "--input", "/nonexistent/x.pres"])
    assert code == 3 and "error:" in err


def test_empty_input_path_is_not_stdin(capsys, monkeypatch):
    code, out, err = invoke(capsys, ["order", "--input="], stdin="group G\ngens a\nrel a^4\n",
                            monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_presentation_without_generators(capsys, monkeypatch):
    # the trivial group: one coset, and every word over no letters is 1, so central
    cases = [(["order"], "1\n"), (["equal", "--table", "--lhs", "1", "--rhs", "1"], "equal\n"),
             (["central", "--element", "1"], "1 is central\n")]
    for argv, answer in cases:
        code, out, err = invoke(capsys, argv, stdin="group T\ngens\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (0, answer, "")
    code, out, err = invoke(capsys, ["central", "--element", "1", "--json"],
                            stdin="group G\ngens\n", monkeypatch=monkeypatch)
    assert (code, json.loads(out), err) == (0, {"result": {"element": "1", "central": True}}, "")


def test_json_envelope_everywhere(capsys, monkeypatch, tmp_path):
    pres = build_rp2(capsys, 2)
    path = tmp_path / "p2.pres"
    path.write_text(pres)
    map_path = tmp_path / "map.hom"
    map_path.write_text(KLEIN_Q8_MAP)
    p2 = ["--input", str(path)]
    equal = ["equal", *p2, "--lhs", "B12", "--rhs", "rho2 rho1^-1 rho2^-1 rho1"]
    cases = [
        (["build", "--surface", "rp2", "--n", "2"], 0),
        (["order", *p2], 0),
        (["central", "--element", "tau", *p2], 0),
        (["abelianize", *p2], 0),
        (["hom-check", "--map", str(map_path)], 0),
        (equal, 0),
        (equal + ["--table"], 0),
        (equal + ["--search", "--max-word-len", "12"], 0),
        (equal + ["--rewrite"], 0),
        (["kernel", "--quotient", "rp2", "--n", "2"], 0),
        (["cover", "--from", "torus", "--to", "sphere", "--sheets", "2"], 1),
        (["quotients", "--surface", "S2", "--sheets", "2"], 0),
        (["check-derivation", str(DATA_DIR / "b12_as_rho_n2.chain"), *p2], 0),
    ]
    assert {argv[0] for argv, _ in cases} == set(_COMMANDS)
    for argv, expected in cases:
        code, out, err = invoke(capsys, argv + ["--json"])
        assert (code, err) == (expected, ""), argv
        payload = json.loads(out)
        assert list(payload) == ["result"]
        assert json.dumps(payload, indent=2) + "\n" == out


EQUAL_ARGS = ["equal", "--lhs", "a", "--rhs", "a"]

KLEIN_SOURCE = """begin source
group pi1(Klein)
gens x y
rel x^2 = y^2
end
"""
Q8_TARGET = """begin target
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
end
"""
KLEIN_Q8_MAP = KLEIN_SOURCE + Q8_TARGET + "send x = rho1\nsend y = rho2\n"
# the target block's `rel d` sits on file line 10
UNKNOWN_TARGET_GEN_MAP = (KLEIN_SOURCE + "begin target\ngroup Q8\ngens rho1 rho2\n"
                          "rel rho1^2 = rho2^2\nrel d\nend\n"
                          "send x = rho1\nsend y = rho2\n")

# files the exit-3 table reads, written to its working directory; each
# hom map would verify if its defect were ignored, and trivial.chain is
# valid, so its row fails only on the flag
BAD_INPUT_FILES = {
    "unknown-send.hom": KLEIN_Q8_MAP + "send zzz = rho1\n",
    "duplicate-send.hom": KLEIN_Q8_MAP + "send x = rho2\n",
    "duplicate-source.hom": KLEIN_Q8_MAP + KLEIN_SOURCE,
    "duplicate-target.hom": KLEIN_Q8_MAP + Q8_TARGET,
    "unknown-gen.chain": "presentation G\nstart zzz\nend a\n",
    "three-fields.chain": "start a\nstep 1 2\nend a\n",
    "non-integer.chain": "start a\nstep 0 0 1 x\nend a\n",
    "no-start.chain": "step 0 0 1 0\nend a\n",
    "other-presentation.chain": "presentation OTHER\nstart a\nend a\n",
    "unknown-target-gen.hom": UNKNOWN_TARGET_GEN_MAP,
    "trivial.chain": "start a\nend a\n",
    "not-utf8.pres": b"group G\ngens a\nrel a^\xff3\n",
    "not-utf8.hom": KLEIN_Q8_MAP.encode() + b"# \xff\n",
    "not-utf8.chain": b"start a\xff\nend a\n",
}


@pytest.mark.parametrize("argv,stdin", [
    (["central", "--element", "a"], "group G\ngens\n"),
    (["order", "--max-cosets", "0"], "group G\ngens a\nrel a^3\n"),
    (["hom-check", "--map", "x.hom", "--max-cosets", "-1"], None),
    (EQUAL_ARGS + ["--rewrite", "--max-rules", "0"], "group G\ngens a\nrel a^3\n"),
    (EQUAL_ARGS + ["--rewrite", "--max-len", "0"], "group G\ngens a\nrel a^3\n"),
    (EQUAL_ARGS + ["--search", "--max-nodes", "0"], "group G\ngens a\nrel a^3\n"),
    (EQUAL_ARGS + ["--search", "--max-word-len", "0"], "group G\ngens a\nrel a^3\n"),
    (EQUAL_ARGS + ["--search", "--max-nodes", "many"], "group G\ngens a\nrel a^3\n"),
    (["hom-check", "--map", "unknown-send.hom"], None),
    (["hom-check", "--map", "duplicate-send.hom"], None),
    (["hom-check", "--map", "duplicate-source.hom"], None),
    (["hom-check", "--map", "duplicate-target.hom"], None),
    (["build", "--surface", "rp2", "--n", "0"], None),
    (["kernel", "--quotient", "torus", "--n", "1"], None),
    (["quotients", "--surface", "bogus", "--sheets", "2"], None),
    (["cover", "--from", "torus", "--to", "sphere", "--sheets", "0"], None),
    (["check-derivation", "unknown-gen.chain"], "group G\ngens a\nrel a^3\n"),
    (["abelianize"], "group G\nrel a\ngens a\n"),
    (["check-derivation", "three-fields.chain"], "group G\ngens a\nrel a^3\n"),
    (["check-derivation", "non-integer.chain"], "group G\ngens a\nrel a^3\n"),
    (["check-derivation", "no-start.chain"], "group G\ngens a\nrel a^3\n"),
    (["check-derivation", "other-presentation.chain"], "group G\ngens a\nrel a^3\n"),
    (["hom-check", "--map", "unknown-target-gen.hom"], None),
    (["abelianize", "--max-cosets", "1"], "group G\ngens a\nrel a^3\n"),
    (["check-derivation", "trivial.chain", "--max-cosets", "5"],
     "group G\ngens a\nrel a^3\n"),
    (["build", "--surface", "torus", "--n", "7"], None),
    (["order", "--input", "not-utf8.pres"], None),
    (["hom-check", "--map", "not-utf8.hom"], None),
    (["check-derivation", "not-utf8.chain"], "group G\ngens a\nrel a^3\n"),
])
def test_bad_input_exits_3_without_traceback(capsys, monkeypatch, tmp_path, argv, stdin):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    code, _, err = invoke(capsys, argv)
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["build", "--surface", "rp2", "--n", "200000000"],
    ["kernel", "--quotient", "rp2", "--n", "100000"],
    ["kernel", "--quotient", "rp2", "--n", "13", "--json"],
])
def test_oversized_strand_count_exits_3(capsys, argv):
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"error: strand count must be <= 12 for rp2, got {argv[4]}\n"


def test_oversized_sheet_count_exits_3(capsys):
    code, out, err = invoke(capsys, ["quotients", "--surface", "S1", "--sheets", str(10**18 + 1)])
    assert (code, out) == (3, "")
    assert err == f"error: group order must be <= {10**18}, got {10**18 + 1}\n"


HUGE_GROUP = "group G\ngens a\nrel a^100000000000\n"
HUGE_TORUS = "group T2\ngens a b\nrel a b a^-1 b^-1\n"
HUGE_CHAIN = "start a^100000000000\nstep 0 0 1 0\nend a^100000000000\n"
HUGE_MAP = """begin source
group G
gens x
rel x^100000000000
end
begin target
group Q8
gens rho1 rho2
rel rho1^2 = rho2^2
rel rho1^4
rel rho1 rho2 rho1^-1 = rho2^-1
end
send x = rho1 rho2
"""
HUGE_WORD = "a^100000000000"
HUGE_CONJUGATE = "b a^100000000000 b^-1"  # equal to HUGE_WORD in the torus group
APERIODIC = " ".join(f"a^{k} b" for k in range(1, 141))  # 10010 letters, no rotation repeats
HUGE_TABLE = f"group G\ngens a b\nrel {APERIODIC}\n"
LONG_RELATOR = " ".join(f"a^{k} b" for k in range(1, 66))  # 2210 letters
LONG_START = "a^2500000 b^2500000 a^-2500000 b^-2500000"
NO_CHAIN = "undecided: no chain found within budget\n"
WORD_LIMIT = ("undecided: a word of 100000000000 letters is over the "
              "10000000-letter expansion limit\n")


@pytest.mark.parametrize("argv,stdin,code,err", [
    (["order", "--max-cosets", "5"], HUGE_GROUP, 2, WORD_LIMIT),
    (["equal", "--rewrite", "--lhs", "1", "--rhs", HUGE_WORD], HUGE_GROUP, 2, WORD_LIMIT),
    (["equal", "--search", "--max-word-len", "100000000002", "--lhs", HUGE_WORD,
      "--rhs", HUGE_CONJUGATE], HUGE_TORUS, 2, WORD_LIMIT),
    (["equal", "--rewrite", "--lhs", HUGE_WORD, "--rhs", HUGE_CONJUGATE], HUGE_TORUS, 2,
     WORD_LIMIT),
    (["equal", "--search", "--max-word-len", "10011", "--lhs", f"{APERIODIC} a", "--rhs", "a"],
     HUGE_TABLE, 2,
     "undecided: an insertion table of 200400200 letters is over the 10000000-letter "
     "expansion limit\n"),
    (["equal", "--search", "--lhs", LONG_START, "--rhs", "1"],
     "group G\ngens a b\nrel a^2\nrel a b a^-1 b^-1\n", 2, NO_CHAIN),
    (["equal", "--search", "--lhs", f"{LONG_RELATOR} a", "--rhs", "a"],
     f"group G\ngens a b\nrel {LONG_RELATOR}\n", 2, NO_CHAIN),
    (["equal", "--search", "--max-nodes", "10", "--lhs", f"{LONG_RELATOR} a", "--rhs", "a"],
     f"group G\ngens a b\nrel {LONG_RELATOR}\n", 2, NO_CHAIN),
    (["check-derivation", "chain.txt"], HUGE_GROUP, 2, WORD_LIMIT),
    (["hom-check", "--map", "map.txt"], "", 2, "undecided: a power of 200000000000 syllables "
                                               "is over the 10000000-letter expansion limit\n"),
    (["build", "--surface", "nonorientable:100000000"], "", 3,
     "error: crosscap count must be <= 100000, got 100000000\n"),
], ids=["order", "rewrite-relator", "search", "rewrite-word", "search-table", "search-long-start",
        "search-long-relator", "search-long-relator-10-nodes", "chain", "hom-power", "crosscaps"])
def test_huge_input_is_refused_fast_in_bounded_memory(tmp_path, argv, stdin, code, err):
    # each of these ended in a MemoryError traceback under a 1.5 GB
    # address-space limit before the letter-expansion, insertion-table and
    # crosscap limits; the long-start and long-relator searches instead
    # spent about 10 s expanding a start over the word cap
    resource = pytest.importorskip("resource")
    limit = 1500 * 2**20
    (tmp_path / "chain.txt").write_text(HUGE_CHAIN)
    (tmp_path / "map.txt").write_text(HUGE_MAP)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "braidkernel", *argv], input=stdin, capture_output=True,
        text=True, timeout=30, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)
    assert elapsed < 1.0


@pytest.mark.parametrize("count", ["0", "x", "\u00b2", "-2"])
def test_bad_crosscap_count_exits_3(capsys, count):
    # "\u00b2" (superscript two) passes str.isdigit but not int()
    code, out, err = invoke(capsys, ["build", "--surface", f"nonorientable:{count}"])
    assert (code, out, err) == (3, "", f"error: bad crosscap count {count!r}\n")


NINES = "9" * 5000


@pytest.mark.parametrize("argv,err", [
    (["quotients", "--surface", "S\u00b2", "--sheets", "2"], "unrecognized surface 'S\u00b2'"),
    (["cover", "--from", "N\u00b2", "--to", "S2", "--sheets", "2"],
     "unrecognized surface 'N\u00b2'"),
    (["quotients", "--surface", f"S{NINES}", "--sheets", "2"],
     "a count of 5000 digits is over the 18-digit limit"),
    (["build", "--surface", f"nonorientable:{NINES}"],
     "a count of 5000 digits is over the 18-digit limit"),
], ids=["superscript-genus", "superscript-crosscaps", "long-genus", "long-crosscaps"])
def test_bad_surface_count_exits_3(capsys, argv, err):
    # "\u00b2" passes str.isdigit but not int(), and int() refuses over
    # 4300 digits: both ended in a ValueError traceback
    code, out, stderr = invoke(capsys, argv)
    assert (code, out, stderr) == (3, "", f"error: {err}\n")


def test_surface_count_digit_limit(capsys):
    code, out, _ = invoke(capsys, ["quotients", "--surface", "S" + "9" * 18, "--sheets", "2"])
    assert code == 0 and out.startswith("S500000000000000000 ")
    code, out, err = invoke(capsys, ["quotients", "--surface", "S" + "1" * 19, "--sheets", "2"])
    assert (code, out, err) == (3, "", "error: a count of 19 digits is over the 18-digit limit\n")


def test_readme_states_the_strand_ceiling():
    readme = (DATA_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    assert f"`--n` from 1 to {RP2_MAX_STRANDS}" in readme


@pytest.mark.parametrize("map_text,expected", [
    (UNKNOWN_TARGET_GEN_MAP, "error: line 10: unknown generator 'd' at position 0\n"),
    # the source and target blocks fill file lines 1-12; send lines follow
    (KLEIN_SOURCE + Q8_TARGET + "send x = rho1\nsend y = zzz\n",
     "error: line 14: unknown generator 'zzz' at position 0\n"),
    (KLEIN_Q8_MAP + "send zzz = rho1\n",
     "error: line 15: send line for unknown source generator zzz\n"),
    (KLEIN_SOURCE + Q8_TARGET + "send x = rho1\n", "error: no send line for generator y\n"),
    (KLEIN_SOURCE + "begin middle\n" + Q8_TARGET + "send x = rho1\nsend y = rho2\n",
     "error: line 6: begin must name source or target\n"),
    (KLEIN_SOURCE + Q8_TARGET + "send x rho1\nsend y = rho2\n",
     "error: line 13: send needs '<gen> = <word>'\n"),
    (KLEIN_Q8_MAP + "map x\n", "error: line 15: unknown directive 'map'\n"),
    (KLEIN_SOURCE + Q8_TARGET[:-len("end\n")] + "send x = rho1\nsend y = rho2\n",
     "error: unterminated begin target\n"),
    ("send x = rho1\nsend y = rho2\n", "error: map file needs source and target blocks\n"),
], ids=["target-block", "send-image", "send-source", "whole-file", "begin-neither",
        "send-without-equals", "unknown-directive", "unterminated", "no-blocks"])
def test_hom_block_error_names_the_file_line(capsys, tmp_path, map_text, expected):
    path = tmp_path / "map.hom"
    path.write_text(map_text)
    code, out, err = invoke(capsys, ["hom-check", "--map", str(path)])
    assert (code, out) == (3, "")
    assert err == expected


def test_chain_file_without_end_line_has_no_line_number(capsys, monkeypatch, tmp_path):
    path = tmp_path / "no-end.chain"
    path.write_text("presentation G\nstart a\n")
    code, out, err = invoke(capsys, ["check-derivation", str(path)],
                            stdin="group G\ngens a\nrel a^3\n", monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err == "error: missing end line\n"


def test_every_exported_error_is_a_braidkernel_error():
    errors = [getattr(braidkernel, name) for name in braidkernel.__all__
              if name.endswith("Error") and isinstance(getattr(braidkernel, name), type)]
    assert len(errors) >= 8
    for cls in errors:
        assert issubclass(cls, braidkernel.BraidkernelError), cls
    assert issubclass(braidkernel.BraidkernelError, ValueError)


def test_hom_check_budget_line(capsys, tmp_path):
    path = tmp_path / "map.hom"
    path.write_text(KLEIN_Q8_MAP)
    code, out, err = invoke(capsys, ["hom-check", "--map", str(path), "--max-cosets", "3"])
    assert (code, out) == (2, "")
    assert err == "undecided: enumeration budget exhausted at 3 live cosets\n"


def test_hom_block_end_may_carry_a_comment(capsys, tmp_path):
    path = tmp_path / "map.hom"
    path.write_text(KLEIN_SOURCE + Q8_TARGET[:-len("end\n")] + "end   # done\n"
                    + "send x = rho1\nsend y = rho2\n")
    assert invoke(capsys, ["hom-check", "--map", str(path)]) == (0, "verified\n", "")


G_ORDER_3 = "group G\ngens a\nrel a^3\n"


@pytest.mark.parametrize("argv,text,stdin,expected", [
    (["order"], None, "group G\ngroup H\ngens a\n", "error: line 2: duplicate group line\n"),
    (["order"], None, "group\ngens a\n", "error: line 1: missing group name\n"),
    (["order"], None, "group G\ngens a\ngens b\n", "error: line 3: duplicate gens line\n"),
    (["order"], None, "group G\n", "error: missing gens line\n"),
    (["check-derivation", "x.chain"], "start a\nfoo 1\nend a\n", G_ORDER_3,
     "error: line 2: unknown directive 'foo'\n"),
    (["check-derivation", "x.chain"], "presentation G\nstart zzz\nend a\n", G_ORDER_3,
     "error: line 2: unknown generator 'zzz' at position 0\n"),
    (["check-derivation", "x.chain"], "start a\nstart a^2\nend a^2\n", G_ORDER_3,
     "error: line 2: duplicate start line\n"),
    (["check-derivation", "x.chain"], "start a\nend a\nend a^2\n", G_ORDER_3,
     "error: line 3: duplicate end line\n"),
    (["check-derivation", "x.chain"], "presentation G\npresentation G\nstart a\nend a\n",
     G_ORDER_3, "error: line 2: duplicate presentation line\n"),
    (["check-derivation", "x.chain"], "start a\nstep 0 0 1 x\nend a\n", G_ORDER_3,
     "error: line 2: step needs 4 integers\n"),
    (["order"], None, "group G\ngens a b c\nrel a = b = c\n",
     "error: line 3: more than one '=' in relation 'a = b = c'\n"),
], ids=["second-group", "empty-group", "second-gens", "missing-gens",
        "chain-unknown-directive", "chain-start-word", "chain-second-start",
        "chain-second-end", "chain-second-presentation", "chain-step-not-integer",
        "two-equals"])
def test_format_error_names_the_file_line(capsys, monkeypatch, tmp_path, argv, text, stdin,
                                          expected):
    if text is not None:
        (tmp_path / "x.chain").write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (3, "", expected)


def test_hom_check_undecided_oracle_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "map.hom"
    path.write_text(KLEIN_Q8_MAP)

    def oracle(u, v):
        raise braidkernel.base.Undecided("oracle budget spent")

    monkeypatch.setattr(braidkernel.coset, "table_equality_oracle", lambda table: oracle)
    for mode in ([], ["--json"]):
        code, out, err = invoke(capsys, ["hom-check", "--map", str(path)] + mode)
        assert (code, out) == (2, "")
        assert err == "undecided: oracle budget spent\n"


def test_equal_rewrite_length_cap_is_undecided(capsys, monkeypatch):
    q8 = invoke(capsys, ["build", "--surface", "quaternion"])[1]
    code, out, err = invoke(capsys, ["equal", "--rewrite", "--max-len", "2",
                                     "--lhs", "rho1^2", "--rhs", "rho2^2"],
                            stdin=q8, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "undecided: rewriting system is not confluent\n"


# every budget flag, with a command line that is complete without it
BUDGET_FLAGS = [(["order"], "--max-cosets"), (["central", "--element", "a"], "--max-cosets"),
                (["hom-check", "--map", "x.hom"], "--max-cosets"),
                *((EQUAL_ARGS, flag) for flag in ("--max-cosets", "--max-word-len",
                                                  "--max-nodes", "--max-rules", "--max-len"))]


USAGE_ERRORS = [
    ([], "no command"),
    (["bogus"], "'bogus'"),
    (["order", "--bogus"], "--bogus"),
    (["order", "--max-c", "5"], "--max-c"),  # no prefix abbreviations
    (["equal", "--rhs", "a", "--lhs"], "--lhs"),
    (["build", "--surface", "rp2", "--n", "x"], "--n"),
    (["kernel", "--quotient", "rp2", "--n", "x"], "--n"),
    (["cover", "--from", "S3", "--to", "S2", "--sheets", "x"], "--sheets"),
    *((argv + [flag, value], flag) for argv, flag in BUDGET_FLAGS for value in ("0", "-1", "x")),
    *((["order", "--max-cosets=" + value], "--max-cosets") for value in ("0", "-1", "x")),
    (["build"], "--surface"),
    (["central"], "--element"),
    (["hom-check"], "--map"),
    (["equal"], "--lhs, --rhs"),
    (["equal", "--rhs", "a"], "--lhs"),
    (["kernel"], "--quotient, --n"),
    (["cover", "--to", "S2"], "--from, --sheets"),
    (["quotients"], "--surface, --sheets"),
    (["check-derivation"], "CHAIN_FILE"),
    (["check-derivation", "a.chain", "b.chain"], "'b.chain'"),
    (["order", "extra"], "'extra'"),
    (EQUAL_ARGS + ["--table", "--search"], "--table and --search"),
    (EQUAL_ARGS + ["--rewrite", "--search", "--table"], "--search and --rewrite"),
    (["order", "--json=1"], "--json"),
]


@pytest.mark.parametrize("argv,named", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no-command" for argv, _ in USAGE_ERRORS])
def test_usage_error_is_one_line_naming_the_culprit(capsys, monkeypatch, argv, named):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err, err


def test_option_syntax(capsys, monkeypatch):
    p2 = build_rp2(capsys, 2)
    budget_line = "undecided: enumeration budget exhausted at 5 live cosets\n"
    for argv, expected in [(["--max-cosets=5"], (2, "", budget_line)),
                           (["--max-cosets", "5", "--max-cosets", "500"], (0, "8\n", "")),
                           (["--max-cosets=500", "--max-cosets=5"], (2, "", budget_line)),
                           (["--json", "--json"], (0, '{\n  "result": {\n    "order": 8\n  }\n}\n', ""))]:
        assert invoke(capsys, ["order", *argv], stdin=p2, monkeypatch=monkeypatch) == expected


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_prints_the_table_to_stdout(capsys, command):
    for flag in ("--help", "-h"):
        argv = [flag] if command is None else [command, flag]
        code, out, err = invoke(capsys, argv)
        assert (code, err) == (0, ""), argv
        if command is None:
            names = list(_COMMANDS)
        else:
            names = [_COMMANDS[command][1], *_COMMANDS[command][2]]
        for name in names:
            assert name in out, (argv, name)
    # help wins over the required flags it would otherwise miss
    if command is not None:
        assert invoke(capsys, [command, "--json", "--help"])[:2] == (0, out)


# Runs each (argv, stdin) of a JSON list through cli.run with the cyclic
# collector off, and prints how many unreachable objects each one left.
GARBAGE = """\
import gc, io, json, sys
gc.disable()
from braidkernel import cli
gc.collect()
counts = []
for argv, stdin in json.loads(sys.argv[1]):
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    code = cli.run(argv)
    counts.append((code, gc.collect()))
print(json.dumps(counts), file=sys.__stdout__)
"""


# equal in every P_n(RP2): undecided in P4(RP2)/<rho_k^6> under both engines' budgets here
BRAIDLIKE = ("rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1")
# the relators that make P4(RP2) a quotient, which the tower proves "equal" in
P4_QUOTIENT = "".join(f"rel rho{k}^6\n" for k in (1, 2, 3, 4))


def drop_first_relator(text):
    """A presentation's text without its first relator: off the tower's gate for an atlas group."""
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("rel "))
    return "".join(lines[:first] + lines[first + 1:])


def test_commands_leave_no_cyclic_garbage(capsys, tmp_path):
    # the console script turns the cyclic collector off; this is what makes that safe
    p2, p3, p4 = (build_rp2(capsys, n) for n in (2, 3, 4))
    p4_off = drop_first_relator(p4)
    rho4 = p3 + "".join(f"rel rho{k}^4\n" for k in (1, 2, 3))
    (tmp_path / "map.hom").write_text(KLEIN_Q8_MAP)
    (tmp_path / "broken.hom").write_text(forget_map(4, broken=True))
    chain = str(DATA_DIR / "b12_as_rho_n2.chain")
    cases = [
        (["build", "--surface", "rp2", "--n", "2"], "", 0),
        (["order"], p2, 0),
        (["central", "--element", "tau"], p2, 0),
        (["abelianize"], p2, 0),
        (["hom-check", "--map", "map.hom"], "", 0),
        (["equal", "--lhs", "B12", "--rhs", "rho1^2"], p2, 0),
        (["kernel", "--quotient", "rp2", "--n", "2", "--presentation-out", "k.pres"], "", 0),
        (["cover", "--from", "klein", "--to", "torus", "--sheets", "2"], "", 1),
        (["quotients", "--surface", "torus", "--sheets", "4"], "", 0),
        (["check-derivation", chain], p2, 0),
        (["order", "--max-cosets", "40000"], p3, 2),
        (["equal", "--rewrite", "--max-rules", "150", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]],
         p4_off, 2),
        (["equal", "--search", "--max-nodes", "4000", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]],
         p4_off, 2),
        # undecided engines, then the tower of P4(RP2); central asks the tower first
        (["equal", "--rewrite", "--max-rules", "150", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]],
         p4, 0),
        (["central", "--element", "rho1", "--max-cosets", "1000"], p4, 1),
        # undecided engines, then the tower of P3(RP2)
        (["equal", "--rewrite", "--max-rules", "150", "--lhs", BRAIDLIKE[0], "--rhs", BRAIDLIKE[1]],
         p3, 0),
        (["central", "--element", "tau", "--max-cosets", "1000"], p3, 0),
        # on P3(RP2)/<rho_k^4>: the tower disproves at Q8, and where it proves nothing the
        # table runs out and the tower's Undecided is raised
        (["central", "--element", "rho1 B12"], rho4, 1),
        (["central", "--element", "B13", "--max-cosets", "10"], rho4, 2),
        # hom-check into P3(RP2): the tower proves a relator image nontrivial
        (["hom-check", "--map", "broken.hom"], "", 1),
        # an undecided engine, then a checked index-2 witness
        (["equal", "--search", "--max-nodes", "4000", "--lhs", "rho1", "--rhs", "rho2"], p3, 1),
        (["order", "--bogus"], "", 3),
    ]
    assert {argv[0] for argv, _, _ in cases} == set(_COMMANDS)
    json_cases = [(["build", "--surface", "rp2", "--n", str(n), "--json"], "") for n in (2, 8)]
    proc = subprocess.run(
        [sys.executable, "-c", GARBAGE,
         json.dumps([(argv, stdin) for argv, stdin, _ in cases] + json_cases)],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.stderr == ""
    *counts, (small_code, small), (large_code, large) = json.loads(proc.stdout)
    assert counts == [[code, 0] for _, _, code in cases]
    # the json encoder's closures refer to each other: a fixed few per
    # --json print, however large the payload
    assert (small_code, large_code) == (0, 0) and small == large < 100


@pytest.mark.parametrize("argv,err", [
    (["kernel", "--quotient", "S2", "--n", "3"], "case full (P3(S2))"),
    (["kernel", "--quotient", "sphere", "--n", "3"], "case mod-center (P3(S0) / Z(P3(S0)))"),
    (["kernel", "--quotient", "rp2", "--n", "2", "--full-braid"],
     "case mod-center (B2(RP2) / Z(P2(RP2)))"),
    (["kernel", "--quotient", "torus", "--n", "2", "--q", "2", "--r", "3"],
     "case mod-lattice (P2(T2) / <a~^2, b~^3>)"),
], ids=["full", "sphere", "full-braid", "torus-n2"])
def test_presentation_out_without_a_presentation_exits_3(capsys, tmp_path, argv, err):
    out_file = tmp_path / "k.pres"
    for mode in ([], ["--json"]):
        code, out, stderr = invoke(capsys, argv + ["--presentation-out", str(out_file)] + mode)
        assert (code, out, stderr) == (
            3, "", f"error: kernel: {err} has no explicit presentation for --presentation-out\n")
        assert not out_file.exists()


# cli.main() ends the process with os._exit, so what it printed must be out of
# the stdout buffer by then; these children run with stdout buffered, as it is
# unless PYTHONUNBUFFERED is set
def buffered_env():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(SRC))


class FailingFlush(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_run_reports_a_failed_stdout_flush(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", FailingFlush())
    code = run(["build", "--surface", "rp2", "--n", "1"])
    assert (code, capsys.readouterr().err) == (
        3, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_failed_stdout_write_exits_3_with_buffering_on(sink):
    # the write happens at the flush; unflushed, it failed at interpreter exit
    # with a two-line "Exception ignored" message and exit 120
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout, err = open("/dev/full", "wb"), errno.ENOSPC
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout, err = os.fdopen(write_end, "wb"), errno.EPIPE
    with stdout:
        proc = subprocess.run([sys.executable, "-m", "braidkernel", "build", "--surface", "rp2",
                               "--n", "3"], stdout=stdout, stderr=subprocess.PIPE, text=True,
                              timeout=30, env=buffered_env())
    assert (proc.returncode, proc.stderr) == (3, f"error: [Errno {err}] {os.strerror(err)}\n")


def test_output_survives_the_exit_path(capsys, tmp_path):
    out_file = tmp_path / "k.pres"
    for argv in (["build", "--surface", "rp2", "--n", "12"],
                 ["build", "--surface", "rp2", "--n", "8", "--json"],
                 ["kernel", "--quotient", "rp2", "--n", "3", "--presentation-out", str(out_file)]):
        code, out, err = invoke(capsys, argv)
        out_file.unlink(missing_ok=True)  # the child writes the file anew
        proc = subprocess.run([sys.executable, "-m", "braidkernel", *argv], capture_output=True,
                              timeout=30, env=buffered_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    # n = 12 is more than a pipe buffer holds, so the child wrote while the parent read
    assert len(build_rp2(capsys, 12)) > 65536
    kernel = braidkernel.kernel_description(braidkernel.RP2, 3, True)
    assert (out_file.read_text(encoding="utf-8")
            == braidkernel.format_presentation(kernel.presentation))


MAIN_CHILD = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("teardown ran\\n"))
from braidkernel import cli
if sys.argv[1] == "escape":
    del sys.argv[1]
    cli._parse = lambda argv: 1 / 0
cli.main()
"""


def test_main_skips_teardown_and_passes_exit_codes(capsys, monkeypatch):
    # a return to sys.exit would run the hook; run() returns the same answer in process
    cases = [
        (["quotients", "--surface", "torus", "--sheets", "4"], ""),
        (["cover", "--from", "torus", "--to", "klein", "--sheets", "1"], ""),
        (["order", "--max-cosets", "5"], "group Z\ngens a\n"),
        (["order", "--bogus"], ""),
    ]
    codes = []
    for argv, stdin in cases:
        code, out, err = invoke(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        proc = subprocess.run([sys.executable, "-c", MAIN_CHILD, *argv], input=stdin,
                              capture_output=True, text=True, timeout=30, env=buffered_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        codes.append(code)
    assert codes == [0, 1, 2, 3]
    # an exception that escapes run() still ends in a traceback, exit 1 and a normal teardown
    proc = subprocess.run([sys.executable, "-c", MAIN_CHILD, "escape", "order"],
                          capture_output=True, text=True, timeout=30, env=buffered_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback")
    assert proc.stderr.endswith("ZeroDivisionError: division by zero\nteardown ran\n")


@pytest.mark.parametrize("argv,fd,code", [
    (["cover", "--from", "torus", "--to", "klein", "--sheets", "1"], 1, 1),
    (["cover", "--from", "torus", "--to", "klein", "--sheets", "1"], 2, 1),
    (["order", "--bogus"], 2, 3),
], ids=["no-stdout-negative", "no-stderr-negative", "no-stderr-usage"])
def test_exit_code_without_stdout_or_stderr(capsys, argv, fd, code):
    # a process started without fd 1 or 2 has sys.stdout or sys.stderr None:
    # what goes there is dropped, and the other stream and the exit code are unchanged
    _, out, err = invoke(capsys, argv)
    proc = subprocess.run([sys.executable, "-m", "braidkernel", *argv], capture_output=True,
                          text=True, timeout=30, env=buffered_env(),
                          preexec_fn=lambda: os.close(fd))
    assert proc.returncode == code
    assert (proc.stderr == err) if fd == 1 else (proc.stdout == out)


def without_stderr():
    os.close(2)


def unwritable_stderr():
    # what `2>&-` in a shell can leave: the first file the child opens takes
    # fd 2, read-only, so every write to stderr fails
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("preexec", [without_stderr, unwritable_stderr],
                         ids=["no-fd-2", "unwritable-fd-2"])
@pytest.mark.parametrize("argv,code", [(["order", "--bogus", "2"], 3),
                                       (["order", "--max-cosets", "5"], 2)],
                         ids=["usage", "undecided"])
def test_exit_code_with_stderr_closed(capsys, argv, code, preexec, buffered):
    # the undecided: or error: line is lost, never moved to stdout, and the
    # exit code stands: not 1 from a traceback, not 120 from a failed flush at exit
    env = buffered_env() if buffered else dict(buffered_env(), PYTHONUNBUFFERED="1")
    proc = subprocess.run([sys.executable, "-m", "braidkernel", *argv], input=build_rp2(capsys, 3),
                          stdout=subprocess.PIPE, text=True, timeout=30, env=env,
                          preexec_fn=preexec)
    assert (proc.returncode, proc.stdout) == (code, "")
