import importlib.util
import pathlib
import sys

import pytest

from braidkernel import (
    ChainError, DerivationChain, DerivationStep, apply_step, b_ij_as_rho,
    build_chain, check_derivation, format_chain, parse_chain_file,
    pure_braid_rp2, search_equality, word_equal_finite,
)
DATA_DIR = pathlib.Path(__file__).parent / "data"
CORPUS_TOOL = pathlib.Path(__file__).parents[1] / "tools" / "gen_chain_corpus.py"

CORPUS = {
    # file -> (strand count, start, end)
    "b12_as_rho_n2.chain": (2, "B12", "rho2 rho1^-1 rho2^-1 rho1"),
    "braidlike_n2.chain": (2, "rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1"),
    "conj_rho_squared_n2.chain": (2, "B12^-1 rho2 B12", "rho1^-2 rho2 rho1^2"),
    "braidlike_n3.chain": (3, "rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1"),
    "conj_rho_squared_n3.chain": (3, "B13^-1 rho3 B13", "rho1^-2 rho3 rho1^2"),
    "conj_rho_squared_n3_23.chain": (3, "B23^-1 rho3 B23", "rho2^-2 rho3 rho2^2"),
}


def test_single_word_chain_is_valid(rp2_n2):
    chain = DerivationChain(rp2_n2, (rp2_n2.word("B12 rho1"),), ())
    report = check_derivation(chain)
    assert report.valid and report.failing_step is None


def test_apply_step_inserts_rotated_relator(rp2_n2):
    # relator 1 is rho1^2 B12^-1; prepending it to B12 cancels the B12
    w = rp2_n2.word("B12")
    step = DerivationStep(relator=1, rotation=0, direction=1, position=0)
    assert apply_step(rp2_n2, w, step) == rp2_n2.word("rho1^2")
    # the same relator rotated so B12^-1 comes first, inserted after
    rotated = DerivationStep(relator=1, rotation=2, direction=1, position=1)
    assert apply_step(rp2_n2, w, rotated) == rp2_n2.word("rho1^2")


def test_wrong_chain_reports_first_failing_step(rp2_n2):
    good = build_chain(rp2_n2, rp2_n2.word("B12"),
                       [DerivationStep(1, 0, 1, 0)])
    tampered = DerivationChain(
        rp2_n2, (good.words[0], rp2_n2.word("rho2^2")), good.steps)
    report = check_derivation(tampered)
    assert not report.valid
    assert report.failing_step == 0


def test_range_errors_raise(rp2_n2):
    w = rp2_n2.word("B12")
    with pytest.raises(ChainError, match="relator index"):
        apply_step(rp2_n2, w, DerivationStep(99, 0, 1, 0))
    with pytest.raises(ChainError, match="rotation"):
        apply_step(rp2_n2, w, DerivationStep(1, 40, 1, 0))
    with pytest.raises(ChainError, match="position"):
        apply_step(rp2_n2, w, DerivationStep(1, 0, 1, 7))
    with pytest.raises(ChainError, match="direction"):
        apply_step(rp2_n2, w, DerivationStep(1, 0, 2, 0))


def test_malformed_chain_structure_raises(rp2_n2):
    with pytest.raises(ChainError):
        check_derivation(DerivationChain(rp2_n2, (), ()))
    with pytest.raises(ChainError):
        check_derivation(DerivationChain(
            rp2_n2, (rp2_n2.word("B12"),), (DerivationStep(1, 0, 1, 0),)))


# search ------------------------------------------------------------------------

def test_search_trivial_equality(rp2_n2):
    u = rp2_n2.word("rho1 rho2")
    chain = search_equality(rp2_n2, u, rp2_n2.word("rho1 * rho2"))
    assert chain is not None and chain.steps == ()


def test_search_finds_b12_identity(rp2_n2, rp2_n2_table):
    lhs = rp2_n2.gen("B12")
    rhs = b_ij_as_rho(2, 1, 2)
    chain = search_equality(rp2_n2, lhs, rhs, max_word_len=12)
    assert chain is not None
    assert check_derivation(chain).valid
    assert chain.start == lhs and chain.end == rhs
    # soundness: consecutive chain words are equal in the finite group
    for a, b in zip(chain.words, chain.words[1:]):
        assert word_equal_finite(rp2_n2_table, a, b)


def test_search_not_found_is_inconclusive(q8):
    chain = search_equality(q8, q8.word("rho1"), q8.word("rho2"),
                            max_word_len=6, max_nodes=2000)
    assert chain is None


def test_search_budget_validation(q8):
    with pytest.raises(ValueError):
        search_equality(q8, q8.word("rho1"), q8.word("rho2"), max_word_len=0)


# corpus ------------------------------------------------------------------------

@pytest.mark.parametrize("fname", sorted(CORPUS))
def test_corpus_chain_replays(fname):
    n, start, end = CORPUS[fname]
    p = pure_braid_rp2(n)
    chain, declared_end = parse_chain_file((DATA_DIR / fname).read_text(), p)
    assert chain.start == p.word(start)
    assert declared_end == p.word(end)
    assert chain.end == declared_end
    assert check_derivation(chain).valid


def test_corpus_tool_rederives_n2_chains():
    # the tool's case table must match the corpus, and a live search must
    # reproduce each n=2 file byte for byte (the n=3 searches take minutes)
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("gen_chain_corpus", CORPUS_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sys.path == path_before  # loading CASES has no side effects
    assert {case[0]: case[1:4] for case in tool.CASES} == CORPUS
    n2_cases = [case for case in tool.CASES if case[1] == 2]
    assert n2_cases
    for fname, n, lhs, rhs, cap, nodes in n2_cases:
        p = pure_braid_rp2(n)
        chain = search_equality(p, p.word(lhs), p.word(rhs),
                                max_word_len=cap, max_nodes=nodes)
        assert format_chain(chain) == (DATA_DIR / fname).read_text(), fname


def test_corpus_chains_sound_in_finite_quotients(rp2_n2_table, rp2_n3_mod4_table):
    # cross-validate every corpus chain against a finite-quotient table:
    # words equal in the group stay equal in any quotient
    tables = {2: rp2_n2_table, 3: rp2_n3_mod4_table}
    for fname, (n, _, _) in CORPUS.items():
        p = pure_braid_rp2(n)
        chain, _ = parse_chain_file((DATA_DIR / fname).read_text(), p)
        for a, b in zip(chain.words, chain.words[1:]):
            assert word_equal_finite(tables[n], a, b)


def test_chain_round_trip(rp2_n2):
    chain = search_equality(rp2_n2, rp2_n2.gen("B12"), rp2_n2.word("rho1^2"),
                            max_word_len=10)
    assert chain is not None
    reparsed, end = parse_chain_file(format_chain(chain), rp2_n2)
    assert reparsed == chain
    assert end == chain.end


def test_chain_file_presentation_mismatch(rp2_n2):
    text = "presentation OTHER\nstart B12\nend B12\n"
    with pytest.raises(ChainError, match="OTHER"):
        parse_chain_file(text, rp2_n2)
