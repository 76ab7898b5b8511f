import importlib.util
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    ChainError, DerivationChain, DerivationStep, Presentation, apply_step,
    b_ij_as_rho, build_chain, check_derivation, derivations, format_chain,
    parse_chain_file, pure_braid_rp2, quaternion_presentation, search_equality,
    word_equal_finite,
)
from braidkernel.words import Word, free_reduce_letters, letters_to_word, word_to_letters

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

def reference_search(p, u, v, max_word_len, max_nodes):
    """Reference oracle for ``search_equality``: the same breadth-first
    walk, rebuilding and freely reducing every candidate word.  Returns
    the steps of the chain found, or None."""
    start, goal = word_to_letters(u), word_to_letters(v)
    if start == goal:
        return ()
    identity = Word.identity(p.alphabet)
    variants = {}
    for ri, rel in enumerate(p.relators):
        for rot in range(rel.letter_length):
            for direction in (1, -1):
                step = DerivationStep(ri, rot, direction, 0)
                ins = word_to_letters(apply_step(p, identity, step))
                variants.setdefault(ins, step)
    came_from = {start: None}
    frontier = [start]
    for word in frontier:
        for ins, step in variants.items():
            for pos in range(len(word) + 1):
                new = free_reduce_letters(word[:pos] + ins + word[pos:])
                if len(new) > max_word_len or new in came_from:
                    continue
                came_from[new] = (word, DerivationStep(step.relator, step.rotation,
                                                       step.direction, pos))
                if new == goal:
                    steps = []
                    while came_from[new] is not None:
                        new, step = came_from[new]
                        steps.append(step)
                    return tuple(reversed(steps))
                if len(came_from) >= max_nodes:
                    return None
                frontier.append(new)
    return None


SEARCH_GROUPS = (quaternion_presentation(), pure_braid_rp2(2), pure_braid_rp2(3))


@st.composite
def search_cases(draw):
    """A group, a start word, and a goal: random, or the start with one
    or two relators inserted so that small budgets find a chain often."""
    p = draw(st.sampled_from(SEARCH_GROUPS))
    letters = st.lists(st.integers(0, 2 * p.ngens - 1), min_size=1, max_size=5)
    u = letters_to_word(p.alphabet, draw(letters))
    if draw(st.booleans()):
        return p, u, letters_to_word(p.alphabet, draw(letters))
    v = u
    for _ in range(draw(st.integers(1, 2))):
        ri = draw(st.integers(0, len(p.relators) - 1))
        v = apply_step(p, v, DerivationStep(
            ri, draw(st.integers(0, p.relators[ri].letter_length - 1)),
            draw(st.sampled_from((1, -1))), draw(st.integers(0, v.letter_length))))
    return p, u, v


@settings(max_examples=80, deadline=None)
@given(search_cases(), st.integers(-1, 4), st.integers(1, 400))
def test_search_matches_reference_walk(case, slack, max_nodes):
    # the word cap sits just below to a little above the longer endpoint
    p, u, v = case
    max_word_len = max(1, max(u.letter_length, v.letter_length) + slack)
    chain = search_equality(p, u, v, max_word_len=max_word_len, max_nodes=max_nodes)
    expected = reference_search(p, u, v, max_word_len, max_nodes)
    assert (None if chain is None else chain.steps) == expected


def test_search_max_nodes_cut_matches_reference(rp2_n2):
    # 505 distinct words are the fewest that reach the B12 identity at cap 12
    u, v = rp2_n2.gen("B12"), b_ij_as_rho(2, 1, 2)
    assert reference_search(rp2_n2, u, v, 12, 504) is None
    assert search_equality(rp2_n2, u, v, max_word_len=12, max_nodes=504) is None
    chain = search_equality(rp2_n2, u, v, max_word_len=12, max_nodes=505)
    assert chain.steps == reference_search(rp2_n2, u, v, 12, 505)


reduced_letters = st.lists(st.integers(0, 3), max_size=10).map(free_reduce_letters)


@given(reduced_letters, reduced_letters, st.data())
def test_splice_matches_free_reduction(word, extra, data):
    # the insertion is either random or the inverse of a slice of word
    # plus random letters, so that it often cancels completely
    a = data.draw(st.integers(0, len(word)))
    b = data.draw(st.integers(a, len(word)))
    for ins in (extra, free_reduce_letters([x ^ 1 for x in reversed(word[a:b])] + list(extra))):
        for pos in range(len(word) + 1):
            i, j, k, r = derivations._splice(word, ins, pos)
            assert word[:i] + ins[j:k] + word[r:] == \
                free_reduce_letters(word[:pos] + ins + word[pos:])


def test_search_checks_its_chain(q8, monkeypatch):
    # a splice that wrongly cancels everything "reaches" the identity at
    # once; the replay through apply_step exposes it
    monkeypatch.setattr(derivations, "_splice", lambda word, ins, pos: (0, 0, 0, len(word)))
    with pytest.raises(ChainError, match="replays to"):
        search_equality(q8, q8.word("rho1"), q8.word("1"), max_word_len=6)


def test_search_goal_over_cap_is_undecided_at_once(rp2_n2, monkeypatch):
    def no_splice(word, ins, pos):
        raise AssertionError("searched for a goal longer than the cap")
    monkeypatch.setattr(derivations, "_splice", no_splice)
    assert search_equality(rp2_n2, rp2_n2.word("B12"), rp2_n2.word("rho1^6"),
                           max_word_len=5) is None


def test_search_reduces_insertions_of_non_cyclic_relators(q8):
    # Presentation stores relators cyclically reduced; a conjugated relator
    # (its rotations not freely reduced) still searches like the reference
    p = Presentation("conj", q8.alphabet, q8.relators)
    conj = q8.word("rho2 rho1^4 rho2^-1")
    object.__setattr__(p, "relators", (conj, q8.relators[2]))
    for lhs, rhs in (("rho2", "rho1^4 rho2"), ("rho1", "rho1^-3"), ("rho1 rho2", "rho2")):
        u, v = p.word(lhs), p.word(rhs)
        chain = search_equality(p, u, v, max_word_len=8, max_nodes=3000)
        assert (None if chain is None else chain.steps) == \
            reference_search(p, u, v, 8, 3000)


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

def load_corpus_tool():
    path_before = list(sys.path)
    spec = importlib.util.spec_from_file_location("gen_chain_corpus", CORPUS_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert sys.path == path_before  # loading CASES has no side effects
    return tool


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
    # reproduce each n=2 file byte for byte (the n=3 files are checked by
    # the test below and by regenerating the corpus in CI)
    tool = load_corpus_tool()
    assert {case[0]: case[1:4] for case in tool.CASES} == CORPUS
    n2_cases = [case for case in tool.CASES if case[1] == 2]
    assert n2_cases
    for fname, n, lhs, rhs, cap, nodes in n2_cases:
        p = pure_braid_rp2(n)
        chain = search_equality(p, p.word(lhs), p.word(rhs),
                                max_word_len=cap, max_nodes=nodes)
        assert format_chain(chain) == (DATA_DIR / fname).read_text(), fname


def test_search_rederives_braidlike_n3_chain():
    # about 2 s; the two conj_rho_squared_n3 searches take 10-15 s each,
    # so CI pins them by regenerating the corpus instead
    fname, n, lhs, rhs, cap, nodes = next(
        case for case in load_corpus_tool().CASES if case[0] == "braidlike_n3.chain")
    p = pure_braid_rp2(n)
    chain = search_equality(p, p.word(lhs), p.word(rhs), max_word_len=cap, max_nodes=nodes)
    assert format_chain(chain) == (DATA_DIR / fname).read_text()


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
