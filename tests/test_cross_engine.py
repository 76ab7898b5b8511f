"""Engines checked against each other: on a presentation where both
finish, Todd-Coxeter and Knuth-Bendix describe the same finite group,
no index-2 witness separates two words the coset table calls equal, and
on P3(RP2) every search chain joins words the strand-forgetting tower calls
equal.
Each engine refuses a word over another alphabet with its own error."""

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    BraidkernelError, ChainError, DerivationStep, EnumerationError, GroupHom, PresentationError,
    apply_step, check_derivation, enumerate_normal_forms, group_order, hom_check,
    is_central_finite, knuth_bendix, normal_form, presentation, pure_braid_rp2, quotient,
    search_equality, substitute, table_equality_oracle, todd_coxeter, word_equal_finite,
)
from braidkernel import tower
from braidkernel.commands.chain import tower_links
from braidkernel.presentations import Presentation
from braidkernel.schreier import check_witness, find_witness
from braidkernel.words import Word, letters_to_word, parse_word


@st.composite
def finished_engines(draw):
    """The von Dyck group <a, b | a^k, b^m, (ab)^n> for k, m, n in 2-5
    (finite for the spherical triples, up to order 60) or the cyclic
    group <a | a^k>, with 0-2 random relators added; its coset table and
    rewriting system; and 10 random word pairs."""
    k, m, n = (draw(st.integers(2, 5)) for _ in range(3))
    if draw(st.booleans()):
        names, rels = ("a", "b"), [[0] * k, [2] * m, [0, 2] * n]
    else:
        names, rels = ("a",), [[0] * k]
    letters = st.integers(0, 2 * len(names) - 1)
    rels += draw(st.lists(st.lists(letters, min_size=1, max_size=8), max_size=2))
    p = Presentation("random", names, tuple(letters_to_word(names, r) for r in rels))
    words = st.lists(letters, max_size=8).map(lambda w: letters_to_word(names, w))
    pairs = draw(st.lists(st.tuples(words, words), min_size=10, max_size=10))
    return todd_coxeter(p, max_cosets=200), knuth_bendix(p, max_rules=40), pairs


@settings(max_examples=150, deadline=None)
@given(finished_engines())
def test_coset_table_and_rewriting_agree(engines):
    table, rs, pairs = engines
    if not (table.is_complete and rs.confluent):
        return
    order = group_order(table)
    # limit: a confluent system with more normal forms than the order raises
    assert len(enumerate_normal_forms(rs, limit=order)) == order
    for u, v in pairs:
        assert word_equal_finite(table, u, v) == (normal_form(rs, u) == normal_form(rs, v))


@settings(max_examples=150, deadline=None)
@given(finished_engines())
def test_a_witness_separates_only_what_a_complete_table_separates(engines):
    table, _, pairs = engines
    if not table.is_complete:
        return
    p = table.presentation
    for u, v in pairs:
        witness = find_witness(p, u, v)
        if witness is not None:
            assert check_witness(p, u, v, witness)
            assert not word_equal_finite(table, u, v)


P3 = pure_braid_rp2(3)
P3_ORACLE = tower.Tower(3)


@st.composite
def p3_search_cases(draw):
    """A P3(RP2) start word and a goal: random (the tower separates most
    such pairs), or the start with one or two relators inserted, which
    small budgets often join by a chain."""
    letters = st.lists(st.integers(0, 2 * P3.ngens - 1), min_size=1, max_size=5)
    u = letters_to_word(P3.alphabet, draw(letters))
    if draw(st.booleans()):
        return u, letters_to_word(P3.alphabet, draw(letters))
    v = u
    for _ in range(draw(st.integers(1, 2))):
        ri = draw(st.integers(0, len(P3.relators) - 1))
        v = apply_step(P3, v, DerivationStep(
            ri, draw(st.integers(0, P3.relators[ri].letter_length - 1)),
            draw(st.sampled_from((1, -1))), draw(st.integers(0, v.letter_length))))
    return u, v


@settings(max_examples=150, deadline=None)
@given(p3_search_cases(), st.integers(0, 4), st.integers(1, 300))
def test_search_chains_join_only_what_the_fiber_calls_equal(case, slack, max_nodes):
    # the premise of equal --search asking the tower first: a pair the tower
    # separates has no chain, so the search never finds one for it
    u, v = case
    # both words can reduce to the identity; the search refuses a cap under 1
    max_word_len = max(u.letter_length, v.letter_length, 1) + slack
    chain = search_equality(P3, u, v, max_word_len=max_word_len, max_nodes=max_nodes)
    if chain is not None:
        assert (chain.start, chain.end) == (u, v)
        assert P3_ORACLE(u, v)
    if not P3_ORACLE(u, v):
        assert chain is None


Z5 = presentation("Z5", ["a"], ["a^5"])
X = presentation("X", ["x"], []).gen("x")  # a generator over another one-letter alphabet
# six generators, as many as P3(RP2) has, so a walk of the tower's levels would misread them
F6 = presentation("F6", list("abcdef"), [])
P2 = pure_braid_rp2(2)  # rho1 and rho2 are its letters 1 and 2, P3(RP2)'s B13 and B23


@pytest.mark.parametrize("call,error,message", [
    (lambda: todd_coxeter(Z5).trace_word(1, X), EnumerationError, "table's alphabet"),
    (lambda: apply_step(Z5, X, DerivationStep(0, 0, 1, 0)), ChainError, "presentation's alphabet"),
    (lambda: search_equality(Z5, X, Z5.word("a^2")), ChainError, "presentation's alphabet"),
    (lambda: normal_form(knuth_bendix(Z5), X), BraidkernelError, "rewriting system's alphabet"),
    (lambda: substitute(GroupHom(Z5, Z5, (Z5.gen("a"),)), X), PresentationError, "source alphabet"),
    (lambda: Z5.gen("x"), PresentationError, "no generator named 'x'"),
    (lambda: P3_ORACLE(F6.word("a b"), F6.word("b a")), EnumerationError, "tower's alphabet"),
    (lambda: P3_ORACLE(P2.gen("rho1"), P2.gen("rho2")), EnumerationError, "tower's alphabet"),
    (lambda: find_witness(P3, F6.gen("d"), F6.gen("e")), EnumerationError,
     "presentation's alphabet"),
    (lambda: P3_ORACLE.central(pure_braid_rp2(4).gen("rho4")), EnumerationError,
     "tower's alphabet"),
], ids=["trace_word", "apply_step", "search_equality", "normal_form", "substitute", "gen",
        "fiber_oracle", "fiber_oracle-P2", "find_witness", "fiber_oracle-P4"])
def test_foreign_word_gets_the_engines_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


class NamesOnce(tuple):
    """An alphabet that refuses ==, != and hash, each of which walks every name, past the
    ``compares`` it is allowed: a gate's one look at the names of a presentation."""

    compares = 0

    def __eq__(self, other):
        if not self.compares:
            raise AssertionError("the alphabet was compared name by name")
        self.compares -= 1
        return tuple(self) == tuple(other)

    __ne__ = __eq__

    def __hash__(self):
        raise AssertionError("the alphabet was hashed")


def test_every_engine_tests_one_alphabet_by_identity():
    # on a k-generator presentation a comparison or a hash costs k: no engine may
    # pay it per word when both sides are one alphabet (words.same_alphabet)
    names = NamesOnce(("a", "b"))
    p = Presentation("S3", names, tuple(parse_word(r, names) for r in ("a^2", "b^3", "a b a b")))
    a, b, one = (parse_word(text, names) for text in ("a", "b", "1"))
    table = todd_coxeter(p)
    assert group_order(table) == 6 and not is_central_finite(table, a)
    assert word_equal_finite(table, a * b, b.inverse() * a)
    assert todd_coxeter(p, [a]).trace_word(1, b) == 2
    assert group_order(todd_coxeter(quotient(p, [b]))) == 2
    assert normal_form(knuth_bendix(p), b * b) == b.inverse()
    chain = search_equality(p, a * b, b.inverse() * a)
    assert chain is not None and check_derivation(chain).valid
    assert apply_step(p, one, DerivationStep(0, 0, 1, 0)) == a * a
    witness = find_witness(p, a, one)
    assert witness is not None and check_witness(p, a, one, witness)
    assert hom_check(GroupHom(p, p, (a, b)), table_equality_oracle(table)).verified
    # the tower the answer chain builds for P3(RP2) over an alphabet of the same names: its
    # gate reads the names once, and no word pays that again
    strict = NamesOnce(P3.alphabet)
    strict.compares = 1
    p3 = Presentation(P3.name, strict, tuple(Word(strict, r.syllables) for r in P3.relators))
    (_, call), = tower_links(p3, lambda tower: tower)
    oracle = call()
    assert oracle.alphabet is strict and not strict.compares
    rho1, rho2 = (parse_word(name, strict) for name in ("rho1", "rho2"))
    assert oracle(rho1 * rho2 * rho1 * rho2, rho2 * rho1 * rho2 * rho1)
    assert not oracle(rho1, rho2)
