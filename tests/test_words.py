import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

from braidkernel import words
from braidkernel.base import Undecided
from braidkernel.words import (
    Word, WordError, cyclic_reduce, format_word,
    free_reduce_letters, letters_to_word, make_alphabet,
    parse_word, shortlex_compare, word_to_letters,
)

AB = make_alphabet(["a", "b"])
RHO = make_alphabet(["rho1", "rho2"])


def w(text, alphabet=AB):
    return parse_word(text, alphabet)


# parsing ---------------------------------------------------------------------

def test_parse_spec_examples():
    assert parse_word("rho1^2 * rho2^-2", RHO).syllables == ((0, 2), (1, -2))
    assert w("a * a^-1 * b").syllables == ((1, 1),)
    assert w("1").syllables == ()


def test_parse_whitespace_separator():
    assert w("a b a^-1") == w("a * b * a^-1")


def test_parse_exponent_zero_vanishes():
    assert w("a^0 b") == w("b")


def test_parse_errors_report_position():
    with pytest.raises(WordError, match="position 4"):
        w("a * c * b")
    with pytest.raises(WordError, match="malformed exponent"):
        w("a^x")
    with pytest.raises(WordError, match="unexpected '\\*'"):
        w("* a")
    with pytest.raises(WordError, match="separator"):
        w("a^2b")
    with pytest.raises(WordError):
        w("")


def test_overlong_exponent_is_a_word_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(WordError, match=r"^exponent too long at position 2$"):
        w("a^" + "9" * (limit + 1))


def test_identity_literal_only_stands_alone():
    with pytest.raises(WordError):
        w("a * 1")


def test_print_parse_round_trip():
    for text in ["1", "a", "a^-3*b^2*a", "b^5"]:
        word = w(text)
        assert parse_word(format_word(word), AB) == word


def test_alphabet_is_a_tuple_of_names():
    # generator i is the name at position i
    assert format_word(parse_word("a", ("a", "b"))) == "a"
    assert parse_word("b", ("a", "b")).syllables == ((1, 1),)


def test_duplicate_generator_names_rejected():
    with pytest.raises(WordError):
        make_alphabet(["a", "a"])
    with pytest.raises(WordError):
        make_alphabet(["a", "2b"])


_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT = re.compile(r"[+-]?[0-9]+")


def reference_parse_word(text, alphabet):
    """The word grammar as parse_word first read it, with a name lookup
    built on every call: the oracle for the cached lookup."""
    lookup = {name: i for i, name in enumerate(alphabet)}
    if text.strip() == "1":
        return Word.identity(alphabet)
    sylls = []
    i, n = 0, len(text)
    have_term, separated, star_pending = False, True, False
    while i < n:
        if text[i].isspace():
            separated = True
            i += 1
            continue
        if text[i] == "*":
            if not have_term or star_pending:
                raise WordError(f"unexpected '*' at position {i}")
            separated = star_pending = True
            i += 1
            continue
        m = _NAME.match(text, i)
        if not m:
            raise WordError(f"expected generator name at position {i}")
        if have_term and not separated:
            raise WordError(f"missing separator before position {i}")
        name = m.group()
        if name not in lookup:
            raise WordError(f"unknown generator {name!r} at position {i}")
        i = m.end()
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            em = _INT.match(text, i)
            if not em:
                raise WordError(f"malformed exponent at position {i}")
            exp = int(em.group())
            i = em.end()
        sylls.append((lookup[name], exp))
        have_term, separated, star_pending = True, False, False
    if not have_term:
        raise WordError("empty word text (use \"1\" for the identity)")
    if star_pending:
        raise WordError("trailing '*' without a term")
    return Word.from_syllables(alphabet, sylls)


def parse_outcome(parse, text, alphabet):
    try:
        return parse(text, alphabet)
    except WordError as exc:
        return str(exc)


# two alphabets over overlapping names, so a lookup cached for one cannot
# stand in for the other
PARSE_ALPHABETS = (make_alphabet(["a", "b", "rho1", "B1_2"]), make_alphabet(["rho1", "a", "c"]))
_TOKENS = ["a", "b", "c", "rho1", "B1_2", "rho", "x9", "1", "0", "^", "^2", "^-3", "^+1", "^x",
           "*", " ", "  ", "\t", "-", "_", "!"]
_terms = st.tuples(st.sampled_from(["a", "b", "c", "rho1", "B1_2"]),
                   st.one_of(st.just(""), st.integers(-20, 20).map(lambda e: f"^{e}")))
_valid_texts = st.lists(st.tuples(_terms, st.sampled_from([" ", " * ", "*", "\t"])),
                        min_size=1, max_size=8).map(
    lambda terms: "".join(name + exp + sep for (name, exp), sep in terms)[:-1])


@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join), _valid_texts),
       st.sampled_from(PARSE_ALPHABETS))
def test_parse_word_matches_reference_parser(text, alphabet):
    assert parse_outcome(parse_word, text, alphabet) == \
        parse_outcome(reference_parse_word, text, alphabet)


# arithmetic ------------------------------------------------------------------

def test_multiply_examples():
    assert w("a") * w("a^-1") == w("1")
    assert w("a^2") * w("a^3") == w("a^5")


def test_multiply_tau_factors_cancel():
    # B12 * (B12^-1 rho2^2) collapses to rho2^2 by free cancellation
    alphabet = make_alphabet(["B12", "rho1", "rho2"])
    t21 = parse_word("B12", alphabet)
    t22 = parse_word("B12^-1 * rho2^2", alphabet)
    assert t21 * t22 == parse_word("rho2^2", alphabet)


def test_multiply_alphabet_mismatch():
    with pytest.raises(WordError):
        w("a") * parse_word("rho1", RHO)


def test_invert_examples():
    assert w("1").inverse() == w("1")
    assert w("a^2 * b^-1").inverse() == w("b * a^-2")


def test_cyclic_reduce_examples():
    core, conj = cyclic_reduce(w("a b a^-1"))
    assert (core, conj) == (w("b"), w("a"))
    already = w("a b")
    assert cyclic_reduce(already) == (already, w("1"))
    core, conj = cyclic_reduce(w("a^2 b a^-2"))
    assert (core, conj) == (w("b"), w("a^2"))


def test_cyclic_reduce_reassembles():
    for text in ["a b a^-1", "a^2 b a^-2", "b^-1 a^3 b", "a b", "1", "a^4"]:
        word = w(text)
        core, conj = cyclic_reduce(word)
        assert conj * core * conj.inverse() == word
        lc = word_to_letters(core)
        assert not lc or lc[0] != lc[-1] ^ 1


def test_shortlex_examples():
    assert shortlex_compare(w("1"), w("a")) == -1
    assert shortlex_compare(w("a b"), w("b a")) == -1
    assert shortlex_compare(w("a^2"), w("a b")) == -1
    assert shortlex_compare(w("a b"), w("a b")) == 0
    assert shortlex_compare(w("b"), w("a")) == 1


# randomized properties ---------------------------------------------------------

syllable_lists = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-3, 3)), max_size=12)


def reduce_in_random_order(letters, rng):
    """Oracle reducer: cancel random adjacent inverse pairs until none."""
    letters = list(letters)
    while True:
        pairs = [i for i in range(len(letters) - 1)
                 if letters[i] == letters[i + 1] ^ 1]
        if not pairs:
            return tuple(letters)
        i = rng.choice(pairs)
        del letters[i:i + 2]


@given(syllable_lists, st.integers(0, 2 ** 32 - 1))
def test_free_reduction_canonical(sylls, seed):
    word = Word.from_syllables(AB, sylls)
    raw = []
    for g, e in sylls:
        letter = 2 * g if e > 0 else 2 * g + 1
        raw.extend([letter] * abs(e))
    rng = random.Random(seed)
    assert reduce_in_random_order(raw, rng) == word_to_letters(word)
    assert free_reduce_letters(raw) == word_to_letters(word)


@given(syllable_lists, syllable_lists, syllable_lists)
def test_group_axioms(s1, s2, s3):
    u = Word.from_syllables(AB, s1)
    v = Word.from_syllables(AB, s2)
    x = Word.from_syllables(AB, s3)
    e = Word.identity(AB)
    assert (u * v) * x == u * (v * x)
    assert u * e == u and e * u == u
    assert u * u.inverse() == e and u.inverse() * u == e
    assert u.inverse().inverse() == u


@given(st.lists(syllable_lists, max_size=4))
def test_join_reduced_matches_full_normalization(parts):
    # the parts are reduced; only their junctions merge or cancel
    parts = [Word.from_syllables(AB, sylls).syllables for sylls in parts]
    joined = words.join_reduced(AB, parts)
    assert joined == Word.from_syllables(AB, [s for part in parts for s in part])
    assert Word(AB, joined.syllables) == joined  # a valid Word: no zero exponent, no merge left


@given(syllable_lists, syllable_lists)
def test_length_subadditive(s1, s2):
    u = Word.from_syllables(AB, s1)
    v = Word.from_syllables(AB, s2)
    assert (u * v).letter_length <= u.letter_length + v.letter_length


@given(syllable_lists, syllable_lists, syllable_lists)
def test_shortlex_total_order(s1, s2, s3):
    u = Word.from_syllables(AB, s1)
    v = Word.from_syllables(AB, s2)
    x = Word.from_syllables(AB, s3)
    cuv, cvu = shortlex_compare(u, v), shortlex_compare(v, u)
    assert cuv == -cvu
    assert (cuv == 0) == (u == v)
    # transitivity
    if cuv <= 0 and shortlex_compare(v, x) <= 0:
        assert shortlex_compare(u, x) <= 0


@given(syllable_lists, syllable_lists,
       st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.integers(0, 3), max_size=4))
def test_shortlex_context_compatible_on_letters(s1, s2, left, right):
    # the rewriting engine relies on raw-letter shortlex being stable
    # under context (no implicit free reduction there)
    lu = word_to_letters(Word.from_syllables(AB, s1))
    lv = word_to_letters(Word.from_syllables(AB, s2))
    if (len(lu), lu) < (len(lv), lv):
        a, b = tuple(left), tuple(right)
        assert (len(a + lu + b), a + lu + b) < (len(a + lv + b), a + lv + b)


def test_letters_round_trip():
    for text in ["1", "a^3", "a b^-2 a^-1", "b"]:
        word = w(text)
        assert letters_to_word(AB, word_to_letters(word)) == word


def test_word_invariants_enforced():
    with pytest.raises(WordError):
        Word(AB, ((0, 0),))
    with pytest.raises(WordError):
        Word(AB, ((0, 1), (0, 2)))
    with pytest.raises(WordError):
        Word(AB, ((5, 1),))


# syllable-level kernels against letter-level references -------------------------

def cyclic_reduce_by_letters(word):
    """Reference: strip matching end letters one pair at a time."""
    letters = list(word_to_letters(word))
    prefix = []
    while len(letters) >= 2 and letters[0] == letters[-1] ^ 1:
        prefix.append(letters[0])
        letters = letters[1:-1]
    return (letters_to_word(word.alphabet, letters),
            letters_to_word(word.alphabet, prefix))


# words shaped like conjugates, so the end syllables often cancel
conjugate_shaped = st.tuples(syllable_lists, syllable_lists).map(
    lambda cs: cs[0] + cs[1] + [(g, -e) for g, e in reversed(cs[0])])


@given(st.one_of(syllable_lists, conjugate_shaped))
def test_cyclic_reduce_matches_letter_reference(sylls):
    word = Word.from_syllables(AB, sylls)
    assert cyclic_reduce(word) == cyclic_reduce_by_letters(word)


@given(st.one_of(syllable_lists, conjugate_shaped), st.integers(-8, 8))
def test_power_is_repeated_product(sylls, n):
    word = Word.from_syllables(AB, sylls)
    expected = Word.identity(AB)
    for _ in range(abs(n)):
        expected = expected * (word if n > 0 else word.inverse())
    assert word ** n == expected


def test_power_examples():
    assert w("a b a^-1") ** 3 == w("a b^3 a^-1")
    assert w("a^2 b a^-1") ** 2 == w("a^2 b a b a^-1")
    assert w("a b") ** -2 == w("b^-1 a^-1 b^-1 a^-1")
    assert w("a b^2 a") ** 2 == w("a b^2 a^2 b^2 a")
    assert w("1") ** 5 == w("1")
    assert w("a") ** 0 == w("1")
    with pytest.raises(TypeError):
        w("a") ** 1.5


def test_power_scale():
    # a one-syllable core stays one syllable, whatever the exponent
    assert w("a b^3 a^-1") ** 10 ** 9 == w("a b^3000000000 a^-1")
    big = w("a b") ** 100000
    assert big.letter_length == 200000
    assert len(big.syllables) == 200000


def test_letter_expansion_limit(monkeypatch):
    monkeypatch.setattr(words, "MAX_LETTERS", 6)
    assert word_to_letters(w("a^4 b^-2")) == (0, 0, 0, 0, 3, 3)
    with pytest.raises(Undecided, match=r"^a word of 7 letters is over the 6-letter "
                                        r"expansion limit$"):
        word_to_letters(w("a^4 b^-3"))


def test_power_syllable_limit(monkeypatch):
    monkeypatch.setattr(words, "MAX_LETTERS", 6)
    assert (w("a b") ** 3).syllables == ((0, 1), (1, 1)) * 3
    assert (w("a b") ** -3).syllables == ((1, -1), (0, -1)) * 3
    with pytest.raises(Undecided, match=r"^a power of 8 syllables is over the 6-letter "
                                        r"expansion limit$"):
        w("a b") ** 4
    with pytest.raises(Undecided):
        w("a b") ** -4
    # only the repeated core counts: here b a * (a b^-2)^3 * a^-1 b^-1
    u = w("b a^2 b^-2 a^-1 b^-1")
    assert u ** 3 == u * u * u
    # a one-syllable core stays one syllable, whatever the exponent
    assert w("b a b^-1") ** 10 ** 20 == w(f"b a^{10 ** 20} b^-1")
