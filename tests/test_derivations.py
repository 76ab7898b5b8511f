import importlib.util
import itertools
import pathlib
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    ChainError, DerivationChain, DerivationReport, DerivationStep, Presentation, apply_step,
    b_ij_as_rho, check_derivation, derivations, format_chain,
    parse_chain_file, presentation, pure_braid_rp2, quaternion_presentation,
    search_equality, tau_n, word_equal_finite,
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


def chain_words(chain):
    """The words a chain passes through, replayed step by step."""
    words = [chain.start]
    for step in chain.steps:
        words.append(apply_step(chain.presentation, words[-1], step))
    return words


def test_single_word_chain_is_valid(rp2_n2):
    w = rp2_n2.word("B12 rho1")
    report = check_derivation(DerivationChain(rp2_n2, w, (), w))
    assert report == DerivationReport(True, None, "0 steps replayed", w)


def test_apply_step_inserts_rotated_relator(rp2_n2):
    # relator 1 is rho1^2 B12^-1; prepending it to B12 cancels the B12
    w = rp2_n2.word("B12")
    step = DerivationStep(relator=1, rotation=0, direction=1, position=0)
    assert apply_step(rp2_n2, w, step) == rp2_n2.word("rho1^2")
    # the same relator rotated so B12^-1 comes first, inserted after
    rotated = DerivationStep(relator=1, rotation=2, direction=1, position=1)
    assert apply_step(rp2_n2, w, rotated) == rp2_n2.word("rho1^2")


def test_wrong_chain_reports_first_failing_step(rp2_n2):
    # step 0 applies (B12 -> rho1^2), step 1 names a relator that does not exist
    steps = (DerivationStep(1, 0, 1, 0), DerivationStep(99, 0, 1, 0), DerivationStep(1, 0, 1, 0))
    chain = DerivationChain(rp2_n2, rp2_n2.word("B12"), steps, rp2_n2.word("rho1^2"))
    assert check_derivation(chain) == DerivationReport(
        False, 1, "relator index 99 out of range")


def test_wrong_end_reports_the_replayed_word(rp2_n2):
    chain = DerivationChain(rp2_n2, rp2_n2.word("B12"), (DerivationStep(1, 0, 1, 0),),
                            rp2_n2.word("rho2^2"))
    assert check_derivation(chain) == DerivationReport(
        False, None, "chain replays but ends at rho1^2, file declares rho2^2",
        rp2_n2.word("rho1^2"))


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


def test_malformed_chain_structure_raises(rp2_n2, q8):
    # a chain with no steps compares its two words only; both must still
    # be over the presentation's alphabet
    for start, end in ((q8.word("rho1"), q8.word("rho1")),
                       (rp2_n2.word("B12"), q8.word("rho1"))):
        with pytest.raises(ChainError, match="wrong alphabet"):
            check_derivation(DerivationChain(rp2_n2, start, (), end))


def reference_apply_step(p, w, step):
    """apply_step on letters: expand w, splice, freely reduce the whole word."""
    insertion = derivations._step_insertion(p, step)
    letters = word_to_letters(w)
    if not 0 <= step.position <= len(letters):
        raise ChainError(f"position {step.position} out of range (word length {len(letters)})")
    return letters_to_word(p.alphabet, free_reduce_letters(
        letters[:step.position] + insertion + letters[step.position:]))


STEP_GROUPS = (quaternion_presentation(), pure_braid_rp2(2), pure_braid_rp2(3))


@st.composite
def step_cases(draw):
    """A group, a word of random syllables and a step; the word often holds
    the inverse of the step's insertion, so that it can cancel completely."""
    p = draw(st.sampled_from(STEP_GROUPS))
    syllables = st.lists(st.tuples(st.integers(0, p.ngens - 1), st.integers(-3, 3)), max_size=6)
    ri = draw(st.integers(0, len(p.relators) - 1))
    rotation = draw(st.integers(0, p.relators[ri].letter_length - 1))
    direction = draw(st.sampled_from((1, -1)))
    middle = Word.identity(p.alphabet)
    if draw(st.booleans()):
        middle = letters_to_word(p.alphabet, derivations._step_insertion(
            p, DerivationStep(ri, rotation, -direction, 0)))
    w = (Word.from_syllables(p.alphabet, draw(syllables)) * middle
         * Word.from_syllables(p.alphabet, draw(syllables)))
    position = draw(st.integers(-2, w.letter_length + 2))
    return p, w, DerivationStep(ri, rotation, direction, position)


def outcome(apply, p, w, step):
    try:
        return apply(p, w, step)
    except ChainError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_apply_step_matches_the_letter_splice(case):
    # the per-syllable split gives the word, or the error, of the letter splice
    assert outcome(apply_step, *case) == outcome(reference_apply_step, *case)


def test_replay_expands_each_distinct_insertion_once(monkeypatch):
    # 400 steps of two distinct insertions; the replay reports what apply_step does
    p = pure_braid_rp2(3)
    expansions = 0
    step_insertion = derivations._step_insertion

    def counting(p, step):
        nonlocal expansions
        expansions += 1
        return step_insertion(p, step)

    monkeypatch.setattr(derivations, "_step_insertion", counting)
    steps = tuple(DerivationStep(11, 3, (-1) ** t, 0) for t in range(400))
    word = p.word("rho1 B12")
    for step in steps:
        word = apply_step(p, word, step)
    expansions = 0
    assert check_derivation(DerivationChain(p, p.word("rho1 B12"), steps, word)).valid
    assert expansions == 2


@settings(max_examples=100, deadline=None)
@given(step_cases(), st.lists(st.integers(0, 3), min_size=1, max_size=6))
def test_replay_reports_what_apply_step_reports(case, picks):
    # a chain of steps drawn from one case's step and its neighbours, some out of range:
    # the replay fails at the step apply_step first fails on, with its message
    p, w, step = case
    pool = (step, DerivationStep(step.relator, step.rotation, -step.direction, 0),
            DerivationStep(step.relator, step.rotation + 1, step.direction, 1),
            DerivationStep(len(p.relators), 0, 1, 0))
    steps = tuple(pool[k] for k in picks)
    word, expected = w, None
    for t, s in enumerate(steps):
        try:
            word = apply_step(p, word, s)
        except ChainError as exc:
            expected = (t, str(exc))
            break
    report = check_derivation(DerivationChain(p, w, steps, w))
    if expected is None:
        assert report.failing_step is None and report.end == word
    else:
        assert (report.failing_step, report.message) == expected


def test_long_chain_replays_in_linear_time():
    # each step prepends the relator a^1000: expanding the whole word at
    # every step made this replay take about 18 s
    p = presentation("G", ["a"], ["a^1000"])
    chain = parse_chain_file("start 1\n" + "step 0 0 1 0\n" * 400 + "end a^400000\n", p)
    start = time.perf_counter()
    assert check_derivation(chain).message == "400 steps replayed"
    assert time.perf_counter() - start < 5


# search ------------------------------------------------------------------------

def reference_walk(p, u, max_word_len):
    """Reference for the breadth-first walk of ``search_equality``:
    every insertion at every position, each candidate rebuilt and freely
    reduced.  Yields each new word under the cap, in visit order, with
    the word and the step it came from; a start over the cap has none."""
    identity = Word.identity(p.alphabet)
    variants = {}
    for ri, rel in enumerate(p.relators):
        for rot in range(rel.letter_length):
            for direction in (1, -1):
                step = DerivationStep(ri, rot, direction, 0)
                ins = word_to_letters(apply_step(p, identity, step))
                variants.setdefault(ins, step)
    start = word_to_letters(u)
    seen = {start}
    frontier = [start] if len(start) <= max_word_len else []
    for word in frontier:
        for ins, step in variants.items():
            for pos in range(len(word) + 1):
                new = free_reduce_letters(word[:pos] + ins + word[pos:])
                if len(new) > max_word_len or new in seen:
                    continue
                seen.add(new)
                yield new, word, DerivationStep(step.relator, step.rotation, step.direction, pos)
                frontier.append(new)


def reference_search(p, u, v, max_word_len, max_nodes):
    """Reference oracle for ``search_equality`` on ``reference_walk``.
    Returns the steps of the chain found, or None."""
    start, goal = word_to_letters(u), word_to_letters(v)
    if start == goal:
        return ()
    came_from = {start: None}
    for new, word, step in reference_walk(p, u, max_word_len):
        came_from[new] = (word, step)
        if new == goal:
            steps = []
            while came_from[new] is not None:
                new, step = came_from[new]
                steps.append(step)
            return tuple(reversed(steps))
        if len(came_from) >= max_nodes:
            return None
    return None


# beside the paper's groups, a one-letter relator (its insertions have no
# second letter) and a two-letter one (its insertions' left and right
# cancelling pairs are the same pair)
Z3 = presentation("Z3", ["a", "b"], ["a", "b^3"])
SEARCH_GROUPS = (quaternion_presentation(), pure_braid_rp2(2), pure_braid_rp2(3), Z3,
                 presentation("Z2xZ", ["a", "b"], ["a^2", "a b a^-1 b^-1"]))


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


def test_one_letter_insertion_cancels_two_pairs():
    # inserting a^-1 at 1 into b a b^-1 a^2 cancels a and then b with b^-1,
    # so one step reaches a^2
    chain = search_equality(Z3, Z3.word("b a b^-1 a^2"), Z3.word("a^2"), max_word_len=5)
    assert chain.steps == (DerivationStep(0, 0, -1, 1),)
    assert chain.steps == reference_search(Z3, chain.start, chain.end, 5, 10)


def certify_pairs():
    """The P3(RP2) identity pairs the benchmark's certify workload searches:
    B_ij as rhos, its conjugation of rho_j, the braid-like rho_i rho_j
    relation and tau_3 central, for each strand pair."""
    p = pure_braid_rp2(3)
    for i, j in ((1, 2), (1, 3), (2, 3)):
        ri, rj, bij = f"rho{i}", f"rho{j}", f"B{i}{j}"
        yield p.word(bij), p.word(f"{rj} {ri}^-1 {rj}^-1 {ri}")
        yield p.word(f"{bij}^-1 {rj} {bij}"), p.word(f"{ri}^-2 {rj} {ri}^2")
        yield p.word(f"{ri} {rj} {ri} {rj}"), p.word(f"{rj} {ri} {rj} {ri}")
        yield tau_n(3) * p.word(rj), p.word(rj) * tau_n(3)


def assert_same_walk(p, u, max_word_len, max_nodes):
    """The search visits the first max_nodes words of the reference walk
    from u: it finds the last of them at exactly that node count, by the
    reference's path.  Skipping a word before it, or visiting one the
    reference does not, would move the count."""
    walk = list(itertools.islice(reference_walk(p, u, max_word_len), max_nodes - 1))
    if not walk:
        return
    nodes = len(walk) + 1  # the start is node 1
    goal = letters_to_word(p.alphabet, walk[-1][0])
    chain = search_equality(p, u, goal, max_word_len=max_word_len, max_nodes=nodes)
    assert chain is not None and chain.steps == reference_search(p, u, goal, max_word_len, nodes)
    if nodes > 2:  # with one budget node the first new word is still compared to the goal
        assert search_equality(p, u, goal, max_word_len=max_word_len, max_nodes=nodes - 1) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_matches_reference_on_certify_pairs(seed):
    # At cap 12 the walk reaches words near the cap within a few hundred
    # nodes, so insertions 3 or more letters over it go through the
    # adjacent-pair filter.  The certify pairs are not found within 1000
    # words, so the walk is also compared up to a seeded node count
    p, rng = pure_braid_rp2(3), random.Random(seed)
    for u, v in certify_pairs():
        max_nodes = rng.randint(100, 1000)
        chain = search_equality(p, u, v, max_word_len=12, max_nodes=max_nodes)
        assert (None if chain is None else chain.steps) == \
            reference_search(p, u, v, 12, max_nodes)
        assert_same_walk(p, u, 12, rng.randint(max_nodes // 2, max_nodes))


@pytest.mark.parametrize("p", SEARCH_GROUPS, ids=lambda p: p.name)
def test_search_walk_matches_reference(p):
    # seeded starts of 3-8 letters, the cap from 3 below to 2 above them
    rng = random.Random(p.name)
    for _ in range(30):
        u = letters_to_word(p.alphabet, free_reduce_letters(
            [rng.randrange(2 * p.ngens) for _ in range(rng.randint(3, 8))]))
        cap = max(1, u.letter_length + rng.randint(-3, 2))
        assert_same_walk(p, u, cap, 300)


def test_search_skips_splices_that_cannot_fit_the_cap(monkeypatch):
    # the braid-like P3(RP2) pair exhausts 4000 words at cap 12; splicing
    # every junction position made 78416 _splice calls, of which 11120 fit.
    # Splicing every junction of an insertion 3 or more letters over the cap
    # once the word held one of its cancelling pairs made 40608; splicing
    # only where a pair sits makes 20084
    p = pure_braid_rp2(3)
    calls = 0
    splice = derivations._splice

    def counting(word, ins, pos):
        nonlocal calls
        calls += 1
        return splice(word, ins, pos)

    monkeypatch.setattr(derivations, "_splice", counting)
    assert search_equality(p, p.word("rho2 rho3 rho2 rho3"), p.word("rho3 rho2 rho3 rho2"),
                           max_word_len=12, max_nodes=4000) is None
    assert calls < 20100


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


def test_search_reports_a_step_that_does_not_apply(q8, monkeypatch):
    # the replay splices each step's insertion through _insert
    def broken(p, w, position, insertion):
        raise ChainError("no such insertion")
    monkeypatch.setattr(derivations, "_insert", broken)
    with pytest.raises(ChainError, match="^search chain step 0 does not apply: no such insertion$"):
        search_equality(q8, q8.word("rho1"), q8.word("rho1^-3"), max_word_len=6)


def test_search_goal_over_cap_is_undecided_at_once(rp2_n2, monkeypatch):
    def no_splice(word, ins, pos):
        raise AssertionError("searched for a goal longer than the cap")
    monkeypatch.setattr(derivations, "_splice", no_splice)
    assert search_equality(rp2_n2, rp2_n2.word("B12"), rp2_n2.word("rho1^6"),
                           max_word_len=5) is None


Z5 = presentation("Z5", ["a"], ["a^5"])


def test_search_start_over_the_cap_is_undecided_at_once(monkeypatch):
    # the cap bounds both ends of a chain, so a start over it is never
    # expanded into letters, and no insertion is built
    def no_insertions(p, step):
        raise AssertionError("searched from a start over the cap")

    def no_letters(w):
        raise AssertionError("expanded a word for a start over the cap")
    monkeypatch.setattr(derivations, "_step_insertion", no_insertions)
    monkeypatch.setattr(derivations, "word_to_letters", no_letters)
    for u in ("a^31", "a^36", "a^-36", "a^10000000"):
        assert search_equality(Z5, Z5.word(u), Z5.word("1"), max_word_len=30) is None


@pytest.mark.parametrize("u,v", [("a^35", "a^30"), ("a^36", "a^31"), ("a^-35", "a^-30")])
def test_search_exponent_bound_matches_reference(u, v):
    u, v = Z5.word(u), Z5.word(v)
    chain = search_equality(Z5, u, v, max_word_len=30)
    assert (None if chain is None else chain.steps) == reference_search(Z5, u, v, 30, 100)


def test_search_start_length_is_no_bound():
    # 21 letters and a one-letter relator: cancelling h lets the g's meet,
    # and one step reaches the identity, once the cap admits the start
    p = presentation("G", ["g", "h"], ["h"])
    u, v = p.word("g^10 h g^-10"), p.word("1")
    assert search_equality(p, u, v, max_word_len=20) is None
    chain = search_equality(p, u, v, max_word_len=21)
    assert chain.steps == reference_search(p, u, v, 21, 100) == (DerivationStep(0, 0, -1, 10),)


def test_periodic_relator_table_stops_at_its_period(monkeypatch):
    # a^4000 has period 1: its two insertions make a 16000-letter table,
    # where all 4000 rotations in both directions would make 32000000
    p = presentation("G", ["a", "b"], ["a^4000"])
    built = []
    insertion = derivations._step_insertion
    monkeypatch.setattr(derivations, "_step_insertion",
                        lambda q, step: built.append(step) or insertion(q, step))
    chain = search_equality(p, p.word("a^4000"), p.word("1"), max_word_len=4000)
    assert chain.steps == (DerivationStep(0, 0, -1, 0),)
    # the table's two insertions, then the replay check's one
    assert [(step.rotation, step.direction) for step in built] == [(0, 1), (0, -1), (0, -1)]


def test_insertion_table_takes_letters_past_the_code_points():
    # the letters of g557056 are 1114112 and 1114113, past the largest
    # code point, and the relator's period is still found
    p = presentation("G", [f"g{k}" for k in range(557057)], ["g557056^2"])
    chain = search_equality(p, p.word("g557056"), p.word("g557056^-1"))
    assert chain.steps == (DerivationStep(0, 0, -1, 0),)


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
    words = chain_words(chain)
    for a, b in zip(words, words[1:]):
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
    chain = parse_chain_file((DATA_DIR / fname).read_text(), p)
    assert chain.start == p.word(start)
    assert chain.end == p.word(end)
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
        words = chain_words(parse_chain_file((DATA_DIR / fname).read_text(), p))
        for a, b in zip(words, words[1:]):
            assert word_equal_finite(tables[n], a, b)


def test_chain_round_trip(rp2_n2):
    chain = search_equality(rp2_n2, rp2_n2.gen("B12"), rp2_n2.word("rho1^2"),
                            max_word_len=10)
    assert chain is not None
    assert parse_chain_file(format_chain(chain), rp2_n2) == chain


def test_parse_chain_file_does_not_replay(rp2_n2):
    # the file holds a step that does not apply; parsing keeps it for the checker
    chain = parse_chain_file("start B12\nstep 99 0 1 0\nend B12\n", rp2_n2)
    assert chain == DerivationChain(rp2_n2, rp2_n2.word("B12"),
                                    (DerivationStep(99, 0, 1, 0),), rp2_n2.word("B12"))
    assert check_derivation(chain).failing_step == 0


def test_chain_file_presentation_mismatch(rp2_n2):
    text = "presentation OTHER\nstart B12\nend B12\n"
    with pytest.raises(ChainError, match="OTHER"):
        parse_chain_file(text, rp2_n2)
