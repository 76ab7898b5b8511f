import hashlib
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    enumerate_normal_forms, group_order, knuth_bendix, normal_form,
    presentation, pure_braid_rp2, quaternion_presentation, quotient,
    rewrite_equality_oracle, todd_coxeter, torus_presentation,
)
from braidkernel.presentations import Presentation
from braidkernel.rewriting import RewriteSystem, _decode, _encode, _rewrite
from braidkernel.base import Undecided
from braidkernel.words import letters_to_word, word_to_letters


def is_irreducible(rs, letters):
    """Test oracle: no left-hand side of rs occurs in letters."""
    return not any(letters[i:i + len(lhs)] == lhs
                   for lhs, _ in rs.rules
                   for i in range(len(letters) - len(lhs) + 1))


def test_free_group_completes_to_free_reduction():
    free = presentation("F2", ["a", "b"], [])
    rs = knuth_bendix(free)
    assert rs.confluent
    # exactly the x x^-1 -> empty rules
    assert sorted(rs.rules) == sorted(
        ((x, x ^ 1), ()) for x in range(4))
    w = free.word("a b b^-1 a")
    assert normal_form(rs, w) == free.word("a^2")


def test_commuting_pair_normal_forms():
    t2 = torus_presentation()
    rs = knuth_bendix(t2)
    assert rs.confluent
    assert normal_form(rs, t2.word("b a")) == t2.word("a b")
    # lattice points |m| + |n| <= 2 in bijection with short normal forms
    forms = enumerate_normal_forms(rs, max_letters=2)
    assert len(forms) == 13


def test_q8_normal_forms(q8, q8_table):
    rs = knuth_bendix(q8)
    assert rs.confluent
    assert normal_form(rs, q8.word("rho2^2")) == q8.word("rho1^2")
    forms = enumerate_normal_forms(rs, limit=100)
    assert len(forms) == 8 == group_order(q8_table)


def test_normal_form_idempotent(q8):
    rs = knuth_bendix(q8)
    rng = random.Random(5)
    gens = ["rho1", "rho2", "rho1^-1", "rho2^-1"]
    for _ in range(50):
        text = " ".join(rng.choice(gens) for _ in range(rng.randint(0, 8))) or "1"
        w = q8.word(text)
        nf = normal_form(rs, w)
        assert normal_form(rs, nf) == nf
        assert is_irreducible(rs, word_to_letters(nf))


def test_confluent_normal_forms_unique_by_random_multipath(q8):
    # rewrite with randomly chosen redexes; a confluent system must
    # reach the same fixpoint by every route
    rs = knuth_bendix(q8)
    assert rs.confluent
    rng = random.Random(11)

    def random_rewrite(letters):
        word = list(letters)
        while True:
            matches = []
            for lhs, rhs in rs.rules:
                for pos in range(len(word) - len(lhs) + 1):
                    if tuple(word[pos:pos + len(lhs)]) == lhs:
                        matches.append((pos, lhs, rhs))
            if not matches:
                return tuple(word)
            pos, lhs, rhs = rng.choice(matches)
            word[pos:pos + len(lhs)] = rhs

    gens = list(range(4))
    for _ in range(60):
        letters = tuple(rng.choice(gens) for _ in range(rng.randint(0, 10)))
        assert random_rewrite(letters) == _decode(_rewrite(_encode(letters), rs.index))


def reference_rewrite(word, rules):
    """Reference oracle for ``_rewrite``: try every rule, in order, at
    every position."""
    out = list(word)
    pos = 0
    while pos < len(out):
        for lhs, rhs in rules:
            if tuple(out[pos:pos + len(lhs)]) == lhs:
                out[pos:pos + len(lhs)] = rhs
                pos = 0
                break
        else:
            pos += 1
    return tuple(out)


# two letters and short left sides, so left sides of several lengths
# often match at one position and the rule order has to break the tie
shrinking_rules = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=4).flatmap(
        lambda lhs: st.tuples(st.just(tuple(lhs)), st.lists(
            st.integers(0, 1), max_size=len(lhs) - 1).map(tuple))),
    max_size=8, unique_by=lambda rule: rule[0])


@given(shrinking_rules, st.lists(st.integers(0, 1), max_size=12).map(tuple))
def test_indexed_rewrite_matches_reference(rules, word):
    index = RewriteSystem(("a",), tuple(rules), False).index
    assert _decode(_rewrite(_encode(word), index)) == reference_rewrite(word, rules)


# words a few times longer than _rewrite's scan buffer (4 * 4 + 64
# letters for these rules), so back-ups reach letters already passed
@settings(max_examples=40, deadline=None)
@given(shrinking_rules, st.lists(st.integers(0, 1), min_size=150, max_size=300).map(tuple))
def test_long_word_rewrite_matches_reference(rules, word):
    index = RewriteSystem(("a",), tuple(rules), False).index
    assert _decode(_rewrite(_encode(word), index)) == reference_rewrite(word, rules)


def test_rewrite_keeps_letters_piling_up_behind_the_scan():
    # b a -> a b moves each a to the front one letter at a time, so the
    # rewritten b's pile up after the scan position
    index = RewriteSystem(("a", "b"), (((2, 0), (0, 2)),), False).index
    word = (2,) * 700 + (0,) + (2,) * 700 + (0,) + (2,) * 600 + (0,)
    assert _decode(_rewrite(_encode(word), index)) == (0,) * 3 + (2,) * 2000


def test_rewrite_is_linear_in_word_length():
    # equal --rewrite --lhs a^N --rhs 1 on <a | a^5>: a rewriter that
    # splices the middle of the word is quadratic and takes minutes here
    p = presentation("G", ["a"], ["a^5"])
    oracle = rewrite_equality_oracle(knuth_bendix(p))
    assert oracle(p.word("a^1000000"), p.word("a^0")) is True


def test_rules_strictly_decrease_shortlex(q8):
    rs = knuth_bendix(q8)
    for lhs, rhs in rs.rules:
        assert (len(rhs), rhs) < (len(lhs), lhs)


def test_budget_exhaustion_is_not_confluent_but_sound(rp2_n2, rp2_n2_table):
    rs = knuth_bendix(rp2_n2, max_rules=3)
    assert not rs.confluent
    # partial system still rewrites soundly: whatever it equates is
    # equal in the group
    from braidkernel import word_equal_finite
    w = rp2_n2.word("rho1 rho1^-1 B12")
    nf = normal_form(rs, w)
    assert word_equal_finite(rp2_n2_table, w, nf)


def test_normal_form_counts_match_coset_orders(s3_presentation, z5_presentation):
    t2 = torus_presentation()
    targets = [
        z5_presentation,
        s3_presentation,
        quotient(t2, [t2.word("a^2"), t2.word("b^3")]),
    ]
    for p in targets:
        rs = knuth_bendix(p)
        assert rs.confluent, p.name
        order = group_order(todd_coxeter(p))
        forms = enumerate_normal_forms(rs, limit=order + 10)
        assert len(forms) == order, p.name


def test_rp2_n2_completion_matches_coset_order(rp2_n2, rp2_n2_table):
    rs = knuth_bendix(rp2_n2)
    assert rs.confluent
    forms = enumerate_normal_forms(rs, limit=20)
    assert len(forms) == group_order(rp2_n2_table) == 8


def test_rewrite_oracle_decisiveness(q8, rp2_n2):
    confluent = knuth_bendix(q8)
    oracle = rewrite_equality_oracle(confluent)
    assert oracle(q8.word("rho1^2"), q8.word("rho2^2")) is True
    assert oracle(q8.word("rho1"), q8.word("rho2")) is False
    partial = knuth_bendix(rp2_n2, max_rules=3)
    oracle = rewrite_equality_oracle(partial)
    with pytest.raises(Undecided, match="not confluent"):
        oracle(rp2_n2.word("rho1"), rp2_n2.word("rho2"))


def test_enumeration_needs_a_bound():
    rs = knuth_bendix(torus_presentation())
    with pytest.raises(ValueError):
        enumerate_normal_forms(rs)
    with pytest.raises(ValueError):
        enumerate_normal_forms(rs, limit=5)


def test_budget_validation(q8):
    with pytest.raises(ValueError):
        knuth_bendix(q8, max_rules=0)


def test_completion_deterministic(q8):
    assert knuth_bendix(q8).rules == knuth_bendix(q8).rules


def coxeter_s5():
    gens = [f"s{i}" for i in range(1, 5)]
    rels = [f"s{i}^2" for i in range(1, 5)]
    rels += [f"s{i} s{i + 1} " * 3 for i in range(1, 4)]
    rels += [f"s{i} s{j} " * 2 for i in range(1, 5) for j in range(i + 2, 5)]
    return presentation("S5", gens, rels)


# rule order decides which rule _rewrite applies first, so pin it exactly;
# the pair queue's order decides the rules and their order
@pytest.mark.parametrize("group,budget,nrules,confluent,digest", [
    (lambda: pure_braid_rp2(2), {}, 24, True,
     "a4f2e717e6c91c97af53c80a989676c58245d0f09405e0105d26538182704020"),
    (lambda: pure_braid_rp2(3), {"max_rules": 3}, 12, False,
     "525a67f1141a5595f9da2950476cba0b0f7042c3b0e75c7baab5cef68220a8ad"),
    (lambda: pure_braid_rp2(3), {"max_rules": 150}, 151, False,
     "3b699da8ca3c8c040887e19c7c7f821849b0c184c1f4e8a3f34b83302ddd467e"),
    (quaternion_presentation, {}, 16, True,
     "5b01556a60ba4f5875deac89af6c65cc58676998115186d4da6ed85525a0644b"),
    (coxeter_s5, {}, 17, True,
     "630585089741f7d771e40adef2ba96d37afd46b52e01149352c8c75ebbd425b2"),
], ids=["P2", "P3-rules3", "P3-rules150", "Q8", "S5"])
def test_knuth_bendix_output_pinned(group, budget, nrules, confluent, digest):
    rs = knuth_bendix(group(), **budget)
    assert (len(rs.rules), rs.confluent) == (nrules, confluent)
    text = repr((rs.rules, rs.confluent)).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("max_len,confluent,nrules", [(3, False, 4), (4, True, 16)])
def test_knuth_bendix_length_cap(q8, max_len, confluent, nrules):
    # at max_len 3 a rule is discarded for length, well inside max_rules
    rs = knuth_bendix(q8, max_len=max_len)
    assert (rs.confluent, len(rs.rules)) == (confluent, nrules)


def reference_knuth_bendix(p, max_rules, max_len):
    """Reference oracle for ``knuth_bendix``: the completion on tuples of
    letters, pair by pair, rewriting with ``reference_rewrite``.
    Returns the rules and the confluence flag."""
    ids = itertools.count()
    rules = {}
    pair_queue = deque()
    eq_queue = deque()
    discarded = False

    def nf(word):
        return reference_rewrite(word, list(rules.values()))

    def contains(haystack, needle):
        n = len(needle)
        return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))

    def add_rule(u, v):
        nonlocal discarded
        u, v = nf(u), nf(v)
        if u == v:
            return
        lhs, rhs = (u, v) if (len(v), v) < (len(u), u) else (v, u)
        if len(lhs) > max_len:
            discarded = True
            return
        older = list(rules.items())
        rid = next(ids)
        rules[rid] = (lhs, rhs)
        for j, (ljh, rjh) in older:
            if contains(ljh, lhs):
                del rules[j]
                eq_queue.append((ljh, rjh))
            elif contains(rjh, lhs):
                rules[j] = (ljh, nf(rjh))
        for j in rules:
            pair_queue.append((rid, j))
            if j != rid:
                pair_queue.append((j, rid))

    for x in range(2 * p.ngens):
        rules[next(ids)] = ((x, x ^ 1), ())
    pair_queue.extend((i, j) for i in rules for j in rules)
    for rel in p.relators:
        eq_queue.append((word_to_letters(rel), ()))
    aborted = False
    while eq_queue or pair_queue:
        if len(rules) > max_rules:
            aborted = True
            break
        if eq_queue:
            add_rule(*eq_queue.popleft())
            continue
        i, j = pair_queue.popleft()
        if not (i in rules and j in rules):
            continue
        (l1, r1), (l2, r2) = rules[i], rules[j]
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                eq_queue.append((r1 + l2[k:], l1[:-k] + r2))
    return tuple(rules.values()), not (aborted or discarded)


@st.composite
def small_presentations(draw):
    """1-3 generators and 0-4 relators of up to 8 letters."""
    alphabet = ("a", "b", "c")[:draw(st.integers(1, 3))]
    relator = st.lists(st.integers(0, 2 * len(alphabet) - 1), min_size=1, max_size=8)
    relators = draw(st.lists(relator, max_size=4))
    return Presentation("G", alphabet, tuple(letters_to_word(alphabet, r) for r in relators))


@settings(max_examples=500, deadline=None)
@given(small_presentations(), st.integers(1, 40), st.integers(1, 12))
def test_knuth_bendix_matches_reference(p, max_rules, max_len):
    rs = knuth_bendix(p, max_rules=max_rules, max_len=max_len)
    assert (rs.rules, rs.confluent) == reference_knuth_bendix(p, max_rules, max_len)
