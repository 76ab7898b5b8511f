import hashlib
import itertools
import random
import sys
import threading
import tracemalloc
from collections import deque
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    CosetTable, EnumerationError, IncompleteTableError, Presentation, abelianization,
    center_order_finite, coset_representatives, group_order,
    is_central_finite, presentation, pure_braid_rp2, quaternion_presentation,
    quotient, todd_coxeter, torus_presentation, word_equal_finite,
)
from braidkernel.coset import _growth
from braidkernel.words import Undecided, Word, letters_to_word, word_to_letters


def trace(table, coset, letters):
    """Reference oracle for ``CosetTable.trace_word``: the letter-by-letter
    walk, or None where an undefined entry stops it."""
    for x in letters:
        coset = table.entry(coset, x)
        if coset is None:
            return None
    return coset


def assert_table_invariants(table):
    """The two CosetTable invariants, checked exhaustively."""
    assert table.is_complete
    n = table.n_cosets
    ncols = 2 * table.presentation.ngens
    for c in range(1, n + 1):
        for x in range(ncols):
            d = table.entry(c, x)
            assert d is not None and 1 <= d <= n
            assert table.entry(d, x ^ 1) == c
    for rel in table.presentation.relators:
        path = word_to_letters(rel)
        for c in range(1, n + 1):
            assert trace(table, c, path) == c


def build_and_check(p, subgroup=(), **kw):
    table = todd_coxeter(p, subgroup, **kw)
    assert_table_invariants(table)
    return table


def test_cyclic_group(z5_presentation):
    assert group_order(build_and_check(z5_presentation)) == 5


def test_quaternion_order(q8):
    assert group_order(build_and_check(q8)) == 8


def test_rp2_n2_is_order_8(rp2_n2):
    assert group_order(build_and_check(rp2_n2)) == 8


def test_s3_with_subgroup(s3_presentation):
    table = build_and_check(s3_presentation, [s3_presentation.gen("a")])
    assert table.n_cosets == 3


def test_s3_coset_count_against_brute_force(s3_presentation):
    # independent oracle: realize S3 as permutations of {0,1,2} and
    # count cosets of <(01)> directly
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    a = (1, 0, 2)
    b = (0, 2, 1)
    elements = {(0, 1, 2)}
    frontier = [(0, 1, 2)]
    while frontier:
        e = frontier.pop()
        for g in (a, b):
            f = compose(g, e)
            if f not in elements:
                elements.add(f)
                frontier.append(f)
    assert len(elements) == 6
    subgroup = {(0, 1, 2), a}
    cosets = {frozenset(compose(e, h) for h in subgroup) for e in elements}
    table = todd_coxeter(s3_presentation, [s3_presentation.gen("a")])
    assert table.n_cosets == len(cosets) == 3


def test_torus_quotient_order_matches_abelianization():
    t2 = torus_presentation()
    q = quotient(t2, [t2.word("a^2"), t2.word("b^3")])
    table = build_and_check(q)
    inv = abelianization(q)
    assert group_order(table) == inv.order == 6


def test_order_independent_of_relator_and_subgroup_order(q8, s3_presentation):
    rng = random.Random(7)
    for p in (q8, s3_presentation, pure_braid_rp2(2)):
        reference = todd_coxeter(p).n_cosets
        for _ in range(4):
            rels = list(p.relators)
            rng.shuffle(rels)
            shuffled = Presentation(p.name, p.alphabet, tuple(rels))
            assert todd_coxeter(shuffled).n_cosets == reference
    gens = [s3_presentation.gen("a"), s3_presentation.word("a b a b a b")]
    assert (todd_coxeter(s3_presentation, gens).n_cosets
            == todd_coxeter(s3_presentation, gens[::-1]).n_cosets)


def test_abelian_orders_cross_checked_with_snf():
    for rels, expected in [
        (["a^2", "b^3", "a b a^-1 b^-1"], 6),
        (["a^4", "b^2", "a b a^-1 b^-1"], 8),
        (["a^5"], 5),
    ]:
        gens = ["a", "b"] if len(rels) > 1 else ["a"]
        p = presentation("t", gens, rels)
        inv = abelianization(p)
        if inv.rank == 0:
            assert group_order(todd_coxeter(p)) == inv.order == expected


# queries -----------------------------------------------------------------------

def test_group_order_requires_complete_trivial(q8, s3_presentation):
    partial = todd_coxeter(torus_presentation(), max_cosets=50)
    assert partial.status == "budget-exceeded"
    with pytest.raises(IncompleteTableError):
        group_order(partial)
    with_subgroup = todd_coxeter(s3_presentation, [s3_presentation.gen("a")])
    with pytest.raises(EnumerationError):
        group_order(with_subgroup)


def test_coset_budget_must_be_positive(q8):
    with pytest.raises(EnumerationError, match="max_cosets must be >= 1"):
        todd_coxeter(q8, max_cosets=0)


def test_empty_alphabet_rejected():
    with pytest.raises(EnumerationError):
        todd_coxeter(presentation("trivial", [], []))


def test_subgroup_generator_alphabet_checked(q8, s3_presentation):
    with pytest.raises(EnumerationError):
        todd_coxeter(q8, [s3_presentation.gen("a")])


def test_enumeration_deterministic(q8):
    first = todd_coxeter(q8)
    second = todd_coxeter(q8)
    assert first.rows == second.rows


def test_perm_rep_on_coset_action(s3_presentation):
    # a nontrivial-subgroup table is a permutation representation too:
    # each letter's column permutes the three cosets of <a>
    table = todd_coxeter(s3_presentation, [s3_presentation.gen("a")])
    for x in range(2 * s3_presentation.ngens):
        assert sorted(table.entry(c, x) for c in range(1, 4)) == [1, 2, 3]


def test_perm_rep_properties(q8, q8_table):
    # the rho1 column, as a permutation of 0-based coset numbers
    rho1 = tuple(q8_table.entry(c, 0) - 1 for c in range(1, q8_table.n_cosets + 1))
    assert sorted(rho1) == list(range(8))

    def perm_order(perm):
        k = 1
        current = perm
        identity = tuple(range(len(perm)))
        while current != identity:
            current = tuple(perm[i] for i in current)
            k += 1
        return k

    assert perm_order(rho1) == 4
    # a relator path acts as the identity permutation
    for rel in q8.relators:
        path = word_to_letters(rel)
        for c in range(1, q8_table.n_cosets + 1):
            assert trace(q8_table, c, path) == c
    # generator composed with its inverse is the identity
    n = q8_table.n_cosets
    for i in range(q8.ngens):
        for c in range(1, n + 1):
            assert q8_table.entry(q8_table.entry(c, 2 * i), 2 * i + 1) == c


def test_word_equal_finite_paper_identities(rp2_n2, rp2_n2_table):
    tau2 = rp2_n2.word("B12") * rp2_n2.word("B12^-1 rho2^2")
    assert word_equal_finite(rp2_n2_table, tau2, rp2_n2.word("rho1^2"))
    assert word_equal_finite(rp2_n2_table, rp2_n2.word("B12"),
                             rp2_n2.word("rho2 rho1^-1 rho2^-1 rho1"))
    w = rp2_n2.word("rho1 B12^-1")
    assert word_equal_finite(rp2_n2_table, w, w)


def test_word_equal_is_congruence(q8, q8_table):
    rng = random.Random(99)
    words = [q8.word(t) for t in
             ["1", "rho1", "rho2", "rho1^2", "rho1 rho2", "rho2^-1 rho1",
              "rho1^3", "rho2^2 rho1", "rho1^-1 rho2^-1"]]
    pairs = [(u, v) for u, v in itertools.product(words, repeat=2)
             if word_equal_finite(q8_table, u, v)]
    for _ in range(200):
        u1, v1 = rng.choice(pairs)
        u2, v2 = rng.choice(pairs)
        assert word_equal_finite(q8_table, u1 * u2, v1 * v2)


def test_is_central_finite(q8, q8_table):
    assert is_central_finite(q8_table, q8.word("rho1^2"))
    assert not is_central_finite(q8_table, q8.word("rho1"))
    assert is_central_finite(q8_table, q8.word("1"))


def test_center_orders(q8_table, z5_presentation, s3_presentation):
    assert center_order_finite(q8_table) == 2
    assert center_order_finite(todd_coxeter(z5_presentation)) == 5
    assert center_order_finite(todd_coxeter(s3_presentation)) == 1


def test_center_order_cap(q8_table):
    with pytest.raises(EnumerationError):
        center_order_finite(q8_table, cap=4)


def test_coset_representatives_are_distinct_and_complete(q8_table):
    reps = coset_representatives(q8_table)
    assert len(reps) == 8
    traced = [q8_table.trace_word(1, w) for w in reps]
    assert sorted(traced) == list(range(1, 9))


def test_total_collapse_to_trivial_group():
    # the classic coincidence stress: both relations force a = b = 1,
    # discovered only through long merge cascades
    p = presentation("collapse", ["a", "b"],
                     ["b^-1 a b a^-2", "a^-1 b a b^-2"])
    table = build_and_check(p)
    assert group_order(table) == 1


@pytest.mark.parametrize("name,rels,order", [
    ("A5", ["a^2", "b^3", "a b a b a b a b a b"], 60),
    ("S4", ["a^2", "b^3", "a b a b a b a b"], 24),
    ("D4", ["a^4", "b^2", "a b a b"], 8),
    ("PSL(2,7)", ["a^2", "b^3", "a b a b a b a b a b a b a b",
                  "a b^-1 a b a b^-1 a b a b^-1 a b a b^-1 a b"], 168),
])
def test_known_group_orders(name, rels, order):
    table = build_and_check(presentation(name, ["a", "b"], rels))
    assert group_order(table) == order


def test_budget_exceeded_is_status_not_exception():
    table = todd_coxeter(torus_presentation(), max_cosets=10)
    assert table.status == "budget-exceeded"
    assert not table.is_complete
    with pytest.raises(IncompleteTableError):
        coset_representatives(table)
    with pytest.raises(IncompleteTableError):
        word_equal_finite(table, torus_presentation().gen("a"),
                          torus_presentation().gen("b"))


# syllable-level table reads ---------------------------------------------------------

def symmetric(n):
    """The Coxeter presentation of S_n on the transpositions s1 .. s(n-1)."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"s{i}^2" for i in range(1, n)]
    rels += [f"s{i} s{i + 1} " * 3 for i in range(1, n - 1)]
    rels += [f"s{i} s{j} " * 2 for i in range(1, n) for j in range(i + 2, n)]
    return presentation(f"S{n}", gens, rels)


@pytest.fixture(scope="module")
def read_tables(q8_table):
    s5 = symmetric(5)
    capped = todd_coxeter(pure_braid_rp2(3), max_cosets=500)
    assert not capped.is_complete
    return [q8_table, todd_coxeter(s5), capped]


def test_trace_word_matches_letter_walk(read_tables):
    # exponents up to +-1000 run far past every column cycle, so the
    # cycle skip is exercised; the capped table also stops on undefined
    # entries
    rng = random.Random(11)
    for table in read_tables:
        p = table.presentation
        stopped = 0
        for _ in range(300):
            sylls = [(rng.randrange(p.ngens), rng.randint(-1000, 1000))
                     for _ in range(rng.randrange(5))]
            w = Word.from_syllables(p.alphabet, sylls)
            c = rng.randint(1, table.n_cosets)
            expected = trace(table, c, word_to_letters(w))
            assert table.trace_word(c, w) == expected
            stopped += expected is None
        assert stopped > 0 or table.is_complete


def test_trace_word_large_exponents(q8, q8_table):
    # rho1 has order 4 in Q8
    u = q8.word("rho1^480000 rho2 rho1^470002")
    assert word_equal_finite(q8_table, u, q8.word("rho2 rho1^2"))
    assert not word_equal_finite(q8_table, u, q8.word("rho2"))


def test_coset_outside_the_table_is_refused(q8, q8_table):
    w = q8.word("rho1")
    for c in (0, -1, q8_table.n_cosets + 1):
        with pytest.raises(EnumerationError, match=f"^coset {c} is not in 1..8$"):
            q8_table.entry(c, 0)
        with pytest.raises(EnumerationError, match=f"^coset {c} is not in 1..8$"):
            q8_table.trace_word(c, w)


@pytest.mark.parametrize("budget", [1, 2, 17, 100, 500])
def test_budget_is_inclusive(budget):
    table = todd_coxeter(pure_braid_rp2(3), max_cosets=budget)
    assert table.status == "budget-exceeded"
    assert table.n_cosets == budget


# the enumerator against its reference ----------------------------------------------

def reference_todd_coxeter(p, subgroup_gens=(), max_cosets=100000):
    """Reference oracle for ``todd_coxeter``: the same HLT enumeration
    with 0-based cosets, a union-find lookup on every table read and a
    dict renumbering.  Returns the published (rows, status)."""
    ncols = 2 * p.ngens
    paths = [word_to_letters(r) for r in p.relators]
    table = [[None] * ncols]
    parent = [0]
    live = [1]

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def define(c, x):
        if live[0] >= max_cosets:
            raise OverflowError
        d = len(table)
        table.append([None] * ncols)
        parent.append(d)
        table[c][x], table[d][x ^ 1] = d, c
        live[0] += 1

    def merge(a, b, queue):
        a, b = sorted((find(a), find(b)))
        if a != b:
            parent[b] = a
            live[0] -= 1
            queue.append(b)

    def coincidence(a, b):
        queue = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            for x in range(ncols):
                d = table[dead][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = find(dead), find(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    def scan_and_fill(alpha, word):
        f, i, b, j = alpha, 0, alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f, i = find(table[f][word[i]]), i + 1
            while j >= i and table[b][word[j] ^ 1] is not None:
                b, j = find(table[b][word[j] ^ 1]), j - 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                table[f][word[i]], table[b][word[i] ^ 1] = b, f
                return
            define(f, word[i])

    status = "complete"
    try:
        for w in subgroup_gens:
            scan_and_fill(0, word_to_letters(w))
        idx = 0
        while idx < len(table):
            for path in paths:
                if find(idx) == idx:
                    scan_and_fill(idx, path)
            if find(idx) == idx:
                for x in range(ncols):
                    if table[idx][x] is None:
                        define(idx, x)
            idx += 1
    except OverflowError:
        status = "budget-exceeded"
    cosets = [c for c in range(len(table)) if find(c) == c]
    renumber = {c: k + 1 for k, c in enumerate(cosets)}
    rows = tuple(tuple(None if e is None else renumber[find(e)] for e in table[c])
                 for c in cosets)
    return rows, status


def assert_partial_table_consistent(table):
    """Every defined entry names a published coset, and the entries pair
    up: entry(c, x) == d iff entry(d, x^-1) == c (checking one direction
    on every column checks both).  An entry left naming a merged-away
    coset would publish as None on one side of a pair."""
    n = table.n_cosets
    for c in range(1, n + 1):
        for x in range(2 * table.presentation.ngens):
            d = table.entry(c, x)
            if d is not None:
                assert 1 <= d <= n
                assert table.entry(d, x ^ 1) == c


def rp2_power_quotient(n, k):
    p = pure_braid_rp2(n)
    return quotient(p, [p.word(f"rho{i}^{k}") for i in range(1, n + 1)])


PINNED_GROUPS = {
    "S5": lambda: symmetric(5),
    "S6": lambda: symmetric(6),
    "S7": lambda: symmetric(7),
    "Q8": quaternion_presentation,
    "P2": lambda: pure_braid_rp2(2),
    "P3": lambda: pure_braid_rp2(3),
    "P3/rho^4": lambda: rp2_power_quotient(3, 4),
    "P3/rho^6": lambda: rp2_power_quotient(3, 6),
    "P4/rho^2": lambda: rp2_power_quotient(4, 2),
}


# every published table is pinned: rows, status and the renumbering all count
PINNED_TABLES = [
    ("S5", "", None, 120, "complete",
     "4242fd9b8d5cdeb3aa7032f81ccc4a8a0107011a2ede0fafd4ed27916f8b05d3"),
    ("S6", "", None, 720, "complete",
     "069b9549da6989d06d938d595ab0e2601030657cd8aed1b92efaacc5055a6904"),
    ("S7", "", None, 5040, "complete",
     "4cdcbec097ece3e29b447471da2a904bea0dc85e9041b0a82fe854353a45f717"),
    ("Q8", "", None, 8, "complete",
     "d3a6d87c0d7b6c34001b9545c2d115ddf05a747fc4746eef46ec7fd83e5efc91"),
    ("P2", "", None, 8, "complete",
     "61188f252ef4992873d7eab82fa759fbbe64a2f9e8a4a2cab138ac8056e37355"),
    ("P3", "", 40000, 40000, "budget-exceeded",
     "a67ada5ef5130227a8c08a57fe6e5269054a06b5aef579dac5af39b5b75b62cc"),
    ("P3", "", 1000, 1000, "budget-exceeded",
     "16ba160cc9953d493852696cc86832a6e692121ae338c4ff3e3650ab2e6150f7"),
    ("P3", "", 37, 37, "budget-exceeded",
     "f0b0b1efd9e0d04f8646257cfa682e53de59bad1716e3ac53af8bb8fff3ba915"),
    ("P3", "", 1, 1, "budget-exceeded",
     "8d45c5f4b372c623a47e9eb2d76cd76d81d27913d5d2c323f8d0fc654bfa649e"),
    ("P3/rho^4", "", None, 128, "complete",
     "0dbab732a878f1171707a99671c10e33d4d989e02bd504e1afdc2fb0f6cf5dcc"),
    ("P3/rho^6", "", 40000, 40000, "budget-exceeded",
     "d722626ebe008b5655e9896c411158f7e9fc073a07e6c5bd2fe6a79b6169c5ed"),
    ("P4/rho^2", "", None, 128, "complete",
     "deb5a785e5ac6097ffd679d70dae21df8d678dc7d1805e3cc0cdeef4be67c4c1"),
    ("S7", "s1", None, 2520, "complete",
     "a53c66b9d55af7892e8c8ba28a347edc330663d0930cc475ffaad33f143c35a8"),
    ("P3", "B13 B23 rho3", None, 8, "complete",
     "618aea6a376eefa5572a5deabbc072c0fd11c91f444f551a46e75b00ac295a9b"),
]


@pytest.mark.parametrize("group,subgroup,max_cosets,n_cosets,status,digest", PINNED_TABLES,
                         ids=[f"{g}<{h}>@{m}" for g, h, m, *_ in PINNED_TABLES])
def test_todd_coxeter_output_pinned(group, subgroup, max_cosets, n_cosets, status, digest):
    p = PINNED_GROUPS[group]()
    budget = {} if max_cosets is None else {"max_cosets": max_cosets}
    table = todd_coxeter(p, [p.word(name) for name in subgroup.split()], **budget)
    assert (table.n_cosets, table.status) == (n_cosets, status)
    text = repr((table.rows, table.status)).encode()
    assert hashlib.sha256(text).hexdigest() == digest


# the work behind each pinned table: cosets defined, dead ones included
# (the union-find's length less its placeholder 0)
COSETS_DEFINED = {
    ("S5", "", None): 220, ("S6", "", None): 1513, ("S7", "", None): 12145,
    ("Q8", "", None): 10, ("P2", "", None): 27, ("P3", "", 40000): 44769,
    ("P3", "", 1000): 1050, ("P3", "", 37): 37, ("P3", "", 1): 1,
    ("P3/rho^4", "", None): 2979, ("P3/rho^6", "", 40000): 50361,
    ("P4/rho^2", "", None): 5762, ("S7", "s1", None): 5900, ("P3", "B13 B23 rho3", None): 32,
}


@pytest.mark.parametrize("group,subgroup,max_cosets", [row[:3] for row in PINNED_TABLES],
                         ids=[f"{g}<{h}>@{m}" for g, h, m, *_ in PINNED_TABLES])
def test_todd_coxeter_work_pinned(group, subgroup, max_cosets):
    p = PINNED_GROUPS[group]()
    budget = {} if max_cosets is None else {"max_cosets": max_cosets}
    table = todd_coxeter(p, [p.word(name) for name in subgroup.split()], **budget)
    assert len(table._parent) - 1 == COSETS_DEFINED[group, subgroup, max_cosets]


@st.composite
def enumeration_cases(draw):
    """A presentation on 1-3 generators with 0-4 random relators, and up
    to two random subgroup words (possibly trivial)."""
    names = ("a", "b", "c")[:draw(st.integers(1, 3))]
    letters = st.integers(0, 2 * len(names) - 1)
    rels = draw(st.lists(st.lists(letters, min_size=1, max_size=8), max_size=4))
    subgroup = draw(st.lists(st.lists(letters, max_size=6), max_size=2))
    p = Presentation("random", names, tuple(letters_to_word(names, r) for r in rels))
    return p, [letters_to_word(names, w) for w in subgroup]


@settings(max_examples=150, deadline=None)
@given(enumeration_cases(), st.integers(1, 400))
def test_todd_coxeter_matches_reference(case, max_cosets):
    p, subgroup = case
    table = todd_coxeter(p, subgroup, max_cosets=max_cosets)
    assert (table.rows, table.status) == reference_todd_coxeter(p, subgroup, max_cosets)
    assert_partial_table_consistent(table)


# P3 defines every coset it keeps up to cap 257, so its caps 62-65,
# 126-129 and 190-193 stop just before and just after the columns' first
# three growths (at names 64, 128 and 192); at cap 319 the budget trips
# in the fill of a row just as the next name, 320, needs a growth
@pytest.mark.parametrize("group,caps", [
    ("P3", (*range(1, 66), *range(126, 130), *range(190, 194), 319)), ("S6", (100, 400)),
    ("P3/rho^4", (100000,)), ("P3/rho^6", (300,)), ("P4/rho^2", (100000,))],
    ids=["P3", "S6", "P3/rho^4", "P3/rho^6", "P4/rho^2"])
def test_todd_coxeter_matches_reference_on_the_atlas(group, caps):
    # the budget trips in a scan or in the fill of a row: P3 trips in the
    # fill at caps 43-45 and in a scan at the other caps up to 60
    p = PINNED_GROUPS[group]()
    for max_cosets in caps:
        table = todd_coxeter(p, max_cosets=max_cosets)
        assert (table.rows, table.status) == reference_todd_coxeter(p, max_cosets=max_cosets)
        # the columns grew only to hold a new name: they are the shortest
        # that the growth rule reaches from 64 slots and that hold every name
        size = 64
        while size < len(table._parent):
            size += _growth(size)
        assert {len(col) for col in table._cols} == {size}


@pytest.mark.parametrize("group,max_cosets", [
    ("P3", 1000), ("P3/rho^4", 127), ("P3/rho^6", 300), ("P4/rho^2", 127),
    ("S6", 100), ("S6", 400)])
def test_capped_tables_keep_live_entries(group, max_cosets):
    # each run merges cosets (3 to 116 times) before it hits the cap, so
    # the scans after those merges walked entries without the union-find
    table = todd_coxeter(PINNED_GROUPS[group](), max_cosets=max_cosets)
    assert table.status == "budget-exceeded"
    assert_partial_table_consistent(table)


def test_incomplete_table_error_is_undecided():
    table = todd_coxeter(torus_presentation(), max_cosets=10)
    with pytest.raises(IncompleteTableError) as info:
        group_order(table)
    assert isinstance(info.value, Undecided) and isinstance(info.value, EnumerationError)
    assert str(info.value) == "enumeration budget exhausted at 10 live cosets"


# rows built on first read ----------------------------------------------------------

def test_capped_queries_leave_the_rows_unpublished():
    p = pure_braid_rp2(3)
    tracemalloc.start()
    try:
        table = todd_coxeter(p, max_cosets=40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for query in (group_order, lambda t: is_central_finite(t, p.word("rho1"))):
        with pytest.raises(IncompleteTableError, match="^enumeration budget exhausted at 40000 live"):
            query(table)
    assert (table.n_cosets, table.is_complete, table.status) == (40000, False, "budget-exceeded")
    assert "rows" not in vars(table)
    # 44,769 cosets defined: one column per letter holds them in about
    # 6 MB at the peak, where a row list per coset took 10.5 MB
    assert peak < 8_000_000


@pytest.mark.parametrize("group", ["Q8", "S5"])
def test_a_large_budget_costs_no_memory(group):
    # the columns grow with the names defined (10 for Q8, 220 for S5),
    # not with the budget: ten million cosets allowed cost a few kilobytes
    p = PINNED_GROUPS[group]()
    tracemalloc.start()
    try:
        table = todd_coxeter(p, max_cosets=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.is_complete and peak < 100_000


@cache
def reference_p3(max_cosets):
    return reference_todd_coxeter(pure_braid_rp2(3), max_cosets=max_cosets)


def same_entries(t, rows):
    return all(t.entry(c, x) == rows[c - 1][x]
               for c in range(1, t.n_cosets + 1) for x in range(12))


def same_trace(t, rows):
    w = t.presentation.word("rho1^5 rho2")
    c = 1
    for x in word_to_letters(w):
        c = rows[c - 1][x]
        if c is None:
            break
    return t.trace_word(1, w) == c


# (read, whether it builds rows): entry and trace_word read the stored
# rows through the numbering instead
@pytest.mark.parametrize("read,publishes", [
    (lambda t, rows: t.rows == rows, True),
    (same_entries, False),
    (same_trace, False),
], ids=["rows", "entry", "trace_word"])
@pytest.mark.parametrize("max_cosets", [50, 3000])
def test_first_read_publishes_the_fields_a_direct_table_holds(read, publishes, max_cosets):
    # the fields of the table the reference enumeration builds directly
    rows, status = reference_p3(max_cosets)
    table = todd_coxeter(pure_braid_rp2(3), max_cosets=max_cosets)
    assert "rows" not in vars(table) and (table.n_cosets, table.status) == (len(rows), status)
    assert read(table, rows) and read(table, rows)
    assert ("rows" in vars(table)) == publishes
    # built once: the rows stay put, and every read still agrees
    assert table.rows is table.rows and table.rows == rows and read(table, rows)


def test_direct_table_counts_its_rows(q8_table):
    # a table given in published numbering: each letter's permutation of
    # 1..8 behind a 0, and every coset live
    cols = [[0, *(q8_table.entry(c, x) for c in range(1, 9))] for x in range(4)]
    direct = CosetTable(q8_table.presentation, (), "complete", cols, range(9))
    assert direct.n_cosets == len(direct.rows) == 8 and direct.rows == q8_table.rows
    assert all(direct.entry(c, x) == q8_table.entry(c, x) for c in range(1, 9) for x in range(4))
    assert group_order(direct) == 8


def test_direct_table_counts_its_cosets_from_parent(q8_table):
    # name 9 was merged into coset 1: it is neither counted nor published
    cols = [[0, *(q8_table.entry(c, x) for c in range(1, 9)), 0] for x in range(4)]
    direct = CosetTable(q8_table.presentation, (), "complete", cols, [*range(9), 1])
    assert direct.n_cosets == group_order(direct) == 8 and direct.rows == q8_table.rows
    with pytest.raises(EnumerationError, match="^coset 9 is not in 1..8$"):
        direct.entry(9, 0)


@pytest.mark.parametrize("letter", [-1, 4])
def test_entry_refuses_a_letter_outside_the_alphabet(q8_table, letter):
    with pytest.raises(EnumerationError, match=f"^letter {letter} is not in 0..3$"):
        q8_table.entry(1, letter)


def read_at_once(table, reads):
    """Run each read in its own thread, all released at once and switching
    often (more threads than cores), and return their results; a read that
    raises fails the test."""
    barrier = threading.Barrier(len(reads))
    seen, errors = [None] * len(reads), []

    def run(k):
        barrier.wait(timeout=30)
        try:
            seen[k] = reads[k](table)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(reads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    return seen


def test_threads_publish_equal_rows():
    p = pure_braid_rp2(3)
    expected = todd_coxeter(p, max_cosets=2000).rows
    for _ in range(5):
        table = todd_coxeter(p, max_cosets=2000)
        assert read_at_once(table, [lambda t: t.rows] * 8) == [expected] * 8
        assert table.rows == expected


def test_threads_read_entries_while_others_publish():
    p = pure_braid_rp2(3)
    expected = todd_coxeter(p, max_cosets=2000).rows
    cosets = range(1, 301)

    def entries(t):
        return [tuple(t.entry(c, x) for x in range(12)) for c in cosets]

    for _ in range(5):
        table = todd_coxeter(p, max_cosets=2000)
        seen = read_at_once(table, [lambda t: t.rows, entries] * 4)
        assert seen == [expected, [expected[c - 1] for c in cosets]] * 4
        assert entries(table) == [expected[c - 1] for c in cosets]
