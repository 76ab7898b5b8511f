import itertools
import random

import pytest

from braidkernel import (
    EnumerationError, IncompleteTableError, Presentation, abelianization,
    center_order_finite, coset_representatives, group_order,
    is_central_finite, perm_rep, presentation, pure_braid_rp2,
    quotient, todd_coxeter, torus_presentation, word_equal_finite,
)
from braidkernel.words import Word, letter_inverse, word_to_letters


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
            assert table.entry(d, letter_inverse(x)) == c
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
    # perm_rep also works on a nontrivial-subgroup table: the action of
    # the generators on the three cosets of <a>
    table = todd_coxeter(s3_presentation, [s3_presentation.gen("a")])
    perms = perm_rep(table)
    assert all(sorted(p) == [0, 1, 2] for p in perms)


def test_perm_rep_properties(q8, q8_table):
    perms = perm_rep(q8_table)
    rho1 = perms[0]

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
        perm_rep(table)
    with pytest.raises(IncompleteTableError):
        word_equal_finite(table, torus_presentation().gen("a"),
                          torus_presentation().gen("b"))


# syllable-level table reads ---------------------------------------------------------

S5_RELATIONS = ["s1^2", "s2^2", "s3^2", "s4^2",
                "s1 s2 s1 s2 s1 s2", "s2 s3 s2 s3 s2 s3", "s3 s4 s3 s4 s3 s4",
                "s1 s3 s1 s3", "s1 s4 s1 s4", "s2 s4 s2 s4"]


@pytest.fixture(scope="module")
def read_tables(q8_table):
    s5 = presentation("S5", ["s1", "s2", "s3", "s4"], S5_RELATIONS)
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


@pytest.mark.parametrize("budget", [1, 2, 17, 100, 500])
def test_budget_is_inclusive(budget):
    table = todd_coxeter(pure_braid_rp2(3), max_cosets=budget)
    assert table.status == "budget-exceeded"
    assert table.n_cosets == budget
