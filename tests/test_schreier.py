"""Index-2 witnesses: the kernels of the maps onto Z/2, their H1, and the
certificates that two words differ, checked without a Smith normal form;
Reidemeister-Schreier (``reidemeister``) over complete tables and over Q8's
action on P3(RP2), whose stabiliser is the free fiber <B13, B23, rho3>; and
the word problem of P3(RP2) and its quotients through the strand-forgetting
tower, whose level 3 reads that fiber (``tower``)."""

import hashlib
import json
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from braidkernel import (
    forget_strands_hom, presentation, pure_braid_rp2, quaternion_presentation, quotient,
    smith_normal_form, substitute, tau_n, todd_coxeter, word_equal_finite,
)
from braidkernel import EnumerationError, reidemeister, schreier, tower
from braidkernel.atlas import _rp2_alphabet
from braidkernel.base import Undecided
from braidkernel.commands.chain import tower_strands
from braidkernel.presentations import Presentation
from braidkernel.q8 import COLUMNS
from braidkernel.schreier import Witness, check_witness, find_witness
from braidkernel.snf import invariant_factors
from braidkernel.words import Word, letters_to_word, word_to_letters

P2, P3, P4 = pure_braid_rp2(2), pure_braid_rp2(3), pure_braid_rp2(4)


def p3_columns():
    """P3(RP2) acting on the units of Q8 through P2(RP2): the letters of strand 3 act
    trivially."""
    cols = []
    for x in range(2 * P3.ngens):
        name = P3.alphabet[x >> 1]
        cols.append(COLUMNS[2 * P2.alphabet.index(name) + x % 2] if name in P2.alphabet
                    else tuple(range(9)))
    return cols


P3_COLUMNS = p3_columns()


def kernel_h1(p, mask):
    """(free rank, torsion) of H1 of the kernel of one map onto Z/2."""
    mat = schreier._rows(p, schreier._kernel(p, mask))
    diag = invariant_factors([{j: x for j, x in enumerate(row) if x} for row in mat], len(mat[0]))
    return sum(1 for d in diag if d == 0), tuple(d for d in diag if d > 1)


def kernel_maps(p):
    """The maps onto Z/2 in the order find_witness tries their kernels."""
    return schreier.kernel_maps(schreier._null_space(p))


def test_kernel_h1_of_the_pure_braid_groups():
    h1 = {n: [kernel_h1(p, mask) for mask in kernel_maps(p)]
          for n, p in ((2, P2), (3, P3), (4, P4))}
    assert h1[2] == [(0, (4,))] * 3
    assert sorted(rank for rank, _ in h1[3]) == [0, 0, 0, 0, 1, 1, 1]
    assert sorted(rank for rank, _ in h1[4]) == [0] * 11 + [2] * 4
    # the kernel cap admits every kernel of P3(RP2) and P4(RP2)
    assert len(h1[4]) <= schreier.MAX_KERNELS


def test_maps_are_the_homomorphisms_onto_z2():
    for p in (P2, P3, P4, quaternion_presentation()):
        maps = list(kernel_maps(p))
        homs = [mask for mask in range(1, 1 << p.ngens)
                if all(sum(exp for gen, exp in rel.syllables if mask >> gen & 1) % 2 == 0
                       for rel in p.relators)]
        assert sorted(maps) == homs


@st.composite
def z2_presentations(draw):
    """Up to five random relators over k <= 6 generators, exponents -4..4."""
    k = draw(st.integers(1, 6))
    sylls = st.lists(st.tuples(st.integers(0, k - 1), st.integers(-4, 4)), min_size=1, max_size=4)
    names = tuple(f"g{i}" for i in range(k))
    return Presentation("random", names, tuple(Word.from_syllables(names, r)
                                               for r in draw(st.lists(sylls, max_size=5))))


# g2^2 is even, g4 g3 g1 gives the pivot of bit 4, and g3 g0^4 g2^2 the pivot of bit 3,
# which back-substitution clears from the first
BACK_SUBSTITUTED = presentation("G", [f"g{i}" for i in range(5)],
                                ["g2^2", "g4 g3 g1", "g3 g0^4 g2^2"])


@settings(max_examples=300, deadline=None)
@given(z2_presentations())
@example(BACK_SUBSTITUTED)
def test_the_null_space_is_a_basis_of_the_maps_onto_z2(p):
    # every map, brute force over all 2^k bit vectors: each relator's exponent sum over
    # the generators with bit 1 is even
    homs = {mask for mask in range(1 << p.ngens)
            if all(sum(exp for gen, exp in rel.syllables if mask >> gen & 1) % 2 == 0
                   for rel in p.relators)}
    basis = schreier._null_space(p)
    span = set()
    for k in range(1 << len(basis)):
        mask = 0
        for i, vector in enumerate(basis):
            if k >> i & 1:
                mask ^= vector
        span.add(mask)
    assert span == homs and len(span) == 1 << len(basis)


def reference_null_space(p):
    """The null space as it was first computed: each new row reduced against every
    pivot, then cleared from every pivot that holds its leading bit."""
    pivots = {}
    for rel in p.relators:
        row = schreier._odd(rel)
        for j, pivot in pivots.items():
            if row >> j & 1:
                row ^= pivot
        if row:
            j = row.bit_length() - 1
            for k, pivot in pivots.items():
                if pivot >> j & 1:
                    pivots[k] = pivot ^ row
            pivots[j] = row
    return [(1 << free) | sum(1 << j for j, pivot in pivots.items() if pivot >> free & 1)
            for free in range(p.ngens) if free not in pivots]


@st.composite
def wide_z2_presentations(draw):
    """Up to 24 random relators over k <= 40 generators, odd exponents common, so rows
    share pivots and back-substitution has work to do."""
    k = draw(st.integers(1, 40))
    sylls = st.lists(st.tuples(st.integers(0, k - 1), st.sampled_from([-3, -2, -1, 1, 2, 3])),
                     min_size=1, max_size=8)
    names = tuple(f"g{i}" for i in range(k))
    return Presentation("random", names, tuple(Word.from_syllables(names, r)
                                               for r in draw(st.lists(sylls, max_size=24))))


@pytest.mark.parametrize("n", range(2, 9))
def test_the_null_space_is_the_reference_on_the_pure_braid_groups(n):
    p = pure_braid_rp2(n)
    assert schreier._null_space(p) == reference_null_space(p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(z2_presentations(), wide_z2_presentations()))
@example(BACK_SUBSTITUTED)
def test_the_null_space_is_the_reference(p):
    # the reduced echelon form is unique, so the basis and its order are the reference's
    assert schreier._null_space(p) == reference_null_space(p)


def test_a_witness_search_computes_the_null_space_once(monkeypatch):
    # the null space is computed once per find_witness, and kernel_maps reuses it
    calls = []
    real = schreier._null_space
    monkeypatch.setattr(schreier, "_null_space", lambda p: calls.append(p) or real(p))
    u, v = P3.word("rho1 rho2 rho1 rho2"), P3.word("rho2 rho1 rho2 rho1")
    assert find_witness(P3, u, v) is None and calls == [P3]


def separated(p, u, v):
    witness = find_witness(p, u, v)
    return witness is not None and check_witness(p, u, v, witness)


@pytest.mark.parametrize("p,n", [(P3, 3), (P4, 4)], ids=["P3", "P4"])
def test_every_generator_and_tau_are_separated_from_the_identity(p, n):
    one = Word.identity(p.alphabet)
    for name in p.alphabet:
        assert separated(p, p.word(name), one), name
    assert separated(p, tau_n(n), one)
    assert separated(p, one, tau_n(n))


def kernel_certificate(p, u, v):
    witness = find_witness(p, u, v)
    assert witness is not None and witness.functional is not None
    assert check_witness(p, u, v, witness)
    return witness


@pytest.mark.parametrize("p,u", [(P3, tau_n(3)), (P4, tau_n(4)), (P3, P3.word("B12"))],
                         ids=["tau3", "tau4", "B12"])
def test_a_tampered_certificate_is_rejected(p, u):
    v = Word.identity(p.alphabet)
    witness = kernel_certificate(p, u, v)
    f, m = list(witness.functional), witness.modulus
    mask = sum(bit << g for g, bit in enumerate(witness.bits))
    rows = schreier._rows(p, schreier._kernel(p, mask))
    # one entry of f moved by 1 where a relator row is nonzero modulo m: that row stops vanishing
    k = next(k for row in rows for k, x in enumerate(row) if (x % m if m else x))
    f[k] += 1
    assert not check_witness(p, u, v, Witness(witness.bits, tuple(f), m))
    for modulus in (1, m + 1, m * 3 + 1):
        assert not check_witness(p, u, v, Witness(witness.bits, witness.functional, modulus))


def test_malformed_certificates_are_rejected():
    q8 = quaternion_presentation()
    u, one = q8.word("rho1"), q8.word("1")
    witness = find_witness(q8, u, one)
    assert witness == Witness((1, 0)) and check_witness(q8, u, one, witness)
    # the zero map, a map of the wrong length, a bit that is not a bit
    for bits in ((0, 0), (1,), (1, 0, 0), (2, 0)):
        assert not check_witness(q8, u, one, Witness(bits))
    # not a homomorphism: a relator of odd weight
    z3 = presentation("Z3", ["a"], ["a^3"])
    assert not check_witness(z3, z3.word("a"), z3.word("1"), Witness((1,)))
    # an even-weight pair has no parity certificate, and an odd-weight one no functional
    assert not check_witness(q8, q8.word("rho1^2"), one, Witness((1, 0)))
    assert not check_witness(q8, u, one, Witness((1, 0), (1, 0, 0), 4))
    # words over another alphabet
    assert not check_witness(q8, P2.word("rho1"), P2.word("1"), witness)


def columns(table):
    """A complete table's columns, as ``reidemeister.reidemeister_schreier`` takes them."""
    return [(0, *col) for col in zip(*table.rows)]


def letter_walk(cols, w, coset):
    """``reidemeister.trace`` one letter at a time: the end coset, and each
    letter with the coset it is read from."""
    reads = []
    for x in word_to_letters(w):
        reads.append((x, coset))
        coset = cols[x][coset]
    return coset, reads


Q8 = quaternion_presentation()
# a presentation, its columns and, for the 2-point columns of a map's kernel, the map:
# every kernel of P3(RP2), Q8's enumerated table and P3(RP2)'s action on Q8
WALKED = {
    **{f"P3-{mask}": (P3, [(0, 2, 1) if mask >> (x >> 1) & 1 else (0, 1, 2)
                           for x in range(2 * P3.ngens)], mask)
       for mask in kernel_maps(P3)},
    "Q8": (Q8, columns(todd_coxeter(Q8)), None),
    "fiber": (P3, P3_COLUMNS, None),
}


def closes(cols, w):
    """Whether w, walked letter by letter, leads every coset to itself."""
    return all(letter_walk(cols, w, c)[0] == c for c in range(1, len(cols[0])))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(WALKED)), st.data())
def test_the_syllable_walk_matches_a_letter_walk(name, data):
    # exponents up to 30 wrap every cycle, of length at most 4 here, several times
    p, cols, mask = WALKED[name]
    sylls = data.draw(st.lists(st.tuples(st.integers(0, p.ngens - 1), st.integers(-30, 30)),
                               max_size=8))
    w = Word.from_syllables(p.alphabet, sylls)
    coset = data.draw(st.integers(1, len(cols[0]) - 1))
    end, reads = reidemeister.trace(cols, w, coset)
    assert (end, [(x, c) for x, cycle, q, r in reads for c in cycle * q + cycle[:r]]) == \
        letter_walk(cols, w, coset)
    if mask is not None:  # the exponent sums from coset 1 and coset 2, letter by letter
        sp = schreier._kernel(p, mask)
        assert sp.cols == tuple(cols)
        sums = [[0] * sp.ngens for _ in (1, 2)]
        for start, vec in zip((1, 2), sums):
            for x, c in letter_walk(cols, w, start)[1]:
                if (s := sp.edges[x][c]) >= 0:
                    vec[s >> 1] += -1 if s & 1 else 1
        assert list(schreier._sums(sp, w)) == sums


@pytest.mark.parametrize("name", sorted(WALKED))
def test_the_relator_rows_match_a_letter_walk(name):
    # each row is its relator read letter by letter from its coset, kept as the
    # Schreier letters of the edges off the tree
    p, cols, _ = WALKED[name]
    sp = reidemeister.reidemeister_schreier(p, cols)
    cosets = range(1, len(cols[0]))
    assert all(closes(cols, rel) for rel in p.relators)
    assert sp.rows == tuple(tuple(s for x, c in letter_walk(cols, rel, start)[1]
                                  if (s := sp.edges[x][c]) >= 0)
                            for rel in p.relators for start in cosets)


@st.composite
def relator_conjugate_pairs(draw, groups=(P2, P3, P4)):
    """A group, a word u, and u with a conjugate of a rotated, possibly
    inverted relator spliced in: equal by construction."""
    p = draw(st.sampled_from(groups))
    letters = st.integers(0, 2 * p.ngens - 1)
    u = letters_to_word(p.alphabet, draw(st.lists(letters, max_size=8)))
    c = letters_to_word(p.alphabet, draw(st.lists(letters, max_size=4)))
    rel = word_to_letters(p.relators[draw(st.integers(0, len(p.relators) - 1))])
    k = draw(st.integers(0, len(rel) - 1))
    r = letters_to_word(p.alphabet, rel[k:] + rel[:k])
    if draw(st.booleans()):
        r = r.inverse()
    return p, u, u * c * r * c.inverse()


@settings(max_examples=300, deadline=None)
@given(relator_conjugate_pairs())
def test_no_relator_conjugate_pair_is_separated(case):
    p, u, v = case
    assert find_witness(p, u, v) is None
    assert find_witness(p, v, u) is None


def coxeter_s5():
    gens = ["s1", "s2", "s3", "s4"]
    rels = [f"{s}^2" for s in gens]
    rels += [f"{a} {b} {a} {b} {a} {b}" for a, b in zip(gens, gens[1:])]
    rels += [f"{gens[i]} {gens[j]} {gens[i]} {gens[j]}" for i in range(4) for j in range(i + 2, 4)]
    return presentation("S5", gens, rels)


FINITE = {
    "Q8": quaternion_presentation(),
    "P2(RP2)": P2,
    "S5": coxeter_s5(),
    "P3(RP2)/rho^2": quotient(P3, [P3.word(f"rho{k}^2") for k in (1, 2, 3)]),
}


@pytest.mark.parametrize("name", list(FINITE))
def test_no_witness_separates_what_a_complete_table_calls_equal(name):
    p = FINITE[name]
    table = todd_coxeter(p)
    assert table.is_complete
    rng = random.Random(name)
    letters = range(2 * p.ngens)
    words = [letters_to_word(p.alphabet, [rng.choice(letters) for _ in range(rng.randint(0, 8))])
             for _ in range(200)]
    by_element = {}
    for w in words:
        by_element.setdefault(table.trace_word(1, w), []).append(w)
    equal_pairs = [(u, v) for ws in by_element.values() for u, v in zip(ws, ws[1:])]
    assert len(equal_pairs) >= 20
    for u, v in equal_pairs:
        assert find_witness(p, u, v) is None
    separated = 0
    for u, v in zip(words, words[1:]):
        witness = find_witness(p, u, v)
        if witness is not None:
            assert check_witness(p, u, v, witness)
            assert not word_equal_finite(table, u, v)
            separated += 1
    assert separated  # the comparison is not empty


def cyclically_reduced(row):
    """Whether no letter of row is followed, cyclically, by its inverse."""
    return all(x != y ^ 1 for x, y in zip(row, row[1:] + row[:1]))


# the finite triangle groups <a, b | a^k, b^m, (a b)^n> (up to order 120) and a cyclic group
TRIANGLES = [(2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5), (3, 2, 4), (5, 3, 2)]


@st.composite
def complete_tables(draw):
    """A complete coset table over a finite group, with up to two random relators more, for
    the subgroup generated by up to two random words: a transitive action of the group."""
    letters = st.integers(0, 3)
    if draw(st.booleans()):
        k, m, n = draw(st.sampled_from(TRIANGLES))
        names, rels = ("a", "b"), [[0] * k, [2] * m, [0, 2] * n]
    else:
        names, rels = ("a",), [[0] * draw(st.integers(1, 12))]
        letters = st.integers(0, 1)
    rels += draw(st.lists(st.lists(letters, min_size=1, max_size=8), max_size=2))
    p = Presentation("random", names, tuple(letters_to_word(names, r) for r in rels))
    subgroup = [letters_to_word(names, w)
                for w in draw(st.lists(st.lists(letters, max_size=4), max_size=2))]
    table = todd_coxeter(p, subgroup, max_cosets=400)
    assert table.is_complete
    return p, columns(table)


@settings(max_examples=200, deadline=None)
@given(complete_tables())
def test_the_rows_of_a_complete_table_are_cyclically_reduced(case):
    # the relators are cyclically reduced, and the walk keeps that
    p, cols = case
    sp = reidemeister.reidemeister_schreier(p, cols)
    assert all(cyclically_reduced(row) for row in sp.rows)


@pytest.mark.parametrize("p", [P2, P3, P4, Q8, *FINITE.values()],
                         ids=["P2", "P3", "P4", "Q8", *FINITE])
def test_the_rows_of_every_kernel_are_cyclically_reduced(p):
    for mask in kernel_maps(p):
        cols = [(0, 2, 1) if mask >> (x >> 1) & 1 else (0, 1, 2) for x in range(2 * p.ngens)]
        sp = reidemeister.reidemeister_schreier(p, cols)
        assert all(cyclically_reduced(row) for row in sp.rows), mask


@pytest.mark.parametrize("k", [None, 2, 4, 6, 8])
def test_the_rows_of_the_fiber_are_cyclically_reduced(k):
    # over the relators that close under the Q8 action: rho_k^2 and rho_k^6 do not
    p = P3 if k is None else rho_quotient(k)
    kept = Presentation(p.name, p.alphabet, tuple(r for r in p.relators if closes(P3_COLUMNS, r)))
    sp = reidemeister.reidemeister_schreier(kept, P3_COLUMNS)
    assert sp.rows and all(cyclically_reduced(row) for row in sp.rows)


def test_a_group_with_no_map_onto_z2_has_no_witness():
    z3 = presentation("Z3", ["a"], ["a^3"])
    assert list(kernel_maps(z3)) == []
    assert find_witness(z3, z3.word("a"), z3.word("1")) is None


def test_an_empty_lattice_still_gives_a_functional():
    # the free group on a and b: every relator row is zero, so H1 of each kernel is free
    f2 = presentation("F2", ["a", "b"], [])
    u, v = f2.word("a b a^-1 b^-1"), f2.word("1")
    witness = kernel_certificate(f2, u, v)
    assert witness.modulus == 0


def test_huge_exponents_are_rewritten_per_syllable():
    p = presentation("G", ["a", "b"], ["a^100000000000", "b^2", "a b a^-1 b^-1"])
    u, v = p.word("a^2"), p.word("a^100000000002")
    assert find_witness(p, u, v) is None
    witness = kernel_certificate(p, p.word("a^2"), p.word("1"))
    assert witness.modulus == 50000000000


def test_the_kernel_cap_bounds_an_undecided_p8_fallback():
    # tau_8 is central: tau rho1 = rho1 tau, so every kernel under the cap is tried and none
    # separates; P8(RP2) has 255 maps, and the cap keeps the fallback under 0.2 s
    p = pure_braid_rp2(8)
    assert len(list(kernel_maps(p))) == 255
    u, x = tau_n(8), p.word("rho1")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert find_witness(p, u * x, x * u) is None
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2


def certificate_battery():
    """Pairs over every presentation the witnesses serve: each generator and tau_n
    against 1 in P2, P3 and P4(RP2), Q8, F2's commutator, the group with a huge
    exponent and P3(RP2)/<rho^2>."""
    cases = []
    for n, p in ((2, P2), (3, P3), (4, P4)):
        one = Word.identity(p.alphabet)
        cases += [(p, p.word(name), one) for name in p.alphabet]
        cases += [(p, tau_n(n), one), (p, one, tau_n(n)),
                  (p, p.word("B12 rho1 B12^-1 rho1^-1"), p.word("rho1^2"))]
    pairs = {
        quaternion_presentation(): [("rho1", "1"), ("rho2", "1"), ("rho1^2", "1"),
                                    ("rho1^2", "rho2^2"), ("rho1 rho2", "rho2 rho1"),
                                    ("rho1 rho2", "rho2^-1 rho1")],
        presentation("F2", ["a", "b"], []): [("a b a^-1 b^-1", "1"), ("a^2 b^2", "b^2 a^2")],
        presentation("G", ["a", "b"], ["a^100000000000", "b^2", "a b a^-1 b^-1"]): [
            ("a^2", "1"), ("a^2", "a^100000000002"), ("a^4", "a^-6"), ("b a^2 b", "a^2")],
        quotient(P3, [P3.word(f"rho{k}^2") for k in (1, 2, 3)]): [
            ("rho1 rho2", "rho2 rho1"), ("B12", "1"), ("B13 B23", "B23 B13"),
            ("rho1 rho2 rho3", "1"), ("B12 B13 B23", "1"), ("rho1^2", "1")],
    }
    return cases + [(p, p.word(u), p.word(v)) for p, uv in pairs.items() for u, v in uv]


def test_the_certificates_are_pinned():
    # find_witness and witness_json over the battery, pinned by digest: a change in
    # the kernels' Schreier generators, their rows or the functional shows here
    out = []
    for p, u, v in certificate_battery():
        witness = find_witness(p, u, v)
        out.append([p.name, str(u), str(v), witness and schreier.witness_json(p, witness)])
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    assert digest == "6c1adc0b90473bb2ec08da46b0759f8f3ee71eac11574b9b8e72326952bec473"


# Q8's action on P3(RP2) and its free fiber; the word problem through the tower ----

FIBER_SP = reidemeister.reidemeister_schreier(P3, P3_COLUMNS)
ORACLE = tower.Tower(3)


def test_the_fiber_alphabet_is_the_atlas_one():
    # the letters that act trivially on Q8 are those of strand 3, the fiber's generators
    assert P3.alphabet == _rp2_alphabet(3)
    assert [name for x, name in enumerate(P3.alphabet)
            if P3_COLUMNS[2 * x] == tuple(range(9))] == ["B13", "B23", "rho3"]


def test_the_fiber_of_p3_is_free_of_rank_2():
    sp = FIBER_SP
    assert (sp.index, sp.ngens, len(sp.rows)) == (8, 41, 112)
    # H1 of the fiber: the exponent sums of the rows, reduced by the Smith normal form
    sums = [[row.count(2 * k) - row.count(2 * k + 1) for k in range(sp.ngens)] for row in sp.rows]
    diag, _, _ = smith_normal_form(sums)
    assert sorted(diag) == [0, 0] + [1] * 39
    # the tower's level 3 reads it as the free group on B13 and rho3
    assert tower.level(3, P3.relators).rank == 2


def test_the_spanning_tree_leaves_one_generator_per_other_edge():
    # a complete table of Q8 over the trivial subgroup: the regular action
    q8 = quaternion_presentation()
    sp = reidemeister.reidemeister_schreier(q8, columns(todd_coxeter(q8)))
    assert (sp.index, sp.ngens) == (8, 8 * 2 - 7)
    tree_edges = sum(s < 0 for col in sp.edges[::2] for s in col[1:])
    assert tree_edges == 7


P2_TABLE = todd_coxeter(P2)
TO_Q8 = forget_strands_hom(3, 2)


def q8_image(w):
    return P2_TABLE.trace_word(1, substitute(TO_Q8, w))


@st.composite
def p3_pairs(draw):
    letters = st.integers(0, 2 * P3.ngens - 1)
    u = letters_to_word(P3.alphabet, draw(st.lists(letters, max_size=10)))
    v = letters_to_word(P3.alphabet, draw(st.lists(letters, max_size=10)))
    return u, v


@settings(max_examples=300, deadline=None)
@given(relator_conjugate_pairs((P3,)))
def test_the_fiber_oracle_calls_relator_insertions_equal(case):
    _, u, v = case
    assert ORACLE(u, v) and ORACLE(v, u)


@settings(max_examples=300, deadline=None)
@given(p3_pairs())
def test_the_fiber_oracle_agrees_with_witnesses_and_q8(pair):
    u, v = pair
    same = ORACLE(u, v)
    assert ORACLE(v, u) == same
    if q8_image(u) != q8_image(v):
        assert not same
    witness = find_witness(P3, u, v)
    if witness is not None:
        assert check_witness(P3, u, v, witness) and not same
    if same:
        assert q8_image(u) == q8_image(v) and witness is None


def identity_pairs():
    """The paper's P3(RP2) identities, as the certify workload asks them."""
    pairs = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        b = f"B{i}{j}"
        pairs += [(b, f"rho{j} rho{i}^-1 rho{j}^-1 rho{i}"),
                  (f"{b}^-1 rho{j} {b}", f"rho{i}^-2 rho{j} rho{i}^2"),
                  (f"rho{i} rho{j} rho{i} rho{j}", f"rho{j} rho{i} rho{j} rho{i}")]
    tau = " ".join(P3.alphabet[g] for g, _ in tau_n(3).syllables)
    pairs += [(f"{tau} {x}", f"{x} {tau}") for x in P3.alphabet]
    return pairs


@pytest.mark.parametrize("lhs,rhs", identity_pairs())
def test_the_paper_identities_hold_in_the_fiber_oracle(lhs, rhs):
    assert ORACLE(P3.word(lhs), P3.word(rhs))


def test_a_commutator_no_witness_separates_is_unequal():
    # it lies in the fiber, so Q8 does not see it; level 3 does
    u, one = P3.word("B13 B23 B13^-1 B23^-1"), P3.word("1")
    assert find_witness(P3, u, one) is None
    assert q8_image(u) == q8_image(one)
    assert not ORACLE(u, one)


def test_huge_exponents_are_read_per_syllable():
    # rho1 commutes with B23 (relation family (d)); a power of a letter of the fiber is one
    # inner automorphism at level 3, Q8 reads a power modulo 4, and a quotient's relator x^m
    # reads it modulo m, so the powers cost nothing
    n = 10**11
    assert ORACLE(P3.word(f"rho1 B23^{n}"), P3.word(f"B23^{n} rho1"))
    assert ORACLE(P3.word(f"rho3^{2 * n + 2}"), P3.word(f"rho3^{2 * n} B13 B23"))
    assert not ORACLE(P3.word(f"rho3^{2 * n + 1}"), P3.word(f"rho3^{2 * n} B13"))
    # rho1^4 lies in the fiber, so its power is one inner automorphism too
    assert ORACLE(P3.word(f"rho1^{4 * n} B23"), P3.word(f"B23 rho1^{4 * n}"))
    assert not ORACLE(P3.word(f"rho1^{4 * n} B13"), P3.word(f"B13 rho1^{4 * n}"))
    assert not ORACLE(P3.word(f"rho1^{4 * n + 1}"), P3.word(f"rho1^{4 * n} rho2"))
    rho6 = tower.Tower(*tower_strands(rho_quotient(6)))
    assert rho6(P3.word(f"rho1 B23 rho3^{6 * n + 1}"), P3.word(f"B23 rho1 rho3^{6 * n + 7}"))


def rho_quotient(k):
    return quotient(P3, [P3.word(f"rho{i}^{k}") for i in (1, 2, 3)])


@pytest.mark.parametrize("p,error", [(rho_quotient(6), Undecided), (rho_quotient(4), Undecided),
                                     (rho_quotient(2), Undecided), (P4, EnumerationError)],
                         ids=["rho6", "rho4", "rho2", "P4"])
def test_the_fiber_oracle_refuses_what_it_cannot_decide(p, error):
    # words of P4(RP2) are refused outright, as input over the wrong alphabet.  On the
    # quotients the commutator of B13 and B23, which Q8 does not see, is separated at level 3
    # only, which proves nothing there
    oracle = ORACLE if p is P4 else tower.Tower(*tower_strands(p))
    with pytest.raises(error):
        oracle(p.word("B13 B23 B13^-1 B23^-1"), p.word("1"))


@pytest.mark.parametrize("p,broken", [(rho_quotient(6), "rho1^6 rho2^6"),
                                      (rho_quotient(2), "rho1^2 rho2^2"),
                                      (quotient(P3, [P3.word("B12")]), "B12")],
                         ids=["rho6", "rho2", "B12"])
def test_a_relator_the_q8_action_breaks_leaves_q8_proving_only_equal(p, broken):
    # rho1^k and rho2^k go to -1 in Q8 for k = 2, 6, and so does B12 (rho3 goes to 1): Q8 is
    # no quotient of the group, so a pair it separates, rho1 rho2 and rho2 rho1, is undecided
    assert [rel for rel in p.relators if not closes(P3_COLUMNS, rel)] == [
        p.word(rel) for rel in broken.split()]
    oracle = tower.Tower(*tower_strands(p))
    assert not oracle._exact
    with pytest.raises(Undecided, match="only equal words at level 2 on a quotient$"):
        oracle(p.word("rho1 rho2"), p.word("rho2 rho1"))
    with pytest.raises(EnumerationError, match="does not close at coset 1"):
        reidemeister.reidemeister_schreier(p, P3_COLUMNS)


def test_a_quotient_with_a_relator_left_out_proves_only_equal_words():
    # rho1^2 = 1 holds in P3(RP2)/<rho^2> though the Q8 action moves coset 1 by it:
    # the power rule reads it as 1, and a pair no level calls equal is undecided
    oracle = tower.Tower(*tower_strands(rho_quotient(2)))
    assert oracle(P3.word("rho1^2"), P3.word("1")) is True
    assert oracle(P3.word("rho1^-1"), P3.word("rho1")) is True
    for lhs in ("B12", "rho1 rho2 rho1^-1 rho2^-1"):
        with pytest.raises(Undecided, match="proves only equal words"):
            oracle(P3.word(lhs), P3.word("1"))


def test_a_lazy_oracle_answers_a_pair_q8_separates_by_its_walk(monkeypatch):
    # Q8 is the first level: a pair it separates never reaches level 3
    monkeypatch.setattr(tower, "level", None)
    oracle = tower.Tower(3)
    assert oracle(P3.word("B12"), P3.word("1")) is False
    monkeypatch.undo()
    assert oracle(P3.word("B13 B23 B13^-1 B23^-1"), P3.word("1")) is False


RHO6_ORACLE = tower.Tower(*tower_strands(rho_quotient(6)))


@st.composite
def rho6_insertions(draw):
    """A word of P3(RP2)/<rho^6>, the word with rho_k^(+-6) inserted at a letter
    position, and a word to compare them with."""
    letters = st.lists(st.integers(0, 2 * P3.ngens - 1), max_size=10)
    u = draw(letters)
    k, sign, at = draw(st.integers(3, 5)), draw(st.integers(0, 1)), draw(st.integers(0, len(u)))
    inserted = u[:at] + [2 * k + sign] * 6 + u[at:]
    return (letters_to_word(P3.alphabet, u), letters_to_word(P3.alphabet, inserted),
            letters_to_word(P3.alphabet, draw(letters)))


def answer(oracle, u, v):
    try:
        return oracle(u, v)
    except Undecided:
        return None


@settings(max_examples=300, deadline=None)
@given(rho6_insertions())
def test_an_inserted_rho6_is_answered_like_the_word_without_it(case):
    u, inserted, v = case
    assert RHO6_ORACLE(inserted, u) is True
    assert answer(RHO6_ORACLE, inserted, v) == answer(RHO6_ORACLE, u, v)


RHO_TABLES = {k: todd_coxeter(rho_quotient(k)) for k in (2, 4)}
RHO_ORACLES = {k: tower.Tower(*tower_strands(rho_quotient(k))) for k in (2, 4)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 4]), p3_pairs())
def test_every_answer_on_a_rho_quotient_agrees_with_its_complete_table(k, pair):
    # P3(RP2)/<rho^2> and /<rho^4> have orders 16 and 128: the table decides every pair
    u, v = pair
    table = RHO_TABLES[k]
    assert table.is_complete and table.n_cosets == {2: 16, 4: 128}[k]
    same = answer(RHO_ORACLES[k], u, v)
    assert same is None or same == word_equal_finite(table, u, v)


def test_p4_and_long_relators_pay_no_enumeration(monkeypatch):
    from braidkernel import coset
    monkeypatch.setattr(coset, "todd_coxeter", None)
    one, p4 = Word.identity(P4.alphabet), tower.Tower(*tower_strands(P4))
    assert p4(tau_n(4) * P4.word("rho1"), P4.word("rho1") * tau_n(4))
    assert p4(P4.word("B14"), one) is False
    # a consequence of the relators, 2085 letters in all, that goes to 1 in Q8: Q8 still
    # proves "not equal", and only Q8
    long = quotient(P3, [P3.word("rho3^2 B23^-1 B13^-1") ** 500])
    oracle = tower.Tower(*tower_strands(long))
    assert oracle(long.relators[-1], P3.word("1")) and oracle(P3.word("B12"), P3.word("1")) is False
    with pytest.raises(Undecided, match="level 3 on a quotient"):
        oracle(P3.word("B13"), P3.word("1"))


def test_a_table_that_is_not_an_action_is_refused():
    z2 = presentation("Z2", ["a"], ["a^2"])
    # a 3-cycle for a does not satisfy a^2
    with pytest.raises(EnumerationError, match="does not close"):
        reidemeister.reidemeister_schreier(z2, [[0, 2, 3, 1], [0, 3, 1, 2]])
    # columns that are not inverse permutations
    with pytest.raises(EnumerationError, match="permutation action"):
        reidemeister.reidemeister_schreier(z2, [[0, 2, 1], [0, 1, 2]])
    # an undefined entry, a coset out of range, a short column, a missing column
    for cols in ([[0, 2, None], [0, 2, 1]], [[0, 2, 3], [0, 2, 1]], [[0, 2, 1], [0, 2]],
                 [[0, 2, 1]]):
        with pytest.raises(EnumerationError, match="not 2 maps of 1..2"):
            reidemeister.reidemeister_schreier(z2, cols)
