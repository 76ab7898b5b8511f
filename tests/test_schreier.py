"""Index-2 witnesses: the kernels of the maps onto Z/2, their H1, and the
certificates that two words differ, checked without a Smith normal form."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidkernel import (
    presentation, pure_braid_rp2, quaternion_presentation, quotient, tau_n, todd_coxeter,
    word_equal_finite,
)
from braidkernel import schreier
from braidkernel.schreier import Witness, check_witness, find_witness
from braidkernel.snf import invariant_factors
from braidkernel.words import Word, letters_to_word, word_to_letters

P2, P3, P4 = pure_braid_rp2(2), pure_braid_rp2(3), pure_braid_rp2(4)


def kernel_h1(p, mask):
    """(free rank, torsion) of H1 of the kernel of one map onto Z/2."""
    rows = schreier.relator_rows(p, schreier.schreier_index(p, mask), mask)
    diag = invariant_factors(rows)
    return sum(1 for d in diag if d == 0), tuple(d for d in diag if d > 1)


def test_kernel_h1_of_the_pure_braid_groups():
    h1 = {n: [kernel_h1(p, mask) for mask in schreier.kernel_maps(p)]
          for n, p in ((2, P2), (3, P3), (4, P4))}
    assert h1[2] == [(0, (4,))] * 3
    assert sorted(rank for rank, _ in h1[3]) == [0, 0, 0, 0, 1, 1, 1]
    assert sorted(rank for rank, _ in h1[4]) == [0] * 11 + [2] * 4
    # the kernel cap admits every kernel of P3(RP2) and P4(RP2)
    assert len(h1[4]) <= schreier.MAX_KERNELS


def test_maps_are_the_homomorphisms_onto_z2():
    for p in (P2, P3, P4, quaternion_presentation()):
        maps = list(schreier.kernel_maps(p))
        homs = [mask for mask in range(1, 1 << p.ngens)
                if all(sum(exp for gen, exp in rel.syllables if mask >> gen & 1) % 2 == 0
                       for rel in p.relators)]
        assert sorted(maps) == homs


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
    rows = schreier.relator_rows(p, schreier.schreier_index(p, mask), mask)
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


def letter_walk(index, mask, w, coset=0):
    """schreier.rewrite one letter at a time."""
    vec = [0] * len(index)
    for x in word_to_letters(w):
        gen = x >> 1
        if x & 1:  # an inverse letter arrives by the edge of the coset it leaves to
            coset ^= mask >> gen & 1
            if (coset, gen) in index:
                vec[index[coset, gen]] -= 1
        else:
            if (coset, gen) in index:
                vec[index[coset, gen]] += 1
            coset ^= mask >> gen & 1
    return vec, coset


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([P2, P3]), st.data())
def test_rewrite_matches_a_letter_walk(p, data):
    mask = data.draw(st.sampled_from(list(schreier.kernel_maps(p))))
    index = schreier.schreier_index(p, mask)
    sylls = data.draw(st.lists(st.tuples(st.integers(0, p.ngens - 1), st.integers(-5, 5)),
                               max_size=8))
    w = Word.from_syllables(p.alphabet, sylls)
    coset = data.draw(st.integers(0, 1))
    assert schreier.rewrite(index, mask, w, coset) == letter_walk(index, mask, w, coset)


@st.composite
def relator_conjugate_pairs(draw):
    """A group, a word u, and u with a conjugate of a rotated, possibly
    inverted relator spliced in: equal by construction."""
    p = draw(st.sampled_from([P2, P3, P4]))
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


def test_a_group_with_no_map_onto_z2_has_no_witness():
    z3 = presentation("Z3", ["a"], ["a^3"])
    assert list(schreier.kernel_maps(z3)) == []
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
    assert len(list(schreier.kernel_maps(p))) == 255
    u, x = tau_n(8), p.word("rho1")
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert find_witness(p, u * x, x * u) is None
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2
