"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a PASS line (visible under ``pytest -s`` or by running
this file as a script), and any assertion failure is the corresponding
FAIL.  Everything here is exact algebra; there are no numeric
tolerances to tune.
"""

import pathlib
import random

from braidkernel import (
    abelianization, b_ij_as_rho, can_cover, center_order_finite,
    check_derivation, enumerate_normal_forms, euler_char, forget_strands_hom,
    group_order, hom_check, is_central_finite, kernel_description,
    klein_presentation, knuth_bendix, parse_chain_file, pi1_nonorientable,
    presentation, pure_braid_rp2, quaternion_presentation, quotient,
    search_equality, shortlex_compare, table_equality_oracle, tau_n,
    todd_coxeter, torus_presentation, word_equal_finite,
)
from braidkernel.presentations import substitute
from braidkernel.surfaces import KLEIN, RP2, SPHERE, TORUS, SurfaceKind
from braidkernel.words import Word, free_reduce_letters, make_alphabet

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_quaternion_identification():
    p2 = pure_braid_rp2(2)
    table = todd_coxeter(p2)
    assert group_order(table) == 8
    assert center_order_finite(table) == 2
    assert word_equal_finite(table, tau_n(2), p2.word("rho1^2"))
    _report(1, "P2(RP2) has order 8, center of order 2, tau_2 = rho1^2")


def test_criterion_2_tau_centrality():
    # n = 2: directly in the order-8 table
    p2 = pure_braid_rp2(2)
    table2 = todd_coxeter(p2)
    assert is_central_finite(table2, tau_n(2))

    # n = 3: the quotient by fourth powers of the rho generators
    p3 = pure_braid_rp2(3)
    q3 = quotient(p3, [p3.word(f"rho{k}^4") for k in (1, 2, 3)])
    table3 = todd_coxeter(q3, max_cosets=100000)
    if table3.is_complete:
        assert is_central_finite(table3, tau_n(3))
        detail = f"central in the order-{group_order(table3)} fourth-power quotient"
    else:
        # fallback: the image of tau_3 under strand forgetting is central
        hom = forget_strands_hom(3, 2)
        assert hom_check(hom, table_equality_oracle(table2)).verified
        assert is_central_finite(table2, substitute(hom, tau_n(3)))
        detail = "image of tau_3 under forgetting is central (fallback)"

    # the fixed corpus chains instantiating the displayed identities
    # must replay regardless of which branch ran
    for fname, n in [("conj_rho_squared_n3.chain", 3),
                     ("conj_rho_squared_n3_23.chain", 3),
                     ("braidlike_n3.chain", 3),
                     ("conj_rho_squared_n2.chain", 2),
                     ("braidlike_n2.chain", 2)]:
        p = pure_braid_rp2(n)
        assert check_derivation(parse_chain_file((DATA_DIR / fname).read_text(), p)).valid, fname
    _report(2, f"tau_2 central; tau_3 {detail}; 5 corpus chains replay")


def test_criterion_3_b_ij_identity():
    p2 = pure_braid_rp2(2)
    table = todd_coxeter(p2)
    lhs = p2.gen("B12")
    rhs = b_ij_as_rho(2, 1, 2)
    assert word_equal_finite(table, lhs, rhs)
    chain = search_equality(p2, lhs, rhs, max_word_len=12)
    assert chain is not None
    assert check_derivation(chain).valid
    assert chain.start == lhs and chain.end == rhs
    _report(3, f"B12 = rho2 rho1^-1 rho2^-1 rho1 by table and a "
               f"{len(chain.steps)}-step certificate")


def test_criterion_4_forgetting_maps():
    h21 = forget_strands_hom(2, 1)
    table1 = todd_coxeter(h21.target)
    assert hom_check(h21, table_equality_oracle(table1)).verified

    h32 = forget_strands_hom(3, 2)
    table2 = todd_coxeter(h32.target)
    assert hom_check(h32, table_equality_oracle(table2)).verified
    assert word_equal_finite(table2, substitute(h32, tau_n(3)), tau_n(2))
    _report(4, "forgetting maps (2,1) and (3,2) verified; theta(tau_3) = tau_2")


def test_criterion_5_abelianizations():
    for k in range(1, 7):
        inv = abelianization(pi1_nonorientable(k))
        assert (inv.rank, inv.torsion) == (k - 1, (2,)), k
    torus = abelianization(torus_presentation())
    assert (torus.rank, torus.torsion) == (2, ())
    klein = abelianization(klein_presentation())
    assert (klein.rank, klein.torsion) == (1, (2,))
    _report(5, "pi1(N_k) k=1..6 give rank k-1 torsion (2); torus Z^2; "
               "Klein Z + Z/2")


def test_criterion_6_covering_arithmetic():
    assert quotient_candidates_match()
    decision = can_cover(KLEIN, TORUS, 2)
    assert not decision.possible
    assert decision.certificate == "nonabelian-quotient"
    witness = decision.witness
    table = todd_coxeter(witness.target)
    assert group_order(table) == 8
    assert hom_check(witness, table_equality_oracle(table)).verified
    _report(6, "quotient candidates exact; Klein-over-torus impossible with a "
               "verified non-abelian-quotient witness")


def quotient_candidates_match():
    from braidkernel import quotient_candidates
    s = SurfaceKind
    if quotient_candidates(s(True, 3), 2) != [s(True, 2), s(False, 4)]:
        return False
    if quotient_candidates(s(True, 2), 2) != [s(False, 3)]:
        return False
    for g in range(0, 5):
        for k in range(1, 7):
            for l in range(1, 6):
                for m in (s(True, g), s(False, k)):
                    for cand in quotient_candidates(m, l):
                        if l * euler_char(cand) != euler_char(m):
                            return False
    return True


def test_criterion_7_kernel_descriptions():
    cases = [
        (SurfaceKind(True, 2), 3, True, None, "full"),
        (SurfaceKind(True, 2), 3, False, None, "full"),
        (SurfaceKind(True, 5), 1, True, None, "full"),
        (KLEIN, 2, True, None, "full"),
        (SurfaceKind(False, 3), 1, False, None, "full"),
        (SPHERE, 1, True, None, "mod-center"),
        (SPHERE, 2, False, None, "mod-center"),
        (SPHERE, 4, True, None, "mod-center"),
        (RP2, 1, True, None, "mod-center"),
        (RP2, 2, True, None, "mod-center"),
        (RP2, 3, True, None, "mod-center"),
        (RP2, 2, False, None, "mod-center"),
        (TORUS, 1, True, (2, 3), "mod-lattice"),
        (TORUS, 1, False, (2, 2), "mod-lattice"),
        (TORUS, 5, True, (2, 3), "mod-lattice"),
    ]
    assert len(cases) == 15
    for surface, n, pure, params, expected in cases:
        desc = kernel_description(surface, n, pure, params)
        assert desc.case == expected, (surface, n, pure)

    assert group_order(todd_coxeter(
        kernel_description(RP2, 2, True).presentation)) == 4
    for params in [(1, 1), (2, 3), (2, 2)]:
        desc = kernel_description(TORUS, 1, True, params)
        assert group_order(todd_coxeter(desc.presentation)) == params[0] * params[1]
    _report(7, "15-case kernel table exact; explicit orders 4 and q*r confirmed")


def test_criterion_8_engine_cross_validation():
    t2 = torus_presentation()
    targets = [
        presentation("Z5", ["a"], ["a^5"]),
        presentation("S3", ["a", "b"], ["a^2", "b^2", "a b a b a b"]),
        quaternion_presentation(),
        quotient(t2, [t2.word("a^2"), t2.word("b^3")]),
        pure_braid_rp2(2),
    ]
    for p in targets:
        rs = knuth_bendix(p)
        assert rs.confluent, p.name
        order = group_order(todd_coxeter(p))
        forms = enumerate_normal_forms(rs, limit=order + 10)
        assert len(forms) == order, p.name

    free_abelian = knuth_bendix(t2)
    assert free_abelian.confluent
    assert len(enumerate_normal_forms(free_abelian, max_letters=2)) == 13
    _report(8, "KB normal-form counts match enumeration orders on 5 groups; "
               "13 short normal forms for Z^2")


def test_criterion_9_word_core_properties():
    rng = random.Random(271828)
    alphabet = make_alphabet(["a", "b", "c"])
    violations = 0

    def random_syllables():
        return [(rng.randint(0, 2), rng.randint(-3, 3))
                for _ in range(rng.randint(0, 8))]

    def random_order_reduce(letters):
        letters = list(letters)
        while True:
            pairs = [i for i in range(len(letters) - 1)
                     if letters[i] == letters[i + 1] ^ 1]
            if not pairs:
                return tuple(letters)
            i = rng.choice(pairs)
            del letters[i:i + 2]

    for _ in range(10000):
        u = Word.from_syllables(alphabet, random_syllables())
        v = Word.from_syllables(alphabet, random_syllables())
        x = Word.from_syllables(alphabet, random_syllables())

        # free-reduction canonicity on a raw letter string
        raw = [rng.randint(0, 5) for _ in range(rng.randint(0, 10))]
        if random_order_reduce(raw) != free_reduce_letters(raw):
            violations += 1

        # group axioms
        e = Word.identity(alphabet)
        if (u * v) * x != u * (v * x):
            violations += 1
        if u * e != u or e * u != u or u * u.inverse() != e:
            violations += 1

        # shortlex totality: antisymmetry and identity of equals
        cuv = shortlex_compare(u, v)
        if cuv != -shortlex_compare(v, u) or (cuv == 0) != (u == v):
            violations += 1
        if (u * v).letter_length > u.letter_length + v.letter_length:
            violations += 1

    assert violations == 0
    _report(9, "10^4 randomized word-core cases, zero violations")


if __name__ == "__main__":
    import sys
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion") and callable(fn):
            number = name.split("_")[2]
            try:
                fn()
            except AssertionError as exc:
                failures += 1
                print(f"ACCEPTANCE {number}: FAIL - {exc}")
    sys.exit(1 if failures else 0)
