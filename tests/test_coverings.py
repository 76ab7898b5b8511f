import hashlib
import math
import time
from types import SimpleNamespace

import pytest

from braidkernel import (
    KLEIN, RP2, SPHERE, TORUS, CoveringError, SurfaceKind,
    can_cover, center_order_finite, euler_char, format_presentation, group_order,
    hom_check, kernel_description, quotient_candidates, table_equality_oracle,
    todd_coxeter, torus_action_forms,
)
from braidkernel import atlas, coset
from braidkernel.surfaces import TORUS_MAX_ORDER


def S(g):
    return SurfaceKind(True, g)


def N(k):
    return SurfaceKind(False, k)


def test_euler_characteristics():
    assert euler_char(S(2)) == -2
    assert euler_char(TORUS) == 0
    assert euler_char(KLEIN) == 0
    assert euler_char(SPHERE) == 2
    assert euler_char(RP2) == 1
    assert euler_char(N(3)) == -1


def test_surface_validation():
    with pytest.raises(Exception):
        SurfaceKind(False, 0)
    with pytest.raises(Exception):
        SurfaceKind(True, -1)


# quotient candidates ------------------------------------------------------------

def test_quotient_candidates_spec_cases():
    assert quotient_candidates(S(3), 2) == [S(2), N(4)]
    assert quotient_candidates(S(2), 2) == [N(3)]
    assert quotient_candidates(S(2), 1) == [S(2), N(4)]
    assert quotient_candidates(S(2), 1, strict_orientability=True) == [S(2)]


def test_can_cover_agrees_with_strict_quotient_candidates():
    surfaces = [S(g) for g in range(7)] + [N(k) for k in range(1, 7)]
    for cover in surfaces:
        for l in range(1, 7):
            strict = quotient_candidates(cover, l, strict_orientability=True)
            for base in surfaces:
                assert can_cover(cover, base, l).possible == (base in strict), (cover, base, l)


def test_quotient_candidates_sphere():
    assert quotient_candidates(SPHERE, 1) == [SPHERE]
    assert quotient_candidates(SPHERE, 2) == [RP2]
    assert quotient_candidates(SPHERE, 3) == []


def test_quotient_candidates_torus():
    for l in (1, 2, 3, 4, 6):
        assert quotient_candidates(TORUS, l) == [TORUS, KLEIN]
    assert quotient_candidates(TORUS, 5, strict_orientability=True) == [TORUS]


def test_quotient_candidates_nonorientable():
    assert quotient_candidates(N(4), 2) == [N(3)]
    assert quotient_candidates(N(6), 2) == [S(2), N(4)]
    # strict mode drops the orientable quotient of a nonorientable space
    assert quotient_candidates(N(6), 2, strict_orientability=True) == [N(4)]


def test_quotient_candidates_satisfy_multiplicativity():
    surfaces = [S(g) for g in range(0, 6)] + [N(k) for k in range(1, 8)]
    for m in surfaces:
        for l in range(1, 7):
            for cand in quotient_candidates(m, l):
                assert l * euler_char(cand) == euler_char(m)


def _genus_formula_candidates(m, l, strict_orientability=False):
    # the four genus formulas quotient_candidates used before it read the
    # Euler characteristic; kept as the reference it is compared against
    out = []
    if m.orientable:
        g = m.genus
        if (g - 1) % l == 0 and (g - 1) // l + 1 >= 0:
            out.append(SurfaceKind(True, (g - 1) // l + 1))
        if (2 * (g - 1)) % l == 0 and 2 * (g - 1) // l + 2 >= 1:
            out.append(SurfaceKind(False, 2 * (g - 1) // l + 2))
    else:
        k = m.genus
        if (k - 2) % (2 * l) == 0 and (k - 2) // (2 * l) + 1 >= 0:
            out.append(SurfaceKind(True, (k - 2) // (2 * l) + 1))
        if (k - 2) % l == 0 and (k - 2) // l + 2 >= 1:
            out.append(SurfaceKind(False, (k - 2) // l + 2))
    if strict_orientability:
        if not m.orientable:
            out = [c for c in out if not c.orientable]
        elif l % 2 == 1:
            out = [c for c in out if c.orientable]
    return out


def test_quotient_candidates_match_genus_formulas():
    surfaces = [S(g) for g in range(0, 60)] + [N(k) for k in range(1, 60)]
    for m in surfaces:
        for l in range(1, 60):
            for strict in (False, True):
                assert quotient_candidates(m, l, strict) == \
                    _genus_formula_candidates(m, l, strict), (m, l, strict)


def test_quotient_candidates_validation():
    with pytest.raises(CoveringError):
        quotient_candidates(TORUS, 0)


def test_torus_action_forms():
    assert torus_action_forms(4) == [(1, 4), (2, 2)]
    assert torus_action_forms(1) == [(1, 1)]
    assert torus_action_forms(6) == [(1, 6)]
    assert torus_action_forms(36) == [(1, 36), (2, 18), (3, 12), (6, 6)]
    for l in range(1, 40):
        for q, r in torus_action_forms(l):
            assert q * r == l and r % q == 0


def torus_action_forms_by_search(l):
    """Reference oracle for ``torus_action_forms``: every q with q*q <= l."""
    return [(q, l // q) for q in range(1, math.isqrt(l) + 1) if l % (q * q) == 0]


def test_torus_action_forms_match_search():
    for l in range(1, 20001):
        assert torus_action_forms(l) == torus_action_forms_by_search(l), l


def test_torus_action_forms_large_order():
    l = 10**14
    start = time.perf_counter()
    forms = torus_action_forms(l)
    assert time.perf_counter() - start < 1
    # 10^14 = 2^14 * 5^14, so q runs over the 64 divisors of 10^7
    assert forms == sorted((2**a * 5**b, l // (2**a * 5**b)) for a in range(8) for b in range(8))


def test_torus_action_forms_ceiling():
    assert torus_action_forms(TORUS_MAX_ORDER)[:2] == [(1, 10**18), (2, 5 * 10**17)]
    # a prime just below the ceiling: the slowest order to factor
    assert torus_action_forms(999999999999999989) == [(1, 999999999999999989)]
    with pytest.raises(CoveringError, match=f"must be <= {TORUS_MAX_ORDER}, got "):
        torus_action_forms(TORUS_MAX_ORDER + 1)
    with pytest.raises(CoveringError, match="must be >= 1"):
        torus_action_forms(0)


# covering decisions ---------------------------------------------------------------

def test_klein_cannot_cover_torus(q8_table):
    decision = can_cover(KLEIN, TORUS, 2)
    assert not decision.possible
    assert decision.certificate == "nonabelian-quotient"
    # the witness really is a verified surjection onto the order-8 group
    witness = decision.witness
    assert witness is not None
    assert hom_check(witness, table_equality_oracle(q8_table)).verified
    assert todd_coxeter(witness.target, list(witness.images)).n_cosets == 1


def _index_two(p, subgroup_gens=(), **budget):
    # the table of the images' subgroup claims two cosets; the full table stays real
    return SimpleNamespace(n_cosets=2) if subgroup_gens else todd_coxeter(p, **budget)


@pytest.mark.parametrize("module,name,fake,message", [
    (coset, "table_equality_oracle", lambda table: lambda u, v: False, "failed verification"),
    (coset, "todd_coxeter", _index_two, "not surjective"),
    (coset, "word_equal_finite", lambda table, u, v: True, "image is abelian"),
], ids=["hom-check", "surjective", "nonabelian"])
def test_klein_certificate_self_checks_refuse(monkeypatch, module, name, fake, message):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(CoveringError, match=message):
        can_cover(KLEIN, TORUS, 2)


def test_the_torus_group_is_presented_abelian():
    # the Klein certificate's "pi1(base) is abelian": the one relator is the commutator
    tp = atlas.torus_presentation()
    assert tp.relators == (tp.word("a b a^-1 b^-1"),)


def test_euler_characteristic_obstruction():
    decision = can_cover(TORUS, SPHERE, 2)
    assert not decision.possible
    assert decision.certificate == "euler-characteristic"


def test_orientation_lift_obstruction():
    decision = can_cover(N(4), S(2), 1)
    assert not decision.possible
    assert decision.certificate == "orientation-lift"


def test_not_excluded_cases():
    assert can_cover(S(3), S(2), 2).possible
    assert can_cover(TORUS, KLEIN, 2).possible
    assert can_cover(SPHERE, RP2, 2).possible


def test_known_coverings_never_excluded():
    # torus self-covers of every degree
    for l in (1, 2, 3, 4, 6, 12):
        assert can_cover(TORUS, TORUS, l).possible
    # l-sheeted covers of genus-g surfaces: S_{l(g-1)+1} over S_g
    for g in (2, 3, 4):
        for l in (1, 2, 3, 5):
            assert can_cover(S(l * (g - 1) + 1), S(g), l).possible


def test_cover_validation():
    with pytest.raises(CoveringError):
        can_cover(TORUS, TORUS, 0)


# kernel descriptions ----------------------------------------------------------------

KERNEL_CASES = [
    # (surface, n, pure, params, expected case, explicit presentation?)
    (S(2), 3, True, None, "full", False),
    (S(2), 3, False, None, "full", False),
    (S(5), 1, True, None, "full", False),
    (KLEIN, 2, True, None, "full", False),
    (N(3), 1, False, None, "full", False),
    (SPHERE, 1, True, None, "mod-center", False),
    (SPHERE, 2, False, None, "mod-center", False),
    (SPHERE, 4, True, None, "mod-center", False),
    (RP2, 1, True, None, "mod-center", True),
    (RP2, 2, True, None, "mod-center", True),
    (RP2, 3, True, None, "mod-center", True),
    (RP2, 2, False, None, "mod-center", False),
    (TORUS, 1, True, (2, 3), "mod-lattice", True),
    (TORUS, 1, False, (2, 2), "mod-lattice", True),
    (TORUS, 5, True, (2, 3), "mod-lattice", False),
]


@pytest.mark.parametrize("surface,n,pure,params,case,explicit", KERNEL_CASES)
def test_kernel_case_table(surface, n, pure, params, case, explicit):
    desc = kernel_description(surface, n, pure, params)
    assert desc.case == case
    assert (desc.presentation is not None) == explicit
    marker = "P" if pure else "B"
    assert desc.description.startswith(f"{marker}{n}(")


def test_kernel_case_table_is_total_and_unique():
    # one case tag per (surface class, purity) combination
    for pure in (True, False):
        for surface, expected in [(S(4), "full"), (N(5), "full"), (KLEIN, "full"),
                                  (SPHERE, "mod-center"), (RP2, "mod-center")]:
            assert kernel_description(surface, 2, pure).case == expected
        assert kernel_description(TORUS, 2, pure, (1, 2)).case == "mod-lattice"


def test_kernel_rp2_n2_explicit_order():
    desc = kernel_description(RP2, 2, True)
    table = todd_coxeter(desc.presentation)
    assert group_order(table) == 4


def test_kernel_rp2_lagrange_cross_check(rp2_n2_table):
    # |P2| = |P2 / center| * |center|
    desc = kernel_description(RP2, 2, True)
    kernel_order = group_order(todd_coxeter(desc.presentation))
    assert kernel_order * center_order_finite(rp2_n2_table) == group_order(rp2_n2_table)


# sha256 of format_presentation(kernel_description(RP2, n, True).presentation)
KERNEL_RP2_SHA256 = {
    1: "0dd12c8133f314adda0a7c5ed4e7a5b000e1d8636906f384ed342df70c54cc44",
    2: "9c82306f1f726b762337cb35d03f210c8109d12910b2237efe9b0c37d9c3191d",
    3: "f7542f5594863b415e6d56194693d82ecb93652eae11f73daecb291f4f8c46d2",
    4: "db75e9881963fb20c36c5c05e6798b4669c6f3c2b8dbdb0e73d4d45585905aff",
    5: "56c3dab1657c90f9ba2dd5b044191c68f236c5db74434f91933b53317ce355d1",
    6: "432c83f87d0994bbaab4b0055b3933eba8d681cc320ebbc90b1cfa07115c24b7",
    7: "bc14f90ad61744117ab9dddeb7067332b54126bf177f97d657ce1ad14116a544",
    8: "633955267644da4b6f8deed5d5f6fe76f6105a4018a7e44e9fec6eeee9e0994c",
}


@pytest.mark.parametrize("n", sorted(KERNEL_RP2_SHA256))
def test_kernel_rp2_presentation_pinned(n):
    text = format_presentation(kernel_description(RP2, n, True).presentation)
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_RP2_SHA256[n]


def test_kernel_rp2_n1_whole_group_case():
    desc = kernel_description(RP2, 1, True)
    assert group_order(todd_coxeter(desc.presentation)) == 1


@pytest.mark.parametrize("params,order", [((1, 1), 1), ((2, 3), 6), ((2, 2), 4)])
def test_kernel_torus_n1_orders(params, order):
    desc = kernel_description(TORUS, 1, True, params)
    assert group_order(todd_coxeter(desc.presentation)) == order


def test_kernel_description_strings():
    assert kernel_description(S(2), 3, True).description == "P3(S2)"
    assert kernel_description(TORUS, 5, True, (2, 3)).description == \
        "P5(T2) / <a~^2, b~^3>"
    full = kernel_description(RP2, 2, False).description
    assert full == "B2(RP2) / Z(P2(RP2))"


def test_kernel_param_validation():
    with pytest.raises(CoveringError):
        kernel_description(TORUS, 1, True)
    with pytest.raises(CoveringError):
        kernel_description(RP2, 1, True, (2, 3))
    with pytest.raises(CoveringError):
        kernel_description(TORUS, 1, True, (0, 3))
    with pytest.raises(CoveringError):
        kernel_description(RP2, 0, True)

