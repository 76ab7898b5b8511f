import hashlib

import pytest

from braidkernel import (
    KLEIN, RP2, SPHERE, TORUS, AtlasError, SurfaceKind, abelianization,
    b_ij_as_rho, center_table, forget_strands_hom, group_order, hom_check,
    is_central_finite, klein_presentation, pi1_nonorientable, pure_braid_rp2,
    quaternion_presentation, rp2_strand_count, table_equality_oracle,
    tau_component, tau_n, todd_coxeter, torus_presentation,
    word_equal_finite, center_order_finite, format_word,
)
from braidkernel import atlas
from braidkernel.atlas import RP2_MAX_STRANDS


# independent oracle: quaternion arithmetic on {+-1, +-i, +-j, +-k} ------------

_QMUL = {
    ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
}


def qmul(a, b):
    (sa, ua), (sb, ub) = a, b
    if ua == "1":
        return (sa * sb, ub)
    if ub == "1":
        return (sa * sb, ua)
    s, u = _QMUL[(ua, ub)]
    return (sa * sb * s, u)


def qinv(a):
    s, u = a
    return (s, u) if u == "1" else (-s, u)


def evaluate_in_q8(word, assignment):
    out = (1, "1")
    for gen, exp in word.syllables:
        base = assignment[word.alphabet[gen]]
        factor = base if exp > 0 else qinv(base)
        for _ in range(abs(exp)):
            out = qmul(out, factor)
    return out


ASSIGN_N2 = {"rho1": (1, "i"), "rho2": (1, "j"), "B12": (-1, "1")}


# presentation shape -------------------------------------------------------------

def pattern_counts(n):
    """Independent enumeration of the four relation families' index sets."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    a = 0
    for r, s in pairs:
        for i, j in pairs:
            if (i < r < s < j) or (r < i == s < j) or (i == r < s < j) \
                    or (r < i < s < j):
                a += 1
    b = len(pairs)
    c = n
    d = sum(1 for i, j in pairs for k in range(1, n + 1) if k != j)
    return a, b, c, d


@pytest.mark.parametrize("n,counts", [(1, (0, 0, 1, 0)),
                                      (2, (0, 1, 2, 1)),
                                      (3, (2, 3, 3, 6))])
def test_relator_family_counts(n, counts):
    assert pattern_counts(n) == counts
    p = pure_braid_rp2(n)
    assert len(p.relators) == sum(counts)
    assert p.ngens == n * (n - 1) // 2 + n


def test_generator_counts_closed_form():
    for n in range(1, 7):
        assert pure_braid_rp2(n).ngens == n * (n - 1) // 2 + n


def test_relator_counts_match_oracle_at_larger_n():
    for n in (4, 5):
        assert len(pure_braid_rp2(n).relators) == sum(pattern_counts(n))


def test_n1_is_z2():
    p = pure_braid_rp2(1)
    assert list(p.alphabet) == ["rho1"]
    assert [str(r) for r in p.relators] == ["rho1^2"]
    assert group_order(todd_coxeter(p)) == 2


def test_n2_is_quaternion_sized(rp2_n2, rp2_n2_table, q8_table):
    assert group_order(rp2_n2_table) == 8 == group_order(q8_table)
    assert center_order_finite(rp2_n2_table) == 2 == center_order_finite(q8_table)


def test_relators_hold_in_quaternion_model(rp2_n2):
    # every n=2 relator evaluates to +1 under rho1 -> i, rho2 -> j
    for rel in rp2_n2.relators:
        assert evaluate_in_q8(rel, ASSIGN_N2) == (1, "1"), str(rel)


def test_strand_count_from_name():
    assert rp2_strand_count(pure_braid_rp2(3)) == 3
    assert rp2_strand_count(quaternion_presentation()) is None


def test_presentation_built_once():
    assert pure_braid_rp2(5) is pure_braid_rp2(5)
    assert forget_strands_hom(5, 3).source is pure_braid_rp2(5)


def test_invalid_strand_counts():
    with pytest.raises(AtlasError):
        pure_braid_rp2(0)
    with pytest.raises(AtlasError):
        tau_n(0)


def test_strand_count_ceiling():
    # P_n(RP2) has O(n^4) relators; past a fixed ceiling the builder refuses
    # before it allocates anything, whatever the size of n
    assert RP2_MAX_STRANDS >= 12
    assert pure_braid_rp2(12).ngens == 78
    for n in (RP2_MAX_STRANDS + 1, 10 ** 5, 2 * 10 ** 8):
        with pytest.raises(AtlasError, match=f"strand count must be <= {RP2_MAX_STRANDS}"):
            pure_braid_rp2(n)
    with pytest.raises(AtlasError, match="strand count must be <="):
        tau_n(10 ** 5)


# b_ij and tau -------------------------------------------------------------------

def test_b_ij_as_rho_word(rp2_n2):
    w = b_ij_as_rho(2, 1, 2)
    assert w == rp2_n2.word("rho2 rho1^-1 rho2^-1 rho1")
    with pytest.raises(AtlasError):
        b_ij_as_rho(2, 2, 1)


def test_b_ij_as_rho_in_quaternion_model():
    w = b_ij_as_rho(2, 1, 2)
    assert evaluate_in_q8(w, ASSIGN_N2) == (-1, "1") == ASSIGN_N2["B12"]


def test_b_ij_as_rho_equals_generator_in_table(rp2_n2, rp2_n2_table):
    assert word_equal_finite(rp2_n2_table, rp2_n2.gen("B12"), b_ij_as_rho(2, 1, 2))


def test_tau_components_n2(rp2_n2, rp2_n2_table):
    assert tau_component(2, 1, "B") == rp2_n2.word("B12")
    assert tau_component(2, 1, "rho") == rp2_n2.word("rho1^2")
    assert tau_component(2, 2, "B").is_identity
    assert tau_component(2, 2, "rho") == rp2_n2.word("B12^-1 rho2^2")
    for i in (1, 2):
        assert word_equal_finite(rp2_n2_table, tau_component(2, i, "B"),
                                 tau_component(2, i, "rho"))


def test_tau_component_validation():
    with pytest.raises(AtlasError):
        tau_component(2, 3)
    with pytest.raises(AtlasError):
        tau_component(2, 1, form="X")


def test_tau_n_words():
    p2 = pure_braid_rp2(2)
    p3 = pure_braid_rp2(3)
    assert tau_n(2) == p2.word("B12")
    assert tau_n(3) == p3.word("B12 B13 B23")
    assert tau_n(1).is_identity  # empty B-form product
    assert tau_n(1, "rho") == pure_braid_rp2(1).word("rho1^2")


def test_tau_1_forms_agree_in_z2():
    table = todd_coxeter(pure_braid_rp2(1))
    assert word_equal_finite(table, tau_n(1), tau_n(1, "rho"))


def test_tau_2_equals_rho1_squared(rp2_n2, rp2_n2_table):
    assert word_equal_finite(rp2_n2_table, tau_n(2), rp2_n2.word("rho1^2"))


def test_tau_3_central_in_mod4_quotient(rp2_n3_mod4_table):
    assert rp2_n3_mod4_table.is_complete
    assert is_central_finite(rp2_n3_mod4_table, tau_n(3))


def test_tau_component_forms_agree_at_n3(rp2_n3_mod4_table):
    for i in (1, 2, 3):
        assert word_equal_finite(rp2_n3_mod4_table, tau_component(3, i, "B"),
                                 tau_component(3, i, "rho"))


# fixed presentations -------------------------------------------------------------

def test_pi1_nonorientable_abelianizations():
    for k, (rank, torsion) in [(1, (0, (2,))), (2, (1, (2,))), (3, (2, (2,)))]:
        inv = abelianization(pi1_nonorientable(k))
        assert (inv.rank, inv.torsion) == (rank, torsion)
    with pytest.raises(AtlasError):
        pi1_nonorientable(0)


def test_crosscap_ceiling_is_checked_first(monkeypatch):
    monkeypatch.setattr(atlas, "NONORIENTABLE_MAX_CROSSCAPS", 3)
    assert pi1_nonorientable(3).ngens == 3
    with pytest.raises(AtlasError, match=r"^crosscap count must be <= 3, got 4$"):
        pi1_nonorientable(4)
    # refused before the k generator names are built
    with pytest.raises(AtlasError):
        pi1_nonorientable(10**18)


def test_klein_presentation_facts(q8, q8_table):
    klein = klein_presentation()
    inv = abelianization(klein)
    assert (inv.rank, inv.torsion) == (1, (2,))
    from braidkernel import GroupHom
    hom = GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    result = hom_check(hom, table_equality_oracle(q8_table))
    assert result.verified
    # the commutator [x, y] has non-identity image: the quotient is
    # genuinely non-abelian
    from braidkernel.presentations import substitute
    comm = klein.word("x y x^-1 y^-1")
    image = substitute(hom, comm)
    assert not word_equal_finite(q8_table, image, q8.word("1"))
    assert evaluate_in_q8(image, ASSIGN_N2) == (-1, "1")


def test_torus_and_quaternion_presentations(q8_table):
    inv = abelianization(torus_presentation())
    assert (inv.rank, inv.torsion) == (2, ())
    assert group_order(q8_table) == 8
    assert center_order_finite(q8_table) == 2


# center table --------------------------------------------------------------------

def test_center_table_rp2(rp2_n2_table):
    desc = center_table(RP2, 3)
    assert desc.kind == "cyclic-generated"
    assert desc.generator_words == (tau_n(3),)
    desc2 = center_table(RP2, 2)
    assert is_central_finite(rp2_n2_table, desc2.generator_words[0])
    desc1 = center_table(RP2, 1)
    assert desc1.kind == "cyclic-generated"
    table1 = todd_coxeter(pure_braid_rp2(1))
    assert is_central_finite(table1, desc1.generator_words[0])


def test_center_table_generator_central_in_mod4_quotient(rp2_n3_mod4_table):
    desc = center_table(RP2, 3)
    assert is_central_finite(rp2_n3_mod4_table, desc.generator_words[0])


def test_center_table_other_surfaces():
    assert center_table(SurfaceKind(True, 2), 5).kind == "trivial"
    torus_desc = center_table(TORUS, 4)
    assert torus_desc.kind == "free-abelian-rank-2"
    assert torus_desc.symbolic_generators == ("a~", "b~")
    assert torus_desc.generator_words == ()
    sphere_desc = center_table(SPHERE, 3)
    assert sphere_desc.kind == "cyclic-order-2"
    assert sphere_desc.symbolic_generators == ("Delta^2",)
    assert sphere_desc.generator_words == ()
    assert center_table(SPHERE, 2).kind == "trivial"
    assert center_table(SPHERE, 1).kind == "trivial"
    assert center_table(KLEIN, 2).kind == "trivial"
    assert center_table(SurfaceKind(False, 5), 3).kind == "trivial"
    with pytest.raises(AtlasError):
        center_table(RP2, 0)


# strand forgetting ----------------------------------------------------------------

def test_forget_strands_2_to_1():
    hom = forget_strands_hom(2, 1)
    table = todd_coxeter(hom.target)
    assert hom_check(hom, table_equality_oracle(table)).verified


def test_forget_strands_3_to_2(rp2_n2_table):
    hom = forget_strands_hom(3, 2)
    assert hom_check(hom, table_equality_oracle(rp2_n2_table)).verified


def test_forget_strands_maps_tau_to_tau(rp2_n2_table):
    hom = forget_strands_hom(3, 2)
    from braidkernel.presentations import substitute
    assert word_equal_finite(rp2_n2_table, substitute(hom, tau_n(3)), tau_n(2))
    hom21 = forget_strands_hom(2, 1)
    table1 = todd_coxeter(hom21.target)
    assert word_equal_finite(table1, substitute(hom21, tau_n(2)), tau_n(1))


def test_forget_strands_validation():
    with pytest.raises(AtlasError):
        forget_strands_hom(2, 2)
    with pytest.raises(AtlasError):
        forget_strands_hom(1, 0)


# pinned atlas words ------------------------------------------------------------------

def _atlas_words_text(n):
    lines = [format_word(tau_n(n, form)) for form in ("B", "rho")]
    lines += [format_word(tau_component(n, i, form))
              for i in range(1, n + 1) for form in ("B", "rho")]
    lines += [format_word(b_ij_as_rho(n, i, j))
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lines += [format_word(w)
              for m in range(1, n) for w in forget_strands_hom(n, m).images]
    return "\n".join(lines) + "\n"


def test_atlas_words_pinned():
    # sha256 over n = 1..12 of tau_n and every tau_component in both forms,
    # every b_ij_as_rho and every forget_strands_hom image; n >= 10 covers
    # the B<i>_<j> generator names
    digest = hashlib.sha256()
    for n in range(1, 13):
        digest.update(_atlas_words_text(n).encode())
    assert digest.hexdigest() == (
        "eb6f6bce9674604086e9a9cf6da7d18619f61cace49590a4c7be34038735b247")


def test_atlas_words_build_no_presentation():
    # the words are parsed over the atlas alphabet: naming tau_n does not
    # build P_n(RP2)'s relators (2234 at n = 12)
    pure_braid_rp2.cache_clear()
    for n in range(1, RP2_MAX_STRANDS + 1):
        tau_n(n)
        center_table(RP2, n)
        for i in range(1, n + 1):
            tau_component(n, i, "B")
            tau_component(n, i, "rho")
            for j in range(i + 1, n + 1):
                b_ij_as_rho(n, i, j)
    assert pure_braid_rp2.cache_info().misses == 0
