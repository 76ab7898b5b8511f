"""Atlas of surface (pure) braid group data.

Generates the presentations, distinguished central elements, center
descriptions, and strand-forgetting homomorphisms for the surfaces the
toolkit knows about, parameterized by strand count.

The pure braid group of the projective plane has generators
B_ij (1 <= i < j <= n) and rho_k (1 <= k <= n) with four relation
families; exactly the listed index patterns are emitted, in a fixed
order (family, then indices), because derivation certificates address
relators by position.  ``presentation()`` reads the relations; an atlas
word is parsed over the alphabet alone, so only presentations build relators.
"""

from __future__ import annotations

import functools
import re

from .presentations import GroupHom, Presentation, presentation
from .surfaces import RP2, TORUS, SurfaceKind
from .base import BraidkernelError, record
from .words import Alphabet, Word, make_alphabet, parse_word

_RP2_NAME_RE = re.compile(r"P(\d+)\(RP2\)")

# P_n(RP2) has O(n^4) relators: 2234 at n = 12, built in about 40 ms on a
# 2-core Xeon, and 15790 at n = 20.  Abelianization reduces only the n^2
# rows with a nonzero exponent sum, about 60 ms at n = 12 and 1 s at
# n = 20 on that machine; the ceiling stays until it has a work budget.
RP2_MAX_STRANDS = 12

# pi1(N_k) is one relator of k syllables: k = 10^5 builds in about 0.5 s
# and 49 MB on that machine, and the cost grows linearly in k
NONORIENTABLE_MAX_CROSSCAPS = 10**5


class AtlasError(BraidkernelError):
    pass


def _b_name(i: int, j: int) -> str:
    # single-digit pairs stay compact; an underscore keeps larger
    # indices unambiguous
    if i <= 9 and j <= 9:
        return f"B{i}{j}"
    return f"B{i}_{j}"


@functools.lru_cache
def _rp2_alphabet(n: int) -> Alphabet:
    if n < 1:
        raise AtlasError("strand count must be >= 1")
    if n > RP2_MAX_STRANDS:
        raise AtlasError(f"strand count must be <= {RP2_MAX_STRANDS} for rp2, got {n}")
    b_names = [_b_name(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return make_alphabet(b_names + [f"rho{k}" for k in range(1, n + 1)])  # the presentation's order


@functools.lru_cache
def pure_braid_rp2(n: int) -> Presentation:
    """The n-strand pure braid group of the projective plane.

    Built once per strand count and process; the presentation is frozen,
    so every caller shares it.
    """
    gens = _rp2_alphabet(n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    B = dict(zip(pairs, gens))
    relations: list[str] = []

    # family (a): conjugation of B_ij by B_rs, four index patterns
    for r, s in pairs:
        for i, j in pairs:
            lhs = f"{B[r, s]} {B[i, j]} {B[r, s]}^-1"
            if i < r < s < j:
                relations.append(f"{lhs} = {B[i, j]}")
            elif r < i == s < j:
                relations.append(f"{lhs} = {B[i, j]}^-1 {B[r, j]}^-1 {B[i, j]} "
                                 f"{B[r, j]} {B[i, j]}")
            elif i == r < s < j:
                relations.append(f"{lhs} = {B[s, j]}^-1 {B[i, j]} {B[s, j]}")
            elif r < i < s < j:
                relations.append(f"{lhs} = {B[s, j]}^-1 {B[r, j]}^-1 {B[s, j]} "
                                 f"{B[r, j]} {B[i, j]} {B[r, j]}^-1 {B[s, j]}^-1 "
                                 f"{B[r, j]} {B[s, j]}")

    # family (b): rho_i rho_j rho_i^-1 = rho_j^-1 B_ij^-1 rho_j^2
    for i, j in pairs:
        relations.append(f"rho{i} rho{j} rho{i}^-1 = rho{j}^-1 {B[i, j]}^-1 rho{j}^2")

    # family (c): rho_i^2 = B_1i ... B_(i-1)i B_i(i+1) ... B_in
    for i in range(1, n + 1):
        right = [B[a, i] for a in range(1, i)] + [B[i, b] for b in range(i + 1, n + 1)]
        relations.append(f"rho{i}^2 = {' '.join(right) or '1'}")

    # family (d): conjugation of B_ij by rho_k, k != j
    for i, j in pairs:
        for k in range(1, n + 1):
            if k == j:
                continue
            lhs = f"rho{k} {B[i, j]} rho{k}^-1"
            if k < i or j < k:
                relations.append(f"{lhs} = {B[i, j]}")
            elif k == i:
                relations.append(f"{lhs} = rho{j}^-1 {B[i, j]}^-1 rho{j}")
            else:  # i < k < j
                relations.append(f"{lhs} = rho{j}^-1 {B[k, j]}^-1 rho{j} {B[k, j]}^-1 "
                                 f"{B[i, j]} {B[k, j]} rho{j}^-1 {B[k, j]} rho{j}")

    return presentation(f"P{n}(RP2)", gens, relations)


def rp2_strand_count(p: Presentation) -> int | None:
    """Strand count when p carries an atlas P_n(RP2) name, else None."""
    m = _RP2_NAME_RE.fullmatch(p.name)
    return int(m.group(1)) if m else None


def b_ij_as_rho(n: int, i: int, j: int) -> Word:
    """The rho-word rho_j rho_i^-1 rho_j^-1 rho_i equal to B_ij."""
    if not 1 <= i < j <= n:
        raise AtlasError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return parse_word(f"rho{j} rho{i}^-1 rho{j}^-1 rho{i}", _rp2_alphabet(n))


def tau_component(n: int, i: int, form: str = "B") -> Word:
    """The i-th factor of the central element, in either displayed form.

    B-form: B_i(i+1) ... B_in (empty product when i = n).
    rho-form: B_(i-1)i^-1 ... B_1i^-1 rho_i^2.
    The two forms are equal in the group, not as free words.
    """
    if not 1 <= i <= n:
        raise AtlasError(f"need 1 <= i <= n, got i={i}, n={n}")
    alphabet = _rp2_alphabet(n)
    if form == "B":
        return parse_word(" ".join(_b_name(i, j) for j in range(i + 1, n + 1)) or "1", alphabet)
    if form == "rho":
        inverses = [f"{_b_name(a, i)}^-1" for a in range(i - 1, 0, -1)]
        return parse_word(" ".join(inverses + [f"rho{i}^2"]), alphabet)
    raise AtlasError(f"form must be 'B' or 'rho', got {form!r}")


def tau_n(n: int, form: str = "B") -> Word:
    """The generator of the center of P_n(RP2): tau_n1 * ... * tau_nn."""
    return Word.from_syllables(_rp2_alphabet(n), [
        s for i in range(1, n + 1) for s in tau_component(n, i, form).syllables])


# small fixed presentations -------------------------------------------------

def pi1_nonorientable(k: int) -> Presentation:
    """Fundamental group of the nonorientable surface with k crosscaps."""
    if k < 1:
        raise AtlasError("crosscap count must be >= 1")
    if k > NONORIENTABLE_MAX_CROSSCAPS:
        raise AtlasError(f"crosscap count must be <= {NONORIENTABLE_MAX_CROSSCAPS}, got {k}")
    gens = [f"rho{j}" for j in range(1, k + 1)]
    rel = " ".join(f"rho{j}^2" for j in range(1, k + 1))
    return presentation(f"pi1(N{k})", gens, [rel])


def klein_presentation() -> Presentation:
    return presentation("pi1(Klein)", ["x", "y"], ["x^2 = y^2"])


def torus_presentation() -> Presentation:
    return presentation("pi1(T2)", ["a", "b"], ["a b a^-1 b^-1"])


def quaternion_presentation() -> Presentation:
    return presentation("Q8", ["rho1", "rho2"],
                        ["rho1^2 = rho2^2", "rho1^4",
                         "rho1 rho2 rho1^-1 = rho2^-1"])


# centers --------------------------------------------------------------------

@record
class CenterDescription:
    """Stated center of P_n(surface).

    ``generator_words`` are present only when the atlas has the matching
    presentation; otherwise the generators stay symbolic.
    """

    kind: str  # "trivial" | "free-abelian-rank-2" | "cyclic-generated" | "cyclic-order-2"
    generator_words: tuple[Word, ...]
    symbolic_generators: tuple[str, ...]
    label: str


def center_table(surface: SurfaceKind, n: int) -> CenterDescription:
    if n < 1:
        raise AtlasError("strand count must be >= 1")
    if surface.orientable:
        if surface.genus >= 2:
            return CenterDescription("trivial", (), (), "trivial")
        if surface == TORUS:
            return CenterDescription(
                "free-abelian-rank-2", (), ("a~", "b~"),
                "free abelian of rank 2 on the central loops a~, b~")
        # sphere: Z/2 on the full twist for n >= 3 (Gillette-Van Buskirk 1968)
        if n >= 3:
            return CenterDescription(
                "cyclic-order-2", (), ("Delta^2",),
                "cyclic of order 2, generated by the full twist Delta^2")
        return CenterDescription("trivial", (), (), "trivial")
    if surface == RP2:
        if n == 1:
            return CenterDescription(
                "cyclic-generated", (parse_word("rho1", _rp2_alphabet(1)),), (),
                "the whole group Z/2 (abelian)")
        return CenterDescription(
            "cyclic-generated", (tau_n(n),), (),
            f"cyclic, generated by tau_{n}")
    return CenterDescription("trivial", (), (), "trivial")


# strand forgetting -----------------------------------------------------------

def forget_strands_hom(n: int, m: int) -> GroupHom:
    """The strand-forgetting map P_n(RP2) -> P_m(RP2), m < n.

    Generators with all indices <= m map to their namesakes, the rest
    die.  The map is not checked here; hom_check with an oracle for the
    target checks that it is a homomorphism.
    """
    if not 1 <= m < n:
        raise AtlasError(f"need 1 <= m < n, got m={m}, n={n}")
    target = pure_braid_rp2(m)
    source = pure_braid_rp2(n)
    images = [target.word(name if name in target.alphabet else "1")
              for name in source.alphabet]
    return GroupHom(source, target, tuple(images))
