"""Arithmetic of free finite group actions on closed surfaces.

Euler-characteristic bookkeeping for l-sheeted coverings M -> M/G,
enumeration of the quotient-surface candidates, necessary-condition
certificates for covering impossibility, and the case analysis that
describes the kernels of the point-forgetting maps between equivariant
mapping class groups in terms of (pure) braid groups of the quotient.

``can_cover`` only ever certifies impossibility; "not excluded" never
asserts that a covering exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .atlas import pure_braid_rp2, tau_n, torus_presentation, quaternion_presentation, \
    klein_presentation
from .coset import table_equality_oracle, todd_coxeter, word_equal_finite
from .presentations import GroupHom, Presentation, hom_check, quotient
from .rewriting import knuth_bendix, rewrite_equality_oracle
from .surfaces import KLEIN, RP2, SPHERE, TORUS, SurfaceKind, euler_char
from .words import BraidkernelError


class CoveringError(BraidkernelError):
    pass


def quotient_candidates(m: SurfaceKind, l: int,
                        strict_orientability: bool = False) -> list[SurfaceKind]:
    """Surfaces M/G allowed by the two-case genus formulas for an
    l-sheeted quotient of m; each candidate satisfies
    l * chi(candidate) == chi(m) exactly.

    ``strict_orientability`` additionally filters patterns that cannot
    occur along a covering: a nonorientable cover of an orientable
    base, and an odd-degree orientable cover of a nonorientable base
    (such a cover factors through the orientation double cover).
    """
    if l < 1:
        raise CoveringError("sheet count must be >= 1")
    out: list[SurfaceKind] = []
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
    for cand in out:
        assert l * euler_char(cand) == euler_char(m)
    if strict_orientability:
        if not m.orientable:
            out = [c for c in out if not c.orientable]
        elif l % 2 == 1:
            out = [c for c in out if c.orientable]
    return out


def torus_action_forms(l: int) -> list[tuple[int, int]]:
    """The (q, r) shapes with q | r and q*r = l: the abelian groups of
    order l and rank at most 2."""
    if l < 1:
        raise CoveringError("group order must be >= 1")
    forms = []
    q = 1
    while q * q <= l:
        if l % q == 0 and (l // q) % q == 0:
            forms.append((q, l // q))
        q += 1
    return forms


# covering impossibility -------------------------------------------------------

@dataclass(frozen=True)
class CoverDecision:
    possible: bool  # True means "not excluded", never an existence claim
    certificate: Optional[str]
    detail: str
    witness: Optional[GroupHom] = None


def _klein_over_torus_certificate() -> CoverDecision:
    # the fundamental group of the Klein bottle surjects onto the
    # quaternion group, which is non-abelian, while the torus group is
    # abelian; subgroups of abelian groups are abelian, so no injection
    # pi_1(Klein) -> pi_1(T2) exists.  Every ingredient is machine-checked.
    klein = klein_presentation()
    q8 = quaternion_presentation()
    table = todd_coxeter(q8)
    hom = GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    result = hom_check(hom, table_equality_oracle(table))
    if not result.verified:
        raise CoveringError("quaternion witness failed verification")
    hom = result.hom
    # surjectivity: the images generate a subgroup of index 1
    index = todd_coxeter(q8, list(hom.images)).n_cosets
    if index != 1:
        raise CoveringError("quaternion witness is not surjective")
    # non-abelian image: the generator images do not commute
    x, y = hom.images
    if word_equal_finite(table, x * y, y * x):
        raise CoveringError("quaternion witness image is abelian")
    # the would-be base group is abelian: its generators commute
    tp = torus_presentation()
    a, b = tp.gen("a"), tp.gen("b")
    if rewrite_equality_oracle(knuth_bendix(tp))(a * b, b * a) is not True:
        raise CoveringError("torus group abelianity check failed")
    return CoverDecision(
        False, "nonabelian-quotient",
        "pi1(cover) has a verified non-abelian finite quotient (order 8) "
        "but pi1(base) is abelian, so no injection exists",
        hom)


def can_cover(cover: SurfaceKind, base: SurfaceKind, l: int) -> CoverDecision:
    """Necessary-condition check for an l-sheeted covering cover -> base."""
    if l < 1:
        raise CoveringError("sheet count must be >= 1")
    if l * euler_char(base) != euler_char(cover):
        return CoverDecision(
            False, "euler-characteristic",
            f"{l} * chi({base}) = {l * euler_char(base)} != chi({cover}) = {euler_char(cover)}")
    if cover == KLEIN and base == TORUS:
        return _klein_over_torus_certificate()
    if base.orientable and not cover.orientable:
        return CoverDecision(
            False, "orientation-lift",
            f"a cover of the orientable base {base} must be orientable, "
            f"but {cover} is not")
    return CoverDecision(True, None, "no necessary condition excludes this covering")


# kernel descriptions -----------------------------------------------------------

@dataclass(frozen=True)
class KernelDescription:
    """Structured statement of ker(i*) (pure) or ker(j*) (full braid)
    for an l-sheeted free action with the given quotient surface."""

    case: str  # "full" | "mod-center" | "mod-lattice"
    quotient_surface: SurfaceKind
    n: int
    pure: bool
    q: Optional[int]
    r: Optional[int]
    presentation: Optional[Presentation]
    description: str

    def to_json_dict(self, presentation_file: Optional[str] = None) -> dict:
        out = {
            "case": self.case,
            "base": {
                "surface": self.quotient_surface.label,
                "orientable": self.quotient_surface.orientable,
                "genus": self.quotient_surface.genus,
                "n": self.n,
                "pure": self.pure,
            },
            "q": self.q,
            "r": self.r,
        }
        if presentation_file is not None:
            out["presentation_file"] = presentation_file
        return out


def kernel_description(quotient_surface: SurfaceKind, n: int, pure: bool,
                       torus_params: Optional[tuple[int, int]] = None) -> KernelDescription:
    """Case dispatch over the quotient surface.

    S_g (g >= 2) and N_k (k >= 2): the kernel is the whole (pure) braid
    group.  Sphere and RP2: the braid group modulo the center of the
    *pure* braid group (also in the full-braid case).  Torus: modulo
    the lattice generated by a~^q, b~^r, which is where the torus
    parameters enter.  Explicit presentations are attached where the
    atlas has the base group: RP2 pure (any n) and the torus at n = 1.
    """
    if n < 1:
        raise CoveringError("strand count must be >= 1")
    letter = "P" if pure else "B"
    lbl = {TORUS: "T2", RP2: "RP2"}.get(quotient_surface, quotient_surface.label)

    if quotient_surface == TORUS:
        if torus_params is None:
            raise CoveringError("torus quotient needs (q, r) parameters")
        q, r = torus_params
        if q < 1 or r < 1:
            raise CoveringError("torus parameters must be positive")
        desc = f"{letter}{n}(T2) / <a~^{q}, b~^{r}>"
        pres = None
        if n == 1:
            tp = torus_presentation()
            pres = quotient(tp, [tp.gen("a") ** q, tp.gen("b") ** r])
        return KernelDescription("mod-lattice", quotient_surface, n, pure, q, r, pres, desc)

    if torus_params is not None:
        raise CoveringError(f"torus parameters are meaningless for {lbl}")

    if quotient_surface in (SPHERE, RP2):
        desc = f"{letter}{n}({lbl}) / Z(P{n}({lbl}))"
        pres = None
        if quotient_surface == SPHERE and n <= 2:
            desc += "  [center trivial for n <= 2]"
        if quotient_surface == RP2 and pure:
            base = pure_braid_rp2(n)
            if n == 1:
                # the n = 1 group is abelian, so the center is everything
                pres = quotient(base, [base.gen("rho1")])
            else:
                pres = quotient(base, [tau_n(n)])
        return KernelDescription("mod-center", quotient_surface, n, pure, None, None, pres, desc)

    return KernelDescription("full", quotient_surface, n, pure, None, None, None,
                             f"{letter}{n}({lbl})")


__all__ = [
    "CoverDecision", "CoveringError", "KernelDescription",
    "can_cover", "euler_char", "kernel_description",
    "quotient_candidates", "torus_action_forms",
]
