"""Coverings of closed surfaces checked against their fundamental groups.

Necessary-condition certificates for covering impossibility, and the
case analysis that describes the kernels of the point-forgetting maps
between equivariant mapping class groups in terms of (pure) braid
groups of the quotient; ``surfaces`` lists the quotients themselves.

``can_cover`` only ever certifies impossibility; "not excluded" never
asserts that a covering exists.
"""

from __future__ import annotations

from . import atlas, coset, presentations, surfaces
from .base import record
from .surfaces import KLEIN, RP2, SPHERE, TORUS, CoveringError, SurfaceKind, euler_char


# covering impossibility -------------------------------------------------------

@record
class CoverDecision:
    possible: bool  # True means "not excluded", never an existence claim
    certificate: str | None
    detail: str
    witness: presentations.GroupHom | None = None


def _klein_over_torus_certificate() -> CoverDecision:
    # the fundamental group of the Klein bottle surjects onto the
    # quaternion group, which is non-abelian, while the torus group is
    # abelian; subgroups of abelian groups are abelian, so no injection
    # pi_1(Klein) -> pi_1(T2) exists.  The Q8 quotient is machine-checked.
    klein = atlas.klein_presentation()
    q8 = atlas.quaternion_presentation()
    table = coset.todd_coxeter(q8)
    hom = presentations.GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    result = presentations.hom_check(hom, coset.table_equality_oracle(table))
    if not result.verified:
        raise CoveringError("quaternion witness failed verification")
    # surjectivity: the images generate a subgroup of index 1
    if coset.todd_coxeter(q8, list(hom.images)).n_cosets != 1:
        raise CoveringError("quaternion witness is not surjective")
    # non-abelian image: the generator images do not commute
    x, y = hom.images
    if coset.word_equal_finite(table, x * y, y * x):
        raise CoveringError("quaternion witness image is abelian")
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
    obstruction = surfaces._orientation_obstruction(cover, base, l)
    if obstruction is not None:
        return CoverDecision(False, "orientation-lift", obstruction)
    return CoverDecision(True, None, "no necessary condition excludes this covering")


# kernel descriptions -----------------------------------------------------------

@record
class KernelDescription:
    """Structured statement of ker(i*) (pure) or ker(j*) (full braid)
    for an l-sheeted free action with the given quotient surface."""

    case: str  # "full" | "mod-center" | "mod-lattice"
    presentation: presentations.Presentation | None
    description: str


def kernel_description(quotient_surface: SurfaceKind, n: int, pure: bool,
                       torus_params: tuple[int, int] | None = None) -> KernelDescription:
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
            tp = atlas.torus_presentation()
            pres = presentations.quotient(tp, [tp.gen("a") ** q, tp.gen("b") ** r])
        return KernelDescription("mod-lattice", pres, desc)

    if torus_params is not None:
        raise CoveringError(f"torus parameters are meaningless for {lbl}")

    if quotient_surface in (SPHERE, RP2):
        desc = f"{letter}{n}({lbl}) / Z(P{n}({lbl}))"
        pres = None
        if quotient_surface == SPHERE and n <= 2:
            desc += "  [center trivial for n <= 2]"
        if quotient_surface == RP2 and pure:
            pres = presentations.quotient(atlas.pure_braid_rp2(n),
                                          atlas.center_table(RP2, n).generator_words)
        return KernelDescription("mod-center", pres, desc)

    return KernelDescription("full", None, f"{letter}{n}({lbl})")
