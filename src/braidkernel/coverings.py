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

from . import atlas, coset, presentations, rewriting
from .surfaces import KLEIN, RP2, SPHERE, TORUS, SurfaceKind, euler_char
from .words import BraidkernelError, record


class CoveringError(BraidkernelError):
    pass


def quotient_candidates(m: SurfaceKind, l: int,
                        strict_orientability: bool = False) -> list[SurfaceKind]:
    """Surfaces M/G of an l-sheeted quotient of m: the closed surfaces
    of Euler characteristic chi(m) / l, orientable first.

    ``strict_orientability`` additionally filters patterns that cannot
    occur along a covering: a nonorientable cover of an orientable
    base, and an odd-degree orientable cover of a nonorientable base
    (such a cover factors through the orientation double cover).
    """
    if l < 1:
        raise CoveringError("sheet count must be >= 1")
    out: list[SurfaceKind] = []
    if euler_char(m) % l == 0:  # chi(S_g) = 2 - 2g, chi(N_k) = 2 - k
        chi = euler_char(m) // l
        if chi <= 2 and chi % 2 == 0:
            out.append(SurfaceKind(True, (2 - chi) // 2))
        if chi <= 1:
            out.append(SurfaceKind(False, 2 - chi))
    for cand in out:
        assert l * euler_char(cand) == euler_char(m)
    if strict_orientability:
        out = [c for c in out if _orientation_obstruction(m, c, l) is None]
    return out


def _orientation_obstruction(cover: SurfaceKind, base: SurfaceKind, l: int) -> str | None:
    """Why orientability rules out an l-sheeted covering cover -> base,
    or None when it does not."""
    if base.orientable and not cover.orientable:
        return (f"a cover of the orientable base {base} must be orientable, "
                f"but {cover} is not")
    if cover.orientable and not base.orientable and l % 2:
        return (f"an orientable cover of the nonorientable base {base} factors "
                f"through its orientation double cover, so its degree {l} must be even")
    return None


# torus_action_forms trial-divides up to the cube root of the order, so
# about 10^6 divisions at the ceiling
TORUS_MAX_ORDER = 10**18


def torus_action_forms(l: int) -> list[tuple[int, int]]:
    """The (q, r) shapes with q | r and q*r = l: the abelian groups of
    order l and rank at most 2.  q runs over the divisors of the largest
    s with s*s | l, read off the factorisation of l."""
    if l < 1:
        raise CoveringError("group order must be >= 1")
    if l > TORUS_MAX_ORDER:
        raise CoveringError(f"group order must be <= {TORUS_MAX_ORDER}, got {l}")
    qs = [1]   # the divisors of s found so far
    rest, p = l, 2
    while p * p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e > 1:
            qs = [q * p**k for q in qs for k in range(e // 2 + 1)]
        p += 1
    # no prime below p divides rest and p**3 > rest, so rest is 1, a
    # prime, a product of two primes or the square of one
    from math import isqrt  # only a torus quotient needs it
    root = isqrt(rest)
    if root > 1 and root * root == rest:
        qs += [q * root for q in qs]
    return [(q, l // q) for q in sorted(qs)]


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
    # pi_1(Klein) -> pi_1(T2) exists.  Every ingredient is machine-checked.
    klein = atlas.klein_presentation()
    q8 = atlas.quaternion_presentation()
    table = coset.todd_coxeter(q8)
    hom = presentations.GroupHom(klein, q8, (q8.gen("rho1"), q8.gen("rho2")))
    result = presentations.hom_check(hom, coset.table_equality_oracle(table))
    if not result.verified:
        raise CoveringError("quaternion witness failed verification")
    hom = result.hom
    # surjectivity: the images generate a subgroup of index 1
    index = coset.todd_coxeter(q8, list(hom.images)).n_cosets
    if index != 1:
        raise CoveringError("quaternion witness is not surjective")
    # non-abelian image: the generator images do not commute
    x, y = hom.images
    if coset.word_equal_finite(table, x * y, y * x):
        raise CoveringError("quaternion witness image is abelian")
    # the would-be base group is abelian: its generators commute
    tp = atlas.torus_presentation()
    a, b = tp.gen("a"), tp.gen("b")
    if rewriting.rewrite_equality_oracle(rewriting.knuth_bendix(tp))(a * b, b * a) is not True:
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
    obstruction = _orientation_obstruction(cover, base, l)
    if obstruction is not None:
        return CoverDecision(False, "orientation-lift", obstruction)
    return CoverDecision(True, None, "no necessary condition excludes this covering")


# kernel descriptions -----------------------------------------------------------

@record
class KernelDescription:
    """Structured statement of ker(i*) (pure) or ker(j*) (full braid)
    for an l-sheeted free action with the given quotient surface."""

    case: str  # "full" | "mod-center" | "mod-lattice"
    quotient_surface: SurfaceKind
    n: int
    pure: bool
    q: int | None
    r: int | None
    presentation: presentations.Presentation | None
    description: str

    def to_json_dict(self, presentation_file: str | None = None) -> dict:
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
        return KernelDescription("mod-lattice", quotient_surface, n, pure, q, r, pres, desc)

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
        return KernelDescription("mod-center", quotient_surface, n, pure, None, None, pres, desc)

    return KernelDescription("full", quotient_surface, n, pure, None, None, None,
                             f"{letter}{n}({lbl})")
