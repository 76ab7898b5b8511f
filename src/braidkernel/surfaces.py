"""Closed surfaces, and the Euler-characteristic arithmetic of free actions on them.

Nonorientable genus is counted in crosscaps (N1 = projective plane,
N2 = Klein bottle), so the Euler characteristic is 2 - 2g for S_g and
2 - k for N_k.  Human names are attached as aliases; CLI output prints
label and name together since nonorientable indexing conventions vary.
"""

from __future__ import annotations

from .base import BraidkernelError, record


COUNT_MAX_DIGITS = 18  # digits in a genus or crosscap count


class SurfaceError(BraidkernelError):
    pass


class CoveringError(BraidkernelError):
    pass


@record
class SurfaceKind:
    orientable: bool
    genus: int

    def __post_init__(self):
        if self.orientable and self.genus < 0:
            raise SurfaceError("orientable genus must be >= 0")
        if not self.orientable and self.genus < 1:
            raise SurfaceError("nonorientable genus (crosscaps) must be >= 1")

    @property
    def label(self) -> str:
        return f"S{self.genus}" if self.orientable else f"N{self.genus}"

    def __str__(self):
        return self.label


SPHERE = SurfaceKind(True, 0)
TORUS = SurfaceKind(True, 1)
RP2 = SurfaceKind(False, 1)
KLEIN = SurfaceKind(False, 2)

_NAMES = {
    SPHERE: "sphere",
    TORUS: "torus",
    RP2: "projective plane",
    KLEIN: "Klein bottle",
}

_ALIASES = {
    "sphere": SPHERE,
    "torus": TORUS,
    "rp2": RP2,
    "projective-plane": RP2,
    "klein": KLEIN,
    "klein-bottle": KLEIN,
}


def euler_char(s: SurfaceKind) -> int:
    return 2 - 2 * s.genus if s.orientable else 2 - s.genus


def describe_surface(s: SurfaceKind) -> str:
    """Label plus a human name, e.g. ``N2 (Klein bottle)``."""
    name = _NAMES.get(s)
    if name is None:
        name = (f"orientable, genus {s.genus}" if s.orientable
                else f"nonorientable, {s.genus} crosscaps")
    return f"{s.label} ({name})"


def parse_count(text: str) -> int | None:
    """The genus or crosscap count a string of decimal digits spells, or
    None if text is not one.  Over COUNT_MAX_DIGITS digits raise
    SurfaceError before int() converts them (it refuses over 4300)."""
    if not text.isdecimal():
        return None
    if len(text) > COUNT_MAX_DIGITS:
        raise SurfaceError(f"a count of {len(text)} digits is over the "
                           f"{COUNT_MAX_DIGITS}-digit limit")
    return int(text)


def parse_surface(text: str) -> SurfaceKind:
    """Accepts S<g>/N<k> labels, common names, and orientable:<g> /
    nonorientable:<k> forms."""
    t = text.strip().lower()
    if t in _ALIASES:
        return _ALIASES[t]
    for prefix, orientable in (("orientable:", True), ("nonorientable:", False),
                               ("s", True), ("n", False)):
        if t.startswith(prefix) and (genus := parse_count(t[len(prefix):])) is not None:
            return SurfaceKind(orientable, genus)
    raise SurfaceError(f"unrecognized surface {text!r}")


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
