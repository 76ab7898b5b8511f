"""Closed-surface bookkeeping.

Nonorientable genus is counted in crosscaps (N1 = projective plane,
N2 = Klein bottle), so the Euler characteristic is 2 - 2g for S_g and
2 - k for N_k.  Human names are attached as aliases; CLI output prints
label and name together since nonorientable indexing conventions vary.
"""

from __future__ import annotations

from .words import BraidkernelError, record


COUNT_MAX_DIGITS = 18  # digits in a genus or crosscap count


class SurfaceError(BraidkernelError):
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
