"""Finitely presented groups: construction, quotients, homomorphisms,
abelianization.

Relations ``u = v`` are ingested as the single relator ``u*v^-1``;
relators are stored freely and cyclically reduced with duplicates
dropped, in a deterministic order (construction order), since the
rewriting engine's derivation certificates refer to relators by index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

from .snf import smith_normal_form
from .words import (
    Alphabet,
    BraidkernelError,
    Word,
    WordError,
    cyclic_reduce,
    format_word,
    make_alphabet,
    multiply,
    parse_word,
)


class PresentationError(BraidkernelError):
    pass


class UnverifiedHomError(PresentationError):
    """A homomorphism was applied before hom_check verified it."""


@dataclass(frozen=True)
class Presentation:
    name: str
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        names = [s.name for s in self.alphabet]
        if len(set(names)) != len(names):
            raise PresentationError("duplicate generator names")
        normalized = []
        seen = set()
        for rel in self.relators:
            if rel.alphabet != self.alphabet:
                raise PresentationError(
                    f"relator {format_word(rel)} is over a different alphabet")
            core, _ = cyclic_reduce(rel)
            if core.is_identity or core in seen:
                continue
            seen.add(core)
            normalized.append(core)
        object.__setattr__(self, "relators", tuple(normalized))

    @property
    def ngens(self) -> int:
        return len(self.alphabet)

    def gen(self, index_or_name, exponent: int = 1) -> Word:
        if isinstance(index_or_name, str):
            for sym in self.alphabet:
                if sym.name == index_or_name:
                    return Word.generator(self.alphabet, sym.index, exponent)
            raise PresentationError(f"no generator named {index_or_name!r}")
        return Word.generator(self.alphabet, index_or_name, exponent)

    def word(self, text: str) -> Word:
        return parse_word(text, self.alphabet)


def parse_relation(text: str, alphabet: Alphabet) -> Word:
    """Parse ``w`` or ``u = v`` into the relator word (u*v^-1)."""
    parts = text.split("=")
    if len(parts) == 1:
        return parse_word(parts[0], alphabet)
    if len(parts) == 2:
        lhs = parse_word(parts[0], alphabet)
        rhs = parse_word(parts[1], alphabet)
        return multiply(lhs, rhs.inverse())
    raise PresentationError(f"more than one '=' in relation {text!r}")


def presentation(name: str, gen_names: Iterable[str], relations: Iterable[str]) -> Presentation:
    """Convenience builder from generator names and relation strings."""
    alphabet = make_alphabet(gen_names)
    rels = tuple(parse_relation(r, alphabet) for r in relations)
    return Presentation(name, alphabet, rels)


def quotient(p: Presentation, extra: Sequence[Word]) -> Presentation:
    """Quotient by the normal closure of ``extra``: append relators."""
    extra = list(extra)
    if not extra:
        return p
    for w in extra:
        if w.alphabet != p.alphabet:
            raise PresentationError(
                f"quotient word {format_word(w)} is over a different alphabet")
    label = p.name + "/<" + ",".join(format_word(w) for w in extra) + ">"
    return Presentation(label, p.alphabet, p.relators + tuple(extra))


# abelianization -----------------------------------------------------------

@dataclass(frozen=True)
class AbelianInvariants:
    """Free rank plus torsion coefficients d1 | d2 | ... (each >= 2)."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise PresentationError("negative free rank")
        prev = None
        for d in self.torsion:
            if d < 2:
                raise PresentationError("torsion coefficients must be >= 2")
            if prev is not None and d % prev != 0:
                raise PresentationError("torsion divisibility chain broken")
            prev = d

    @property
    def order(self) -> Optional[int]:
        """Group order when finite (rank 0), else None."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n


def relator_matrix(p: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    mat = []
    for rel in p.relators:
        row = [0] * p.ngens
        for gen, exp in rel.syllables:
            row[gen] += exp
        mat.append(row)
    return mat


def abelianization(p: Presentation) -> AbelianInvariants:
    mat = relator_matrix(p)
    if not mat:
        return AbelianInvariants(p.ngens, ())
    diag, _, _ = smith_normal_form(mat)
    rank = sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d >= 2)
    return AbelianInvariants(rank, torsion)


# homomorphisms ------------------------------------------------------------

# An equality oracle decides u = v in a fixed group: True / False, or
# None when its budget cannot settle the question.
EqualityOracle = Callable[[Word, Word], Optional[bool]]


@dataclass(frozen=True)
class GroupHom:
    source: Presentation
    target: Presentation
    images: tuple[Word, ...]
    verified: bool = False

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise PresentationError(
                f"expected {self.source.ngens} generator images, got {len(self.images)}")
        for w in self.images:
            if w.alphabet != self.target.alphabet:
                raise PresentationError("generator image over the wrong alphabet")


def substitute(h: GroupHom, w: Word) -> Word:
    """Image of w under the generator map, freely reduced.

    Does not require verification; used by hom_check itself.
    """
    if w.alphabet != h.source.alphabet:
        raise PresentationError("word is not over the source alphabet")
    sylls: list[tuple[int, int]] = []
    for gen, exp in w.syllables:
        sylls.extend((h.images[gen] ** exp).syllables)
    return Word.from_syllables(h.target.alphabet, sylls)


@dataclass(frozen=True)
class HomCheckResult:
    status: str  # "verified" | "failed" | "undecided"
    hom: Optional[GroupHom]
    relator_index: Optional[int] = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def hom_check(h: GroupHom, oracle: EqualityOracle) -> HomCheckResult:
    """Check that every source relator maps to the identity of the target.

    The oracle decides equality in the target group; an inconclusive
    oracle answer yields status "undecided", never a silent pass.
    """
    target_id = Word.identity(h.target.alphabet)
    for i, rel in enumerate(h.source.relators):
        image = substitute(h, rel)
        answer = oracle(image, target_id)
        if answer is None:
            return HomCheckResult("undecided", None, i)
        if not answer:
            return HomCheckResult("failed", None, i)
    return HomCheckResult("verified", replace(h, verified=True))


def apply_hom(h: GroupHom, w: Word) -> Word:
    if not h.verified:
        raise UnverifiedHomError("homomorphism has not passed hom_check")
    return substitute(h, w)


def compose_hom(outer: GroupHom, inner: GroupHom) -> GroupHom:
    """Generator-image map of outer after inner (returned unverified)."""
    if inner.target != outer.source:
        raise PresentationError("homomorphisms do not compose")
    images = tuple(substitute(outer, img) for img in inner.images)
    return GroupHom(inner.source, outer.target, images)


# text format ---------------------------------------------------------------

class PresentationFormatError(PresentationError):
    """A malformed presentation file; ``line`` is None for a whole-file error."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    ``group <name>`` then ``gens <name>+`` then ``rel <word>`` or
    ``rel <word> = <word>`` lines; ``#`` starts a comment.
    """
    name = None
    alphabet = None
    relators: list[Word] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "group":
            if name is not None:
                raise PresentationFormatError(lineno, "duplicate group line")
            if not rest:
                raise PresentationFormatError(lineno, "missing group name")
            name = rest
        elif key == "gens":
            if name is None:
                raise PresentationFormatError(lineno, "gens before group line")
            if alphabet is not None:
                raise PresentationFormatError(lineno, "duplicate gens line")
            try:
                alphabet = make_alphabet(rest.split())
            except WordError as exc:
                raise PresentationFormatError(lineno, str(exc)) from exc
        elif key == "rel":
            if alphabet is None:
                raise PresentationFormatError(lineno, "rel before gens line")
            try:
                relators.append(parse_relation(rest, alphabet))
            except (WordError, PresentationError) as exc:
                raise PresentationFormatError(lineno, str(exc)) from exc
        else:
            raise PresentationFormatError(lineno, f"unknown directive {key!r}")
    if name is None:
        raise PresentationFormatError(None, "missing group line")
    if alphabet is None:
        raise PresentationFormatError(None, "missing gens line")
    return Presentation(name, alphabet, tuple(relators))


def format_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(s.name for s in p.alphabet)]
    lines.extend(f"rel {format_word(r)}" for r in p.relators)
    return "\n".join(lines) + "\n"
