"""Finitely presented groups: construction, quotients, homomorphisms,
abelianization, and the line-oriented text formats.

Relations ``u = v`` are ingested as the single relator ``u*v^-1``;
relators are stored freely and cyclically reduced with duplicates
dropped, in a deterministic order (construction order), since the
rewriting engine's derivation certificates refer to relators by index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .snf import smith_normal_form
from .words import (
    Alphabet,
    BraidkernelError,
    Word,
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


# text formats: presentation, map and chain files share one line syntax ------

Directive = tuple[int, str, str]  # (file line, key, rest)


class FormatError(BraidkernelError):
    """A malformed file; ``line`` is None for a whole-file error."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class PresentationFormatError(FormatError, PresentationError):
    """A malformed presentation or map file."""


def directives(text: str) -> Iterator[Directive]:
    """The numbered ``<key> <rest>`` lines of a text; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, rest = line.partition(" ")
            yield lineno, key, rest.strip()


def read_directives(lines: Iterable[Directive], handlers: dict[str, Callable[[str], None]],
                    error: type[FormatError]) -> None:
    """Hand each directive's rest to the handler of its key.

    An unknown key, or a ``ValueError`` (every library error is one) that
    a handler raises, becomes ``error`` naming the directive's line.
    """
    for lineno, key, rest in lines:
        if key not in handlers:
            raise error(lineno, f"unknown directive {key!r}")
        try:
            handlers[key](rest)
        except FormatError:  # a nested reader has named the line already
            raise
        except ValueError as exc:
            raise error(lineno, str(exc)) from exc


def _read_presentation(lines: Iterable[Directive]) -> Presentation:
    name = alphabet = None
    relators: list[Word] = []

    def group(rest):
        nonlocal name
        if name is not None:
            raise PresentationError("duplicate group line")
        if not rest:
            raise PresentationError("missing group name")
        name = rest

    def gens(rest):
        nonlocal alphabet
        if name is None:
            raise PresentationError("gens before group line")
        if alphabet is not None:
            raise PresentationError("duplicate gens line")
        alphabet = make_alphabet(rest.split())

    def rel(rest):
        if alphabet is None:
            raise PresentationError("rel before gens line")
        relators.append(parse_relation(rest, alphabet))

    read_directives(lines, {"group": group, "gens": gens, "rel": rel},
                    PresentationFormatError)
    if name is None:
        raise PresentationFormatError(None, "missing group line")
    if alphabet is None:
        raise PresentationFormatError(None, "missing gens line")
    return Presentation(name, alphabet, tuple(relators))


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    ``group <name>`` then ``gens <name>+`` then ``rel <word>`` or
    ``rel <word> = <word>`` lines.
    """
    return _read_presentation(directives(text))


def parse_hom_file(text: str) -> GroupHom:
    """Parse a self-contained map file.

    A ``begin source``/``end`` block and a ``begin target``/``end`` block
    in the presentation format, and one ``send <gen> = <word>`` line per
    source generator; an optional ``hom <label>`` line is ignored.
    """
    found = list(directives(text))
    lines = iter(found)
    blocks: dict[str, Presentation] = {}

    def begin(rest):
        if rest not in ("source", "target"):
            raise PresentationError("begin must name source or target")
        if rest in blocks:
            raise PresentationError(f"duplicate begin {rest}")
        block = []
        for directive in lines:  # the block's lines leave the outer reader
            if directive[1:] == ("end", ""):
                blocks[rest] = _read_presentation(block)
                return
            block.append(directive)
        raise PresentationFormatError(None, f"unterminated begin {rest}")

    # sends are read once both blocks are known
    read_directives(lines, {"hom": lambda rest: None, "begin": begin,
                            "send": lambda rest: None}, PresentationFormatError)
    if "source" not in blocks or "target" not in blocks:
        raise PresentationFormatError(None, "map file needs source and target blocks")
    names = [sym.name for sym in blocks["source"].alphabet]
    images: dict[str, Word] = {}

    def send(rest):
        gen, eq, image = (part.strip() for part in rest.partition("="))
        if not eq:
            raise PresentationError("send needs '<gen> = <word>'")
        if gen in images:
            raise PresentationError(f"duplicate send line for {gen}")
        if gen not in names:
            raise PresentationError(f"send line for unknown source generator {gen}")
        images[gen] = parse_word(image, blocks["target"].alphabet)

    read_directives((d for d in found if d[1] == "send"), {"send": send},
                    PresentationFormatError)
    for name in names:
        if name not in images:
            raise PresentationFormatError(None, f"no send line for generator {name}")
    return GroupHom(blocks["source"], blocks["target"], tuple(images[n] for n in names))


def format_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(s.name for s in p.alphabet)]
    lines.extend(f"rel {format_word(r)}" for r in p.relators)
    return "\n".join(lines) + "\n"
