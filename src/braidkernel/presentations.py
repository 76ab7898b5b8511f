"""Finitely presented groups: construction, quotients, homomorphisms,
abelianization, and the line-oriented text formats.

Relations ``u = v`` are ingested as the single relator ``u*v^-1``;
relators are stored freely and cyclically reduced with duplicates
dropped, in a deterministic order (construction order), since the
rewriting engine's derivation certificates refer to relators by index.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Iterator, Sequence

from . import snf
from .base import BraidkernelError, Undecided, record
from .words import (
    Alphabet,
    Word,
    cyclic_reduce,
    format_word,
    make_alphabet,
    parse_word,
    same_alphabet,
)


class PresentationError(BraidkernelError):
    pass


@record
class Presentation:
    name: str
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        make_alphabet(self.alphabet)
        normalized = []
        seen = set()
        # a Word's hash takes in its alphabet, so relators are deduplicated on syllables
        for rel in self.relators:
            if not same_alphabet(rel.alphabet, self.alphabet):
                raise PresentationError(
                    f"relator {format_word(rel)} is over a different alphabet")
            core, _ = cyclic_reduce(rel)
            if core.is_identity or core.syllables in seen:
                continue
            seen.add(core.syllables)
            normalized.append(core)
        object.__setattr__(self, "relators", tuple(normalized))

    @property
    def ngens(self) -> int:
        return len(self.alphabet)

    def gen(self, name: str, exponent: int = 1) -> Word:
        if name not in self.alphabet:
            raise PresentationError(f"no generator named {name!r}")
        return Word.generator(self.alphabet, self.alphabet.index(name), exponent)

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
        return lhs * rhs.inverse()
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
        if not same_alphabet(w.alphabet, p.alphabet):
            raise PresentationError(
                f"quotient word {format_word(w)} is over a different alphabet")
    label = p.name + "/<" + ",".join(format_word(w) for w in extra) + ">"
    return Presentation(label, p.alphabet, p.relators + tuple(extra))


# abelianization -----------------------------------------------------------

@record
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


def abelianization(p: Presentation) -> AbelianInvariants:
    # one sparse row per relator, {generator: nonzero exponent sum}, read off its syllables
    rows = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for gen, exp in rel.syllables:
            row[gen] = row.get(gen, 0) + exp
        rows.append({gen: exp for gen, exp in row.items() if exp})
    diag = snf.invariant_factors(rows, p.ngens)
    rank = sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d >= 2)
    return AbelianInvariants(rank, torsion)


# homomorphisms ------------------------------------------------------------

# An equality oracle decides u = v in a fixed group: True or False; it
# raises base.Undecided when its budget cannot settle the question.
EqualityOracle = Callable[[Word, Word], bool]


def first_unequal(oracle: EqualityOracle, pairs: Iterable[tuple[Word, Word]]) -> int | None:
    """Index of the first pair the oracle proves unequal, even after an undecided one; None
    when it proves every pair equal, else its first Undecided is raised."""
    undecided = []  # the first, kept without the traceback that forms a cycle
    for i, (u, v) in enumerate(pairs):
        try:
            if not oracle(u, v):
                return i
        except Undecided as exc:
            undecided = undecided or [exc.with_traceback(None)]
    if undecided:
        raise undecided.pop()


@record
class GroupHom:
    source: Presentation
    target: Presentation
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.source.ngens:
            raise PresentationError(
                f"expected {self.source.ngens} generator images, got {len(self.images)}")
        for w in self.images:
            if not same_alphabet(w.alphabet, self.target.alphabet):
                raise PresentationError("generator image over the wrong alphabet")


def substitute(h: GroupHom, w: Word) -> Word:
    """Image of w under the generator map, freely reduced; hom_check maps
    each source relator with it."""
    if not same_alphabet(w.alphabet, h.source.alphabet):
        raise PresentationError("word is not over the source alphabet")
    sylls: list[tuple[int, int]] = []
    for gen, exp in w.syllables:
        sylls.extend((h.images[gen] ** exp).syllables)
    return Word.from_syllables(h.target.alphabet, sylls)


@record
class HomCheckResult:
    status: str  # "verified" | "failed"
    relator_index: int | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def hom_check(h: GroupHom, oracle: EqualityOracle) -> HomCheckResult:
    """Check that every source relator maps to the identity of the target, by an oracle for
    the target: a relator proved to fail decides even after an undecided one; otherwise the
    first ``Undecided`` propagates, so an inconclusive oracle never yields a silent pass."""
    target_id = Word.identity(h.target.alphabet)
    i = first_unequal(oracle, ((substitute(h, rel), target_id) for rel in h.source.relators))
    return HomCheckResult("verified") if i is None else HomCheckResult("failed", i)


# text formats: presentation, map and chain files share one line syntax ------

Directive = tuple[int, str, str]  # (file line, key, rest)


class FormatError(BraidkernelError):
    """A malformed file; ``line`` is None for a whole-file error."""

    def __init__(self, line: int | None, message: str):
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
                    error: type[FormatError], once: Container[str] = ()) -> None:
    """Hand each directive's rest to the handler of its key.

    An unknown key, a second line of a key in ``once``, or a
    ``ValueError`` (every library error is one) that a handler raises,
    becomes ``error`` naming the directive's line.
    """
    seen = set()
    for lineno, key, rest in lines:
        if key not in handlers:
            raise error(lineno, f"unknown directive {key!r}")
        if key in once and key in seen:
            raise error(lineno, f"duplicate {key} line")
        seen.add(key)
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
        if not rest:
            raise PresentationError("missing group name")
        name = rest

    def gens(rest):
        nonlocal alphabet
        if name is None:
            raise PresentationError("gens before group line")
        alphabet = make_alphabet(rest.split())

    def rel(rest):
        if alphabet is None:
            raise PresentationError("rel before gens line")
        relators.append(parse_relation(rest, alphabet))

    read_directives(lines, {"group": group, "gens": gens, "rel": rel},
                    PresentationFormatError, once=("group", "gens"))
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
    names = blocks["source"].alphabet
    known = set(names)  # `in` on the tuple would walk every name per send line
    images: dict[str, Word] = {}

    def send(rest):
        gen, eq, image = (part.strip() for part in rest.partition("="))
        if not eq:
            raise PresentationError("send needs '<gen> = <word>'")
        if gen in images:
            raise PresentationError(f"duplicate send line for {gen}")
        if gen not in known:
            raise PresentationError(f"send line for unknown source generator {gen}")
        images[gen] = parse_word(image, blocks["target"].alphabet)

    read_directives((d for d in found if d[1] == "send"), {"send": send},
                    PresentationFormatError)
    for name in names:
        if name not in images:
            raise PresentationFormatError(None, f"no send line for generator {name}")
    return GroupHom(blocks["source"], blocks["target"], tuple(images[n] for n in names))


def format_presentation(p: Presentation) -> str:
    lines = [f"group {p.name}", "gens " + " ".join(p.alphabet)]
    lines.extend(f"rel {format_word(r)}" for r in p.relators)
    return "\n".join(lines) + "\n"
