"""Derivation chains: checkable certificates that two words are equal
modulo the relators of a presentation.

A step inserts one relator -- cyclically rotated, possibly inverted --
at a letter position of the current word and freely reduces.  Any true
equality in the group has such a chain, so a bounded breadth-first
search is a semi-decision procedure: found chains are certificates,
not-found is inconclusive and never a disproof.

Chains serialize to a line-oriented text format (one ``step`` line per
insertion) so fixed proof chains can live in a test corpus as data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .presentations import FormatError, Presentation, directives, read_directives
from .words import (
    BraidkernelError,
    Word,
    format_word,
    free_reduce_letters,
    letters_to_word,
    parse_word,
    word_to_letters,
)

DEFAULT_MAX_WORD_LEN = 30
DEFAULT_MAX_NODES = 200000


class ChainError(BraidkernelError):
    pass


@dataclass(frozen=True)
class DerivationStep:
    relator: int
    rotation: int
    direction: int  # +1 inserts the rotated relator, -1 its inverse
    position: int   # letter position in the current word, 0..len


@dataclass(frozen=True)
class DerivationChain:
    presentation: Presentation
    words: tuple[Word, ...]
    steps: tuple[DerivationStep, ...]

    @property
    def start(self) -> Word:
        return self.words[0]

    @property
    def end(self) -> Word:
        return self.words[-1]


@dataclass(frozen=True)
class DerivationReport:
    valid: bool
    failing_step: Optional[int]
    message: str


def _relator_letters(p: Presentation, index: int) -> tuple[int, ...]:
    if not 0 <= index < len(p.relators):
        raise ChainError(f"relator index {index} out of range")
    return word_to_letters(p.relators[index])


def _step_insertion(p: Presentation, step: DerivationStep) -> tuple[int, ...]:
    rel = _relator_letters(p, step.relator)
    if not 0 <= step.rotation < len(rel):
        raise ChainError(f"rotation {step.rotation} out of range for relator {step.relator}")
    if step.direction not in (1, -1):
        raise ChainError(f"direction must be +1 or -1, got {step.direction}")
    rotated = rel[step.rotation:] + rel[:step.rotation]
    if step.direction == -1:
        rotated = tuple(x ^ 1 for x in reversed(rotated))
    return rotated


def apply_step(p: Presentation, w: Word, step: DerivationStep) -> Word:
    """One insertion move: splice the (rotated, oriented) relator into w."""
    if w.alphabet != p.alphabet:
        raise ChainError("word is not over the presentation's alphabet")
    insertion = _step_insertion(p, step)
    letters = word_to_letters(w)
    if not 0 <= step.position <= len(letters):
        raise ChainError(f"position {step.position} out of range (word length {len(letters)})")
    new = free_reduce_letters(
        letters[:step.position] + insertion + letters[step.position:])
    return letters_to_word(p.alphabet, new)


def build_chain(p: Presentation, start: Word, steps) -> DerivationChain:
    """Replay steps from ``start``, recording every intermediate word."""
    words = [start]
    steps = tuple(steps)
    for step in steps:
        words.append(apply_step(p, words[-1], step))
    return DerivationChain(p, tuple(words), steps)


def check_derivation(chain: DerivationChain) -> DerivationReport:
    """Accept iff every step replays exactly; report the first failure."""
    if not chain.words:
        raise ChainError("chain has no words")
    if len(chain.words) != len(chain.steps) + 1:
        raise ChainError(
            f"chain has {len(chain.words)} words but {len(chain.steps)} steps")
    for w in chain.words:
        if w.alphabet != chain.presentation.alphabet:
            raise ChainError("chain word over the wrong alphabet")
    for t, step in enumerate(chain.steps):
        computed = apply_step(chain.presentation, chain.words[t], step)
        if computed != chain.words[t + 1]:
            return DerivationReport(
                False, t,
                f"step {t} produced {format_word(computed)}, "
                f"chain claims {format_word(chain.words[t + 1])}")
    return DerivationReport(True, None, f"{len(chain.steps)} steps replayed")


def _splice(word: tuple[int, ...], ins: tuple[int, ...], pos: int) -> tuple[int, int, int, int]:
    """Spans (i, j, k, r) with ``word[:i] + ins[j:k] + word[r:]`` equal to
    ``free_reduce_letters(word[:pos] + ins + word[pos:])``.

    Both word and ins must be freely reduced, so letters cancel only at
    the two junctions, and the halves of word meet only once ins has
    cancelled completely.
    """
    i, j, k, r = pos, 0, len(ins), pos
    while j < k and i and word[i - 1] == ins[j] ^ 1:
        i -= 1
        j += 1
    end = len(word)
    while j < k and r < end and word[r] == ins[k - 1] ^ 1:
        r += 1
        k -= 1
    if j == k:
        while i and r < end and word[i - 1] == word[r] ^ 1:
            i -= 1
            r += 1
    return i, j, k, r


def search_equality(p: Presentation, u: Word, v: Word,
                    max_word_len: int = DEFAULT_MAX_WORD_LEN,
                    max_nodes: int = DEFAULT_MAX_NODES) -> Optional[DerivationChain]:
    """Breadth-first search for a derivation chain from u to v.

    Explores every relator insertion (all rotations, both directions,
    every position), pruning words longer than ``max_word_len`` and
    stopping after ``max_nodes`` distinct words.  Returns a chain that
    check_derivation accepts, or None (inconclusive, not a disproof).
    The chain is replayed through apply_step before it is returned, and
    a replay that does not end at v raises ChainError.

    The visit order is part of the contract: from each word, the
    distinct insertions in order of first occurrence (relator, then
    rotation, then direction +1 before -1), and for each insertion the
    positions in ascending order.  It decides which chain is returned
    and where ``max_nodes`` cuts the search; the chain corpus under
    ``tests/data`` pins it.
    """
    if max_word_len < 1 or max_nodes < 1:
        raise BraidkernelError("budgets must be >= 1")
    if u.alphabet != p.alphabet or v.alphabet != p.alphabet:
        raise ChainError("words are not over the presentation's alphabet")

    start = word_to_letters(u)
    goal = word_to_letters(v)
    if start == goal:
        return DerivationChain(p, (u,), ())
    if len(goal) > max_word_len:
        return None  # every word longer than the cap is pruned

    # the distinct (freely reduced) insertion strings, each with the
    # first step that makes it
    variants: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for ri, rel in enumerate(p.relators):
        for rot in range(rel.letter_length):
            for direction in (1, -1):
                ins = free_reduce_letters(
                    _step_insertion(p, DerivationStep(ri, rot, direction, 0)))
                if ins:
                    variants.setdefault(ins, (ri, rot, direction))

    came_from: dict[tuple[int, ...], Optional[tuple]] = {start: None}
    frontier = deque([start])
    while frontier:
        word = frontier.popleft()
        end = len(word)
        at: dict[int, list[int]] = {}  # letter -> its positions in word
        for q, x in enumerate(word):
            at.setdefault(x, []).append(q)
        for ins, how in variants.items():
            if end + len(ins) <= max_word_len:
                positions = range(end + 1)
            else:  # only a cancelling junction can bring the length under the cap
                positions = sorted({q + 1 for q in at.get(ins[0] ^ 1, ())}
                                   .union(at.get(ins[-1] ^ 1, ())))
            for pos in positions:
                i, j, k, r = _splice(word, ins, pos)
                if i + k - j + end - r > max_word_len:
                    continue
                new = word[:i] + ins[j:k] + word[r:]
                if new in came_from:
                    continue
                came_from[new] = (word, *how, pos)
                if new == goal:
                    steps = []
                    while came_from[new] is not None:
                        new, *step = came_from[new]
                        steps.append(DerivationStep(*step))
                    chain = build_chain(p, u, reversed(steps))
                    if chain.end != v:  # the replay uses full free reduction
                        raise ChainError(f"search chain replays to {format_word(chain.end)}, "
                                         f"not {format_word(v)}")
                    return chain
                if len(came_from) >= max_nodes:
                    return None
                frontier.append(new)
    return None


# text format ----------------------------------------------------------------

class ChainFormatError(FormatError, ChainError):
    """A malformed chain file."""


def format_chain(chain: DerivationChain) -> str:
    lines = [f"presentation {chain.presentation.name}",
             f"start {format_word(chain.start)}"]
    for s in chain.steps:
        lines.append(f"step {s.relator} {s.rotation} {s.direction} {s.position}")
    lines.append(f"end {format_word(chain.end)}")
    return "\n".join(lines) + "\n"


def parse_chain_file(text: str, p: Presentation) -> tuple[DerivationChain, Word]:
    """Parse a chain file and replay it over p.

    Returns the replayed chain and the file's declared end word; the
    caller compares ``chain.end`` against the declaration.
    """
    words: dict[str, Word] = {}
    steps: list[DerivationStep] = []

    def presentation(rest):
        if rest != p.name:
            raise ChainError(f"chain is over {rest!r}, not {p.name!r}")

    def step(rest):
        try:  # a wrong field count fails the unpacking, a non-integer int()
            relator, rotation, direction, position = map(int, rest.split())
        except ValueError:
            raise ChainError("step needs 4 integers") from None
        steps.append(DerivationStep(relator, rotation, direction, position))

    read_directives(directives(text), {
        "presentation": presentation,
        "start": lambda rest: words.update(start=parse_word(rest, p.alphabet)),
        "step": step,
        "end": lambda rest: words.update(end=parse_word(rest, p.alphabet)),
    }, ChainFormatError, once=("presentation", "start", "end"))
    for key in ("start", "end"):
        if key not in words:
            raise ChainFormatError(None, f"missing {key} line")
    return build_chain(p, words["start"], steps), words["end"]
