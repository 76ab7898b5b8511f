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

from . import DEFAULT_MAX_NODES, DEFAULT_MAX_WORD_LEN
from .base import BraidkernelError, Undecided, record
from .presentations import FormatError, Presentation, directives, read_directives
from .words import (
    MAX_LETTERS,
    Word,
    format_word,
    free_reduce_letters,
    join_reduced,
    letters_to_word,
    parse_word,
    same_alphabet,
    word_to_letters,
)


class ChainError(BraidkernelError):
    pass


@record
class DerivationStep:
    relator: int
    rotation: int
    direction: int  # +1 inserts the rotated relator, -1 its inverse
    position: int   # letter position in the current word, 0..len


@record
class DerivationChain:
    """A claim that the steps turn ``start`` into ``end``; check_derivation checks it."""
    presentation: Presentation
    start: Word
    steps: tuple[DerivationStep, ...]
    end: Word


@record
class DerivationReport:
    valid: bool
    failing_step: int | None  # the step that does not apply, if one does not
    message: str
    end: Word | None = None   # the word the replay reached, if every step applies


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
    """One insertion move: splice the (rotated, oriented) relator into w.

    w is split at the step's letter position syllable by syllable, so
    only the inserted relator is expanded to letters, never w.  Both
    halves and the insertion are reduced, so only the two junctions merge
    or cancel, and the rest of w is copied, not normalized again.
    """
    if not same_alphabet(w.alphabet, p.alphabet):
        raise ChainError("word is not over the presentation's alphabet")
    return _insert(p, w, step.position, _insertion_syllables(p, step))


def _insertion_syllables(p: Presentation, step: DerivationStep) -> tuple[tuple[int, int], ...]:
    return letters_to_word(p.alphabet, _step_insertion(p, step)).syllables


def _insert(p: Presentation, w: Word, position: int,
            insertion: tuple[tuple[int, int], ...]) -> Word:
    """w with the reduced syllables ``insertion`` spliced in at a letter position."""
    sylls, rest = w.syllables, position
    for k, (gen, exp) in enumerate(sylls):
        if 0 <= rest < abs(exp):  # the position falls at the start of syllable k or inside it
            if rest == 0:  # between syllables: both halves are slices, copied once
                head, tail = sylls[:k], sylls[k:]
            else:
                cut = rest if exp > 0 else -rest
                head, tail = sylls[:k] + ((gen, cut),), ((gen, exp - cut),) + sylls[k + 1:]
            return join_reduced(p.alphabet, (head, insertion, tail))
        rest -= abs(exp)
    if rest:
        raise ChainError(f"position {position} out of range (word length {w.letter_length})")
    return join_reduced(p.alphabet, (sylls, insertion))


def check_derivation(chain: DerivationChain) -> DerivationReport:
    """Replay the steps from the start word.  The chain is valid iff every
    step applies and the replay ends at the chain's end word.  Each
    distinct (relator, rotation, direction) is expanded once per replay."""
    p, word = chain.presentation, chain.start
    if not (same_alphabet(word.alphabet, p.alphabet)
            and same_alphabet(chain.end.alphabet, p.alphabet)):
        raise ChainError("chain word over the wrong alphabet")
    insertions: dict[tuple[int, int, int], tuple[tuple[int, int], ...]] = {}
    for t, step in enumerate(chain.steps):
        key = (step.relator, step.rotation, step.direction)
        try:
            if (insertion := insertions.get(key)) is None:
                insertion = insertions[key] = _insertion_syllables(p, step)
            word = _insert(p, word, step.position, insertion)
        except ChainError as exc:
            return DerivationReport(False, t, str(exc))
    if word != chain.end:
        return DerivationReport(False, None, f"chain replays but ends at {format_word(word)}, "
                                             f"file declares {format_word(chain.end)}", word)
    return DerivationReport(True, None, f"{len(chain.steps)} steps replayed", word)


def _checked(chain: DerivationChain) -> DerivationChain:
    """A chain the search built, once check_derivation accepts it."""
    report = check_derivation(chain)
    if report.failing_step is not None:
        raise ChainError(f"search chain step {report.failing_step} does not apply: "
                         f"{report.message}")
    if not report.valid:  # the replay uses full free reduction, the search splices
        raise ChainError(f"search chain replays to {format_word(report.end)}, "
                         f"not {format_word(chain.end)}")
    return chain


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
                    max_nodes: int = DEFAULT_MAX_NODES) -> DerivationChain | None:
    """Breadth-first search for a derivation chain from u to v.

    Explores every relator insertion (all rotations, both directions,
    every position), pruning words longer than ``max_word_len`` (u and
    v too) and stopping after ``max_nodes`` distinct words.  Returns a
    chain that check_derivation accepts, or None (inconclusive, not a
    disproof).  The chain goes through check_derivation before it is
    returned, and one that it rejects raises ChainError.

    The visit order is part of the contract: from each word, the
    distinct insertions in order of first occurrence (relator, then
    rotation, then direction +1 before -1), and for each insertion the
    positions in ascending order.  It decides which chain is returned
    and where ``max_nodes`` cuts the search; the chain corpus under
    ``tests/data`` pins it.

    Only splices that can fit the cap are tried.  For a word with room
    letters under the cap, an insertion of at most room letters is tried
    at every position and one of room + 1 or room + 2 letters where a
    junction letter cancels.  A longer one must cancel two of its letters,
    so an index of the letter pairs that cancel two places it where the
    word holds one of its three pairs.
    """
    if max_word_len < 1 or max_nodes < 1:
        raise BraidkernelError("budgets must be >= 1")
    if not (same_alphabet(u.alphabet, p.alphabet) and same_alphabet(v.alphabet, p.alphabet)):
        raise ChainError("words are not over the presentation's alphabet")

    if u == v:
        return _checked(DerivationChain(p, u, (), v))
    if max(u.letter_length, v.letter_length) > max_word_len:
        return None  # every word of a chain is within the cap, both ends included
    start, goal = word_to_letters(u), word_to_letters(v)

    # the distinct (freely reduced) insertion strings, each with the
    # first step that makes it.  Inserting L letters into a word of w
    # leaves at least L - w, and no popped word is over the cap, so a
    # longer relator never makes a kept word.  Rotations past a relator's
    # period repeat, so its table holds 2 * L * period letters, counted
    # before they are built: no more than the limit is ever built.
    longest = 2 * max_word_len
    table, first_step = 0, {}
    for ri, rel in enumerate(p.relators):
        if rel.letter_length > longest:
            continue
        t = "".join(map(",{}".format, word_to_letters(rel)))  # so a match starts at a letter
        period = t.count(",", 0, (t + t).find(t, 1))
        table += 2 * rel.letter_length * period
        if table > MAX_LETTERS:
            raise Undecided(f"an insertion table of {table} letters is over the "
                            f"{MAX_LETTERS}-letter expansion limit")
        for rot in range(period):
            for direction in (1, -1):
                ins = free_reduce_letters(
                    _step_insertion(p, DerivationStep(ri, rot, direction, 0)))
                if ins:
                    first_step.setdefault(ins, (ri, rot, direction))
    inserts = list(first_step.items())  # in order of first occurrence
    # Letters cancel in pairs, so an insertion 3 or more letters over the
    # cap must cancel twice, and both of the first two cancellations are at
    # its junctions: the word holds the inverses of ins[1], ins[0] side by
    # side (both cancel on the left), of ins[0], ins[-1] (one on each side)
    # or of ins[-1], ins[-2] (both on the right).  by_pair maps each of
    # those pairs to (length, insertion, offset): the pair at q puts the
    # insertion at q + offset.  No popped word is over the cap, so only an
    # insertion of 3 or more letters is ever that far over it.
    by_pair: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for n, (ins, _) in enumerate(inserts):
        if len(ins) > 2:
            for pair, offset in (((ins[1] ^ 1, ins[0] ^ 1), 2), ((ins[0] ^ 1, ins[-1] ^ 1), 1),
                                 ((ins[-1] ^ 1, ins[-2] ^ 1), 0)):
                by_pair.setdefault(pair, []).append((len(ins), n, offset))
    near: dict[int, list[int]] = {}  # room under the cap -> the insertions at most 2 over it

    came_from: dict[tuple[int, ...], tuple | None] = {start: None}
    frontier = deque([start])
    while frontier:
        word = frontier.popleft()
        end = len(word)
        room = max_word_len - end
        if (fits := near.get(room)) is None:
            fits = near[room] = [n for n, (ins, _) in enumerate(inserts) if len(ins) <= room + 2]
        far: dict[int, set[int]] = {}  # insertion -> the positions its pairs allow
        for q, pair in enumerate(zip(word, word[1:])):
            for length, n, offset in by_pair.get(pair, ()):
                if length > room + 2:
                    far.setdefault(n, set()).add(q + offset)
        at: dict[int, list[int]] | None = None  # letter -> its positions in word
        junctions: dict[tuple[int, int], list[int]] = {}  # (ins[0], ins[-1]) -> positions
        for n in sorted([*fits, *far]) if far else fits:
            ins, how = inserts[n]
            if (positions := far.get(n)) is not None:
                positions = sorted(positions)
            elif len(ins) <= room:
                positions = range(end + 1)
            elif (positions := junctions.get((ins[0], ins[-1]))) is None:
                # 1 or 2 letters over: only a cancelling junction can bring it under the cap
                if at is None:
                    at = {}
                    for q, x in enumerate(word):
                        at.setdefault(x, []).append(q)
                positions = junctions[ins[0], ins[-1]] = sorted(
                    {q + 1 for q in at.get(ins[0] ^ 1, ())}.union(at.get(ins[-1] ^ 1, ())))
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
                    return _checked(DerivationChain(p, u, tuple(reversed(steps)), v))
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


def parse_chain_file(text: str, p: Presentation) -> DerivationChain:
    """Parse a chain file over p without replaying it; check_derivation checks it."""
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
    return DerivationChain(p, words["start"], tuple(steps), words["end"])
