"""The word problem of P3(RP2) and its quotients through the free fiber
subgroup.

The word problem of G is decidable through a free subgroup H of finite
index.  ``reidemeister`` presents H, the stabiliser of coset 1 under a
transitive permutation action of G; ``tietze_free_basis``
eliminates Schreier generators, and the generators left are a free basis
of H once the basis map the eliminations define sends every relator, read
from every coset, to the empty word.  Then u = v iff u v^-1 fixes coset
1 and its image in that basis is freely trivial (``FreeSubgroupOracle``).
On a quotient of G the oracle answers what it proves and is undecided
otherwise: it leaves out the relators the action breaks, and a basis that
still has relators proves "equal" only.
``fiber_oracle`` applies this to P3(RP2), whose fiber over P2(RP2) is free
(Magnus-Karrass-Solitar 1966, section 2.3; Havas 1974 for the
elimination), and to its quotients.  The fiber is the kernel of a map onto
Q8, so its action is Q8's on its own units, and no coset enumeration runs.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from . import FIBER_ALPHABET
from .base import BraidkernelError, EnumerationError, Undecided, record
from .presentations import Presentation
from .q8 import FIBER_COLUMNS
from .reidemeister import SchreierPresentation, _spanning_tree, closes, reidemeister_schreier, trace
from .words import Word, free_reduce_letters, join_reduced, letters_to_word, same_alphabet

# Tietze elimination's work grows faster than the relators' letters:
# P3(RP2)'s 85 take 2 ms, and with one long relator more, 1085 letters took
# 21 ms and 4085 took 0.2 s (2-core Xeon), so longer relators are refused
# before Reidemeister-Schreier.
FIBER_MAX_LETTERS = 2000
# the most letters Tietze elimination writes into its rows: P3(RP2) takes 3184
TIETZE_MAX_LETTERS = 10**6


# Tietze elimination works on rows and expressions as lists of Schreier
# letters.  A letter's inverse is x ^ 1, never -x: letter 0 is a generator,
# not its own inverse, and a reduction that negated letters would cancel
# x x for the first generator.


def _inverse(word) -> list[int]:
    return [x ^ 1 for x in reversed(word)]


def _solve(row: list[int], g: int) -> list[int] | None:
    """Generator g as a word in the others, from a relator A x B in which its
    letter x occurs once: x = (B A)^-1, or B A when x is g's inverse."""
    hits = [i for i, x in enumerate(row) if x >> 1 == g]
    if len(hits) != 1:
        return None
    i = hits[0]
    rest = row[i + 1:] + row[:i]
    return rest if row[i] & 1 else _inverse(rest)


def _start(sp: SchreierPresentation,
           only: set[int] | None = None) -> tuple[list[list[int]], list[set[int]]]:
    """The rows as lists, those not in ``only`` (when given) empty, and for each
    generator the rows that contain it; ``reidemeister_schreier`` reduced them."""
    rows = [list(row) if only is None or r in only else [] for r, row in enumerate(sp.rows)]
    occ = [set() for _ in range(sp.ngens)]
    for r, row in enumerate(rows):
        for x in row:
            occ[x >> 1].add(r)
    return rows, occ


def _eliminate(rows: list[list[int]], occ: list[set[int]], g: int, expr: list[int]) -> set[int]:
    """Substitute expr for generator g in every row, freely and cyclically
    reducing, and keep occ; returns the rows changed, which hold the
    letters written."""
    a, inv = 2 * g, _inverse(expr)
    changed, occ[g] = occ[g], set()
    for r in changed:
        out: list[int] = []
        lost: list[int] = []  # letters that cancelled: the row may have lost their generators
        for x in rows[r]:
            if x >> 1 == g:
                for y in expr if x == a else inv:
                    if out and out[-1] == y ^ 1:
                        lost.append(out.pop())
                    else:
                        out.append(y)
            elif out and out[-1] == x ^ 1:
                lost.append(out.pop())
            else:
                out.append(x)
        i, j = 0, len(out) - 1
        while i < j and out[i] == out[j] ^ 1:
            lost.append(out[i])
            i += 1
            j -= 1
        rows[r] = out = out[i:j + 1]
        for x in expr:
            if x in out or x ^ 1 in out:
                occ[x >> 1].add(r)
        for x in lost:
            if x not in out and x ^ 1 not in out:
                occ[x >> 1].discard(r)
    return changed


Elimination = tuple[int, int, tuple[int, ...]]  # (generator, source row, expression)


def tietze_free_basis(sp: SchreierPresentation) -> tuple[Elimination, ...]:
    """Eliminate Schreier generators until no relator left has a generator
    occurring once; raises Undecided once the rows have taken
    ``TIETZE_MAX_LETTERS`` letters.  Each step takes the shortest row (then
    the first) in which some generator occurs once, and of those generators
    the one in the fewest rows (then the lowest): on P3(RP2), taking the
    first of them in the row instead lets the rows peak at 7447 letters,
    not 660, and leaves relators in which no generator occurs once.  A
    step's expression is in the generators then left, which generate H;
    they are a free basis of H once the basis map the steps define sends
    every relator to the empty word (``FreeSubgroupOracle.free``)."""
    rows, occ = _start(sp)
    # (length, row) for each row that may have a generator occurring once in it
    ready = {r: (len(row), r) for r, row in enumerate(rows) if row}
    steps, written = [], 0
    while ready:
        _, r = min(ready.values())
        gens = [x >> 1 for x in rows[r]]
        once = [h for h in gens if gens.count(h) == 1]
        if not once:
            del ready[r]  # until a substitution changes the row
            continue
        g = min(once, key=lambda h: (len(occ[h]), h))
        expr = _solve(rows[r], g)
        steps.append((g, r, tuple(expr)))
        for s in _eliminate(rows, occ, g, expr):
            written += len(rows[s])
            if rows[s]:
                ready[s] = (len(rows[s]), s)
            else:
                ready.pop(s, None)
        if written > TIETZE_MAX_LETTERS:
            raise Undecided(f"Tietze elimination wrote more than {TIETZE_MAX_LETTERS} letters")
    return tuple(steps)


def _replay(sp: SchreierPresentation, steps: tuple[Elimination, ...]) -> list[list[int]] | None:
    """The source rows the eliminations leave, replayed in order, or None
    when a step's generator does not occur once in its source row, with
    the earlier substitutions made, or does not solve to the step's
    expression.  A row's substitutions read no other row, so the rows that
    are no step's source are left empty."""
    rows, occ = _start(sp, {r for _, r, _ in steps})
    for g, r, expr in steps:
        if not (0 <= g < sp.ngens and 0 <= r < len(rows)) or _solve(rows[r], g) != list(expr):
            return None
        _eliminate(rows, occ, g, list(expr))
    return rows


@record
class FreeSubgroupOracle:
    """The word problem of G, presented by p, through H, the stabiliser of
    coset 1 under the transitive action ``cols``: True, False, or
    Undecided (EnumerationError on another alphabet); ``free_subgroup_oracle(p, cols)`` builds it.
    ``kept`` holds the relators of p that close under the action; they
    present a group G' that maps onto G and on which the action is one.
    u and v are read through ``reduce_powers``, then u v^-1 is walked:
    u = v when it fixes coset 1 and its image in the generators Tietze
    leaves is empty (they generate H', each eliminated one being its
    expression by its source row); u != v when no relator was left out
    and it moves coset 1, or its image is not empty and the basis map
    kills every relator (``free``: a free basis of H).  Anything else is
    Undecided.  ``sp``, ``steps`` and ``images`` are built the first time
    a word fixes coset 1, and ``free`` the first time such a word's image
    is not empty."""

    cols: tuple[tuple[int, ...], ...]
    kept: Presentation
    skipped: bool  # whether the action breaks a relator of p, which kept leaves out
    moduli: tuple[int, ...]  # per generator x, the gcd of the m of the relators x^m of p, or 0

    @cached_property
    def sp(self) -> SchreierPresentation:
        return reidemeister_schreier(self.kept, self.cols)

    @cached_property
    def steps(self) -> tuple[Elimination, ...]:
        """Tietze's eliminations, each replayed from its source row."""
        steps = tietze_free_basis(self.sp)
        if _replay(self.sp, steps) is None:
            raise BraidkernelError("a Tietze elimination failed its replay")
        return steps

    @cached_property
    def free(self) -> bool:
        """Whether the basis map sends every kept relator, read from every
        coset, to the empty word: then the generators the eliminations
        leave are a free basis of H'.  It stops at the first relator the
        map does not kill."""
        return all(self.image(trace(self.cols, rel, c)[1]).is_identity
                   for rel in self.kept.relators for c in range(1, len(self.cols[0])))

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """One name per generator the eliminations leave."""
        return tuple(f"y{i}" for i in range(self.sp.ngens - len(self.steps)))

    @cached_property
    def images(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """``images[x][c]``: the image of the Schreier letter read by letter
        x at coset c, as syllables over ``alphabet``."""
        steps = self.steps
        gone = {g for g, _, _ in steps}
        basis = [g for g in range(self.sp.ngens) if g not in gone]
        # each generator's image in the basis: the steps substituted in reverse
        full = {g: [2 * i] for i, g in enumerate(basis)}
        for g, _, expr in reversed(steps):
            full[g] = list(free_reduce_letters([y for x in expr for y in (
                _inverse(full[x >> 1]) if x & 1 else full[x >> 1])]))
        words = [letters_to_word(self.alphabet, full[g]).syllables for g in range(self.sp.ngens)]
        # Schreier letter 2g reads generator g, and 2g + 1 its inverse: reversed, negated
        letters = [s for w in words for s in (w, tuple((y, -e) for y, e in reversed(w)))]
        return tuple(tuple(() if s < 0 else letters[s] for s in edge) for edge in self.sp.edges)

    def __call__(self, u: Word, v: Word) -> bool:
        if not (same_alphabet(u.alphabet, self.kept.alphabet)
                and same_alphabet(v.alphabet, self.kept.alphabet)):
            raise EnumerationError("words are not over the presentation's alphabet")
        coset, reads = trace(self.cols, self.reduce_powers(u) * self.reduce_powers(v).inverse())
        if coset == 1 and self.image(reads).is_identity:
            return True
        if self.skipped:
            raise Undecided("the action breaks a relator: it proves only equal words")
        if coset == 1 and not self.free:
            raise Undecided("Tietze elimination leaves relators: the subgroup is not shown free")
        return False

    def reduce_powers(self, w: Word) -> Word:
        """w with each syllable x^e taken modulo the m of ``moduli``, to the
        symmetric residue in (-m/2, m/2]: the normal form of w in the free
        product of the cyclic groups <x | x^m>, so an x^m inserted anywhere
        in w leaves it as it is."""
        moduli, out = self.moduli, []
        for gen, exp in w.syllables:
            if out and out[-1][0] == gen:  # a dropped syllable joined its neighbours
                exp += out.pop()[1]
            if m := moduli[gen]:
                exp %= m
                if 2 * exp > m:
                    exp -= m
            if exp:
                out.append((gen, exp))
        return Word(w.alphabet, tuple(out))

    def image(self, reads) -> Word:
        """The image of the Schreier word that ``reidemeister.trace``'s reads
        spell, over ``alphabet``."""
        images, alphabet, parts = self.images, self.alphabet, []
        for x, cycle, q, r in reads:
            read = [images[x][c] for c in cycle]
            parts += read * q if q < 2 else [(join_reduced(alphabet, read) ** q).syllables]
            parts += read[:r]
        return join_reduced(alphabet, parts)


def free_subgroup_oracle(p: Presentation, cols) -> FreeSubgroupOracle:
    """The oracle of the stabiliser of coset 1 under the transitive action
    ``cols`` of p (as ``reidemeister_schreier`` takes it), which keeps the
    relators that close at every coset; raises EnumerationError for
    columns that are not such an action.  Nothing of H is built yet."""
    _spanning_tree(p.ngens, cols)  # raises unless the columns are a transitive action
    kept, moduli = [rel for rel in p.relators if closes(cols, rel)], [0] * p.ngens
    for rel in p.relators:
        if len(rel.syllables) == 1:  # rel is x^m
            (gen, exp), = rel.syllables
            moduli[gen] = gcd(moduli[gen], exp)
    skipped = len(kept) < len(p.relators)
    return FreeSubgroupOracle(tuple(map(tuple, cols)),
                              Presentation(p.name, p.alphabet, tuple(kept)) if skipped else p,
                              skipped, tuple(moduli))


def fiber_oracle(p: Presentation) -> FreeSubgroupOracle:
    """The oracle of P3(RP2), or of a quotient of it, through the fiber, for
    a presentation over the atlas three-strand alphabet, from the action
    ``FIBER_COLUMNS``.  Raises EnumerationError for another alphabet and
    Undecided for relators over ``FIBER_MAX_LETTERS`` letters.  The Q8 action is right
    multiplication, so a relator closes at every coset or at none; on
    P3(RP2)/<rho^6>, say, rho1^6 goes to -1 and is left out.  H is built
    when a word first fixes coset 1, where Tietze's letter budget raises
    Undecided, so a pair Q8 separates costs one walk."""
    if not same_alphabet(p.alphabet, FIBER_ALPHABET):
        raise EnumerationError("the fiber oracle needs the atlas P3(RP2) generators")
    if (letters := sum(rel.letter_length for rel in p.relators)) > FIBER_MAX_LETTERS:
        raise Undecided(f"the relators have {letters} letters, over the fiber oracle's "
                        f"{FIBER_MAX_LETTERS}")
    return free_subgroup_oracle(p, FIBER_COLUMNS)
