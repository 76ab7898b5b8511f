"""The word problem of P3(RP2) through its free fiber subgroup.

The word problem of G is decidable through a free subgroup H of finite
index.  ``reidemeister_schreier`` presents H, the stabiliser of coset 1
under a transitive permutation action of G; ``tietze_free_basis``
eliminates Schreier generators until no relator is left, and
``check_free_basis`` replays the eliminations, after which the generators
left are a free basis of H.  Then u = v iff u v^-1 fixes coset 1 and its
image in that basis is freely trivial (``FreeSubgroupOracle``).
``fiber_oracle`` applies this to P3(RP2), whose fiber over P2(RP2) is free
(Magnus-Karrass-Solitar 1966, section 2.3; Havas 1974 for the
elimination).  The fiber is the kernel of a map onto Q8, so its action
is Q8's on its own units, and no coset enumeration runs.
"""

from __future__ import annotations

from . import FIBER_ALPHABET
from .base import BraidkernelError, EnumerationError, Undecided, record
from .presentations import Presentation
from .words import (
    Word, format_word, free_reduce_letters, join_reduced, letters_to_word, word_to_letters,
)

# Forgetting strand 3 maps P3(RP2) onto P2(RP2) = Q8, and its kernel, the
# fiber <B13, B23, rho3>, is free of rank 2 and has index 8 (Fadell-Neuwirth
# 1962).  The images of FIBER_ALPHABET, as quaternions a + b i + c j + d k:
# B12 -> -1, rho1 -> i, rho2 -> j, and B13, B23, rho3 -> 1.
FIBER_IMAGES = ((-1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0))
# Tietze elimination's work grows faster than the relators' letters:
# P3(RP2)'s 85 take 2 ms, and with one long relator more, 1085 letters took
# 21 ms and 4085 took 0.2 s (2-core Xeon), so longer relators are refused
# before Reidemeister-Schreier.
FIBER_MAX_LETTERS = 2000
# the most letters Tietze elimination writes into its rows: P3(RP2) takes 3184
TIETZE_MAX_LETTERS = 10**6


def _times(p, q):
    (a, b, c, d), (e, f, g, h) = p, q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def _q8_action() -> tuple[tuple[int, ...], ...]:
    """The action of P3(RP2) on the units of Q8 by right multiplication
    through ``FIBER_IMAGES``: ``cols[x][c]`` is unit c times the image of
    letter x (a generator's inverse is its conjugate).  Unit 1 is 1; the
    others are numbered as a breadth-first walk over the letters, in order,
    meets them (slot 0 is unused)."""
    letters = [q for a, b, c, d in FIBER_IMAGES for q in ((a, b, c, d), (a, -b, -c, -d))]
    units = [(1, 0, 0, 0)]
    for u in units:  # the list grows as it is read
        for q in letters:
            if (v := _times(u, q)) not in units:
                units.append(v)
    number = {u: c for c, u in enumerate(units, 1)}
    return tuple((0, *(number[_times(u, q)] for u in units)) for q in letters)


FIBER_COLUMNS = _q8_action()


@record
class SchreierPresentation:
    """The stabiliser H of coset 1 under a transitive permutation action,
    presented by Reidemeister-Schreier over a breadth-first spanning tree.
    Schreier generator k is the k-th pair (coset c, generator g),
    coset-major, whose edge c -> c g is not on the tree; its letters are 2k
    and 2k + 1.  ``cols[x][c]`` is the coset letter x leads coset c to, and
    ``edges[x][c]`` the Schreier letter read on the way, -1 on the tree
    (cosets count from 1; slot 0 is unused).  ``rows`` are the relators
    traced from every coset, relator-major."""

    cols: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    ngens: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.cols[0]) - 1 if self.cols else 1


def reidemeister_schreier(p: Presentation, cols) -> SchreierPresentation:
    """The presentation of H from the action's columns: ``cols[x][c]`` is
    the coset letter x leads coset c to, for c in 1..n (slot 0 is unused).
    The columns must be a transitive action of G: each letter and its
    inverse permute the cosets inversely, and each relator closes at each
    coset.  Then a word that leads coset 1 elsewhere is not in H.  A
    complete ``CosetTable`` gives its columns as ``(0, *col)`` for each
    column of its ``rows``."""
    n = len(cols[0]) - 1 if cols else 1
    cosets = range(1, n + 1)
    if len(cols) != 2 * p.ngens or any(len(col) != n + 1 or not all(d in cosets for d in col[1:])
                                       for col in cols):
        raise EnumerationError(f"the columns are not {2 * p.ngens} maps of 1..{n}")
    tree, queue, seen = set(), [1], {1}
    for c in queue:  # the queue grows as it is read: breadth first, letters in order
        for x, col in enumerate(cols):
            if (d := col[c]) not in seen:
                seen.add(d)
                queue.append(d)
                tree.add((c, x >> 1) if x % 2 == 0 else (d, x >> 1))
    if len(queue) != n or any(cols[x ^ 1][d] != c for x, col in enumerate(cols)
                              for c, d in enumerate(col) if c):
        raise EnumerationError("the table is not a transitive permutation action")
    pairs = [(c, g) for c in cosets for g in range(p.ngens) if (c, g) not in tree]
    edges = [[-1] * (n + 1) for _ in cols]
    for k, (c, g) in enumerate(pairs):
        edges[2 * g][c] = 2 * k
        edges[2 * g + 1][cols[2 * g][c]] = 2 * k + 1
    rows = []
    for rel in p.relators:
        path = word_to_letters(rel)
        for start in cosets:
            c, row = start, []
            for x in path:
                if (s := edges[x][c]) >= 0:
                    row.append(s)
                c = cols[x][c]
            if c != start:
                raise EnumerationError(f"relator {format_word(rel)} does not close at coset {start}")
            rows.append(tuple(row))
    return SchreierPresentation(tuple(map(tuple, cols)), tuple(map(tuple, edges)), len(pairs),
                                tuple(rows))


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


def _start(sp: SchreierPresentation) -> tuple[list[list[int]], list[set[int]]]:
    """The rows freely and cyclically reduced, and for each generator the
    rows that contain it."""
    rows, occ = [], [set() for _ in range(sp.ngens)]
    for r, row in enumerate(sp.rows):
        row = list(free_reduce_letters(row))
        i = 0
        while 2 * i + 1 < len(row) and row[i] == row[-1 - i] ^ 1:
            i += 1
        rows.append(row[i:len(row) - i])
        for x in rows[r]:
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


def tietze_free_basis(sp: SchreierPresentation) -> tuple[Elimination, ...] | None:
    """Eliminate Schreier generators until no relator is left, or None when
    relators remain in which no generator occurs once; raises Undecided once
    the rows have taken ``TIETZE_MAX_LETTERS`` letters.  Each step takes the
    shortest row (then the first) in which some generator occurs once, and
    of those generators the one in the fewest rows (then the lowest): on
    P3(RP2), taking the first of them in the row instead lets the rows
    peak at 7447 letters, not 660, and leaves relators in which no
    generator occurs once.  A
    step's expression is in the generators then left; the generators never
    eliminated are a free basis of H, once ``check_free_basis`` has
    replayed the steps."""
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
    return None if any(rows) else tuple(steps)


def check_free_basis(sp: SchreierPresentation, steps: tuple[Elimination, ...]) -> bool:
    """Whether the eliminations prove H free on the generators they leave.
    Replayed in order, each step's generator must occur once in its source
    row, with the earlier substitutions made, and solve to the step's
    expression; then every row must end up empty."""
    rows, occ = _start(sp)
    for g, r, expr in steps:
        if not (0 <= g < sp.ngens and 0 <= r < len(rows)) or _solve(rows[r], g) != list(expr):
            return False
        _eliminate(rows, occ, g, list(expr))
    return not any(rows)


@record
class FreeSubgroupOracle:
    """The word problem of G through a free subgroup H of finite index: u = v
    iff u v^-1 leads coset 1 back to coset 1 and its image in the free
    basis of H reduces to the empty word.  ``images[x][c]`` is the image of
    the Schreier letter read by letter x at coset c, as syllables over
    ``alphabet``, one name per basis generator.  ``free_subgroup_oracle``
    builds it once the basis is checked."""

    sp: SchreierPresentation
    steps: tuple[Elimination, ...]
    alphabet: tuple[str, ...]
    images: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    def __call__(self, u: Word, v: Word) -> bool:
        coset, image = self.image(u * v.inverse())
        return coset == 1 and image.is_identity

    def image(self, w: Word) -> tuple[int, Word]:
        """The coset w leads coset 1 to, and the image of its Schreier word,
        read per syllable: a walk that is back at its start after k steps
        has gone round a cycle, and the rest of the syllable is a power of
        the cycle's image."""
        cols, parts, c = self.sp.cols, [], 1
        for gen, exp in w.syllables:
            x = 2 * gen + (exp < 0)
            col, images, steps, start, walk = cols[x], self.images[x], abs(exp), c, []
            for k in range(1, steps + 1):
                walk.append(images[c])
                c = col[c]
                if c == start:
                    q, rest = divmod(steps, k)
                    parts.append((join_reduced(self.alphabet, walk) ** q).syllables)
                    del walk[rest:]
                    for _ in range(rest):
                        c = col[c]
                    break
            parts += walk
        return c, join_reduced(self.alphabet, parts)


def free_subgroup_oracle(p: Presentation, cols) -> FreeSubgroupOracle:
    """The oracle of the stabiliser of coset 1 under the action ``cols``
    (as ``reidemeister_schreier`` takes it), once ``check_free_basis`` has
    accepted Tietze's eliminations; raises Undecided when Tietze leaves
    relators."""
    sp = reidemeister_schreier(p, cols)
    steps = tietze_free_basis(sp)
    if steps is None:
        raise Undecided("Tietze elimination leaves relators: the subgroup is not shown free")
    if not check_free_basis(sp, steps):
        raise BraidkernelError("a Tietze elimination failed its replay")
    gone = {g for g, _, _ in steps}
    basis = [g for g in range(sp.ngens) if g not in gone]
    # each generator's image in the basis: the steps substituted in reverse
    full = {g: [2 * i] for i, g in enumerate(basis)}
    for g, _, expr in reversed(steps):
        full[g] = list(free_reduce_letters([y for x in expr for y in (
            _inverse(full[x >> 1]) if x & 1 else full[x >> 1])]))
    alphabet = tuple(f"y{i}" for i in range(len(basis)))
    words = [letters_to_word(alphabet, full[g]) for g in range(sp.ngens)]
    images = tuple(tuple(() if s < 0 else words[s >> 1].syllables if s % 2 == 0
                         else words[s >> 1].inverse().syllables for s in edge)
                   for edge in sp.edges)
    return FreeSubgroupOracle(sp, steps, alphabet, images)


def fiber_oracle(p: Presentation) -> FreeSubgroupOracle:
    """The exact oracle of P3(RP2) through its fiber, for a presentation over
    the atlas three-strand alphabet, from the action ``FIBER_COLUMNS``.
    Raises Undecided, before Reidemeister-Schreier, for another alphabet or
    relators over ``FIBER_MAX_LETTERS`` letters; before Tietze when a
    relator does not close under the action (it is not a map onto Q8: the
    quotients of P3(RP2) by rho^2 or rho^6, say); and when the stabiliser
    is not shown free (by rho^4)."""
    if p.alphabet != FIBER_ALPHABET:
        raise Undecided("the fiber oracle needs the atlas P3(RP2) generators")
    if (letters := sum(rel.letter_length for rel in p.relators)) > FIBER_MAX_LETTERS:
        raise Undecided(f"the relators have {letters} letters, over the fiber oracle's "
                        f"{FIBER_MAX_LETTERS}")
    try:
        return free_subgroup_oracle(p, FIBER_COLUMNS)
    except EnumerationError as error:
        raise Undecided(f"the fiber is not the kernel of the map onto Q8: {error}") from None
