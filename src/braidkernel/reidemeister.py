"""Reidemeister-Schreier over a permutation action, and the walk that reads
a word through it a syllable at a time, for the index-2 witnesses
(``schreier``).

``cols[x][c]`` is the coset letter x leads coset c to, for c in 1..n
(slot 0 is unused); letter 2g is generator g and 2g + 1 its inverse.
The stabiliser H of coset 1 under a transitive action is generated by
T(c) g T(c g)^-1 for each pair (c, g) off a breadth-first spanning tree,
T(c) being the tree path from coset 1 to c, and the relators read from
every coset present it (Magnus-Karrass-Solitar 1966, section 2.3).
"""

from __future__ import annotations

from .base import EnumerationError, Undecided, record
from .presentations import Presentation
from .words import MAX_LETTERS, Word, format_word, read_syllable


@record
class SchreierPresentation:
    """H presented over the breadth-first spanning tree.  Schreier generator
    k is the k-th pair (coset c, generator g), coset-major, whose edge c ->
    c g is not on the tree; its letters are 2k and 2k + 1.  ``edges[x][c]``
    is the Schreier letter that letter x reads at coset c, -1 on the tree.
    ``rows`` are the relators read from every coset, relator-major."""

    cols: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    ngens: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> int:
        return len(self.cols[0]) - 1 if self.cols else 1


def _spanning_tree(ngens: int, cols) -> set[tuple[int, int]]:
    """The breadth-first spanning tree of the action ``cols`` of a group on
    ``ngens`` generators, as its (coset, generator) pairs; raises
    EnumerationError unless the columns are a transitive permutation
    action, each letter and its inverse permuting the cosets inversely."""
    n = len(cols[0]) - 1 if cols else 1
    cosets = list(range(1, n + 1))
    if len(cols) != 2 * ngens or any(len(col) != n + 1 or not set(cosets).issuperset(col[1:])
                                     for col in cols):
        raise EnumerationError(f"the columns are not {2 * ngens} maps of 1..{n}")
    tree, queue, seen = set(), [1], {1}
    for c in queue:  # the queue grows as it is read: breadth first, letters in order
        for x, col in enumerate(cols):
            if (d := col[c]) not in seen:
                seen.add(d)
                queue.append(d)
                tree.add((c, x >> 1) if x % 2 == 0 else (d, x >> 1))
    if len(queue) != n or any([cols[x ^ 1][d] for d in col[1:]] != cosets
                              for x, col in enumerate(cols)):
        raise EnumerationError("the table is not a transitive permutation action")
    return tree


def trace(cols, w: Word, c: int = 1) -> tuple[int, list[tuple[int, list[int], int, int]]]:
    """The coset w leads coset c to, and the walk's reads, one per syllable:
    (x, cycle, q, r) is letter x read from each coset of ``cycle`` q times
    over, then from its first r, as ``words.read_syllable`` reads it."""
    reads = []
    for gen, exp in w.syllables:
        cycle, q, r, c = read_syllable(cols[x := 2 * gen + (exp < 0)], abs(exp), c)
        reads.append((x, cycle, q, r))
    return c, reads


def reidemeister_schreier(p: Presentation, cols) -> SchreierPresentation:
    """The presentation of H from the columns of a transitive action of G
    on which each relator of p closes at each coset; raises
    EnumerationError for columns that are not one, and Undecided for a
    relator over the letter-expansion limit.  A complete ``CosetTable``
    gives its columns as ``(0, *col)`` for each column of its ``rows``.
    Each row is freely and cyclically reduced, as p's relators are: the
    letters of x at c and of x^-1 at c x, the only pair that cancels, meet
    only across a tree walk from c x back to c x, empty in a reduced word."""
    tree = _spanning_tree(p.ngens, cols)
    n = len(tree) + 1  # a spanning tree of n cosets has n - 1 edges
    cosets = range(1, n + 1)
    pairs = [(c, g) for c in cosets for g in range(p.ngens) if (c, g) not in tree]
    edges = [[-1] * (n + 1) for _ in cols]
    for k, (c, g) in enumerate(pairs):
        edges[2 * g][c] = 2 * k
        edges[2 * g + 1][cols[2 * g][c]] = 2 * k + 1
    rows = []
    for rel in p.relators:
        if (length := rel.letter_length) > MAX_LETTERS:
            raise Undecided(f"a relator of {length} letters is over the {MAX_LETTERS}-letter "
                            "expansion limit")
        sylls = [(2 * gen + (exp < 0), abs(exp)) for gen, exp in rel.syllables]
        for start in cosets:  # trace's walk, each read kept as its Schreier letters
            c, row = start, []
            for x, m in sylls:
                if m == 1:
                    if (s := edges[x][c]) >= 0:
                        row.append(s)
                    c = cols[x][c]
                else:
                    cycle, q, r, c = read_syllable(cols[x], m, c)
                    row += [s for d in cycle * q + cycle[:r] if (s := edges[x][d]) >= 0]
            if c != start:
                raise EnumerationError(f"relator {format_word(rel)} does not close at coset {start}")
            rows.append(tuple(row))
    return SchreierPresentation(tuple(map(tuple, cols)), tuple(map(tuple, edges)), len(pairs),
                                tuple(rows))
