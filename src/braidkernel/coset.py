"""Todd-Coxeter coset enumeration (HLT strategy).

Enumerates cosets of a finitely generated subgroup in a finitely
presented group by scanning every relator at every live coset, filling
undefined table entries as it goes, and merging cosets through a
union-find when two names turn out to denote the same coset
(coincidence).  Coincidence processing replays both columns of the
dead coset's row so the two table invariants survive every merge:

* permutation consistency: entry(c, x) == d  iff  entry(d, x^-1) == c;
* relator closure: scanning any relator from any coset returns to it.

The strategy is sealed (relator scanning in presentation order,
define-on-first-gap, FIFO coincidence queue) so results are
deterministic for a fixed input.  Budget exhaustion is a status on the
returned table, not an exception; a query that needs the whole table
raises ``IncompleteTableError``, an ``Undecided``.

Internally cosets are 1-based with 0 for an undefined entry, and coset 1
is the subgroup coset.  The table is one list per letter, a column, so
a relator is walked as its list of columns, one subscript per letter,
and defining a coset allocates no row.  Once a coincidence has been
processed, every entry of a live coset names a live coset, so scans walk
the table without the union-find.  Each relator is first walked inline
from the coset being scanned: a loop that closes is skipped, since a
closed loop stays closed (fills only add entries, merges map closed
loops to closed loops), and only an open one goes to the scanner.  So
does each open x·x^-1 (c·x undefined): the scanner defines every coset.
A generator x with a relator x^2 or x^-2 has one column, read by x and
x^-1 (Holt-Eick-O'Brien 2005, ch. 5), which closes those relators, so
they are not scanned, and x has one x·x^-1 loop.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import cached_property
from operator import eq

from . import DEFAULT_MAX_COSETS
from .presentations import Presentation, first_unequal
from .base import EnumerationError, Undecided  # EnumerationError is still importable from here
from .words import (Word, format_word, letters_to_word, read_syllable, same_alphabet,
                    word_to_letters)

CENTER_ENUM_CAP = 10000


class IncompleteTableError(EnumerationError, Undecided):
    """Raised when a query needs a complete table."""


class _BudgetExceeded(Exception):
    # private, not an Undecided, so that todd_coxeter's except clause
    # catches the spent budget and never a letter-limit refusal
    pass


class CosetTable:
    """Result of an enumeration.

    ``entry(c, x)`` is the coset reached from coset ``c`` by letter ``x``
    (generator i = letter 2i, its inverse = letter 2i+1), for c in
    1 .. ``n_cosets``; when status is "budget-exceeded" it may be None.
    ``rows[c - 1][x]`` holds the same entries, built on its first read.

    The table keeps the enumeration's columns: ``_cols[x][c]`` is the
    entry of internal coset c by letter x, 0 where undefined (slot 0 too).
    The live cosets, ``_parent[c] == c``, are counted by ``n_cosets`` and
    published 1, 2, ... in order; a table in published numbering has
    ``parent = range(n + 1)`` and its permutations, behind a 0, as columns.
    """

    def __init__(self, presentation: Presentation, subgroup_gens: Sequence[Word], status: str,
                 cols: Sequence[Sequence[int]], parent: Sequence[int]):
        self.presentation = presentation
        self.subgroup_gens = tuple(subgroup_gens)
        self.status = status  # "complete" | "budget-exceeded"
        self._cols = cols
        self._parent = parent

    @cached_property
    def n_cosets(self) -> int:
        # the union-find's roots but slot 0, counted without building _live
        return sum(map(eq, self._parent, range(len(self._parent)))) - 1

    @cached_property
    def _live(self) -> list[int]:
        # published number k -> internal coset name _live[k - 1]
        return [c for c, root in enumerate(self._parent) if c == root][1:]

    @cached_property
    def _index(self) -> list[int | None]:
        # internal coset name -> published number; 0 (undefined) and dead names -> None
        index: list[int | None] = [None] * len(self._parent)
        for k, c in enumerate(self._live, 1):
            index[c] = k
        return index

    @cached_property
    def rows(self) -> tuple[tuple[int | None, ...], ...]:
        index = self._index
        return tuple(tuple(index[col[c]] for col in self._cols) for c in self._live)

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def _name(self, coset: int) -> int:
        if 0 < coset <= self.n_cosets:
            return self._live[coset - 1]
        raise EnumerationError(f"coset {coset} is not in 1..{self.n_cosets}")

    def entry(self, coset: int, letter: int) -> int | None:
        name = self._name(coset)
        if 0 <= letter < len(self._cols):
            return self._index[self._cols[letter][name]]
        raise EnumerationError(f"letter {letter} is not in 0..{len(self._cols) - 1}")

    def trace_word(self, coset: int, w: Word) -> int | None:
        """The coset reached from ``coset`` by reading w, one ``read_syllable``
        a syllable, or None where an undefined entry stops the walk."""
        if not same_alphabet(w.alphabet, self.presentation.alphabet):
            raise EnumerationError("word is not over the table's alphabet")
        cols = self._cols
        coset = self._name(coset)
        for gen, exp in w.syllables:
            col = cols[2 * gen + (exp < 0)]
            coset = col[coset] if exp * exp == 1 else read_syllable(col, abs(exp), coset)[3]
            if not coset:
                return None
        return self._index[coset]


def _growth(size: int) -> int:
    # slots that a full column of size slots grows by: memory follows the names defined
    return max(64, size // 8)


def todd_coxeter(p: Presentation, subgroup_gens: Sequence[Word] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of <subgroup_gens> in the group presented by p.

    ``max_cosets`` is inclusive: the live coset count never exceeds it.
    When a new coset would be the (max_cosets + 1)-th live one, the
    enumeration stops with status "budget-exceeded", and the returned
    table has exactly ``max_cosets`` rows.
    """
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be >= 1")
    for w in subgroup_gens:
        if not same_alphabet(w.alphabet, p.alphabet):
            raise EnumerationError(
                f"subgroup generator {format_word(w)} is over a different alphabet")

    # slot 0 is "undefined" and holds 0: a walk that meets a gap stays there
    cols = [[0] * 64 for _ in range(2 * p.ngens)]
    # a generator x with a relator x^2 or x^-2 is an involution: x and x^-1 share one
    # column, which closes those relators, so they leave the scan list.  They are
    # keyed by syllables: a Word's hash takes in its alphabet
    square = {rel.syllables for rel in p.relators
              if len(rel.syllables) == 1 and abs(rel.syllables[0][1]) == 2}
    for (gen, _), in square:
        cols[2 * gen + 1] = cols[2 * gen]
    # each distinct column with its inverse, and each path as columns and inverse columns
    pairs = [(col, cols[x ^ 1]) for x, col in enumerate(cols)
             if x % 2 == 0 or col is not cols[x ^ 1]]
    relators, subgroup = ([([cols[x] for x in path], [cols[x ^ 1] for x in path])
                           for path in map(word_to_letters, words)]
                          for words in ([rel for rel in p.relators if rel.syllables not in square],
                                        subgroup_gens))
    loops = [([col, inv], [inv, col]) for col, inv in pairs]  # each x·x^-1
    parent = [0, 1]
    live_count = 1

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a: int, b: int, queue: deque):
        nonlocal live_count
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        live_count -= 1
        queue.append(b)

    def coincidence(a: int, b: int):
        queue: deque[int] = deque()
        merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            # only a merge moves the class representatives
            mu = find(dead)
            for col, inv in pairs:
                d = col[dead]
                if not d:
                    continue
                # drop the stale back-pointer, then replant the edge on
                # the class representatives (or queue a further merge)
                inv[d] = 0
                nu = d if parent[d] == d else find(d)
                if col[mu]:
                    merge(nu, col[mu], queue)
                    mu = find(dead)
                elif inv[nu]:
                    merge(mu, inv[nu], queue)
                    mu = find(dead)
                else:
                    col[mu] = nu
                    inv[nu] = mu

    def scan_and_fill(alpha: int, word: list[list[int]], inverse: list[list[int]]):
        nonlocal live_count
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (e := word[i][f]):
                f = e
                i += 1
            while j >= i and (e := inverse[j][b]):
                b = e
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                # the two scans meet across a single undefined letter
                word[i][f] = b
                inverse[i][b] = f
                return
            # define the coset f·word[i] and step onto it
            if live_count >= max_cosets:
                raise _BudgetExceeded
            d = len(parent)
            if d == len(word[i]):
                zeros = [0] * _growth(d)
                for col, _ in pairs:
                    col.extend(zeros)
            parent.append(d)
            inverse[i][d] = f
            word[i][f] = d
            live_count += 1
            f = d
            i += 1

    status = "complete"
    try:
        for path, inverse in subgroup:
            scan_and_fill(1, path, inverse)
        idx = 1
        while idx < len(parent):
            if parent[idx] == idx:
                for path, inverse in relators:
                    # a closed loop stays closed: only an open one is scanned
                    f = idx
                    for col in path:
                        f = col[f]
                    if f != idx:
                        scan_and_fill(idx, path, inverse)
                        if parent[idx] != idx:
                            break
                else:
                    for path, inverse in loops:
                        if not path[0][idx]:
                            scan_and_fill(idx, path, inverse)
            idx += 1
    except _BudgetExceeded:
        status = "budget-exceeded"

    return CosetTable(p, subgroup_gens, status, cols, parent)


# queries -------------------------------------------------------------------

def _require_complete(t: CosetTable):
    if not t.is_complete:
        raise IncompleteTableError(f"enumeration budget exhausted at {t.n_cosets} live cosets")


def _require_regular(t: CosetTable):
    _require_complete(t)
    if t.subgroup_gens:
        raise EnumerationError("query requires enumeration over the trivial subgroup")


def group_order(t: CosetTable) -> int:
    """Order of the group: live cosets of the trivial subgroup."""
    _require_regular(t)
    return t.n_cosets


def word_equal_finite(t: CosetTable, u: Word, v: Word) -> bool:
    """Word-problem oracle: u = v iff u*v^-1 fixes the subgroup coset."""
    _require_regular(t)
    return t.trace_word(1, u) == t.trace_word(1, v)


def is_central_finite(t: CosetTable, w: Word) -> bool:
    """True iff w commutes with every generator in the finite group."""
    gens = (Word.generator(t.presentation.alphabet, i) for i in range(t.presentation.ngens))
    return first_unequal(table_equality_oracle(t), ((w * g, g * w) for g in gens)) is None


def coset_representatives(t: CosetTable) -> list[Word]:
    """One representative word per coset, breadth-first over the table
    columns in alphabet order (deterministic)."""
    _require_complete(t)
    alphabet = t.presentation.alphabet
    reps: dict[int, tuple[int, ...]] = {1: ()}
    frontier = deque([1])
    while frontier:
        c = frontier.popleft()
        for x in range(2 * len(alphabet)):
            d = t.entry(c, x)
            if d not in reps:
                reps[d] = reps[c] + (x,)
                frontier.append(d)
    return [letters_to_word(alphabet, reps[c]) for c in sorted(reps)]


def center_order_finite(t: CosetTable, cap: int = CENTER_ENUM_CAP) -> int:
    """Order of the center, by exhausting one representative per element."""
    _require_regular(t)
    if t.n_cosets > cap:
        raise EnumerationError(
            f"group order {t.n_cosets} exceeds the element-enumeration cap {cap}")
    return sum(1 for w in coset_representatives(t) if is_central_finite(t, w))


def table_equality_oracle(t: CosetTable):
    """Equality oracle (for hom_check) backed by a complete table."""
    _require_regular(t)
    return lambda u, v: word_equal_finite(t, u, v)
