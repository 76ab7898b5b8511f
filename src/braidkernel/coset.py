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
is the subgroup coset.  Once a coincidence has been processed, every
entry of a live row names a live coset, so scans walk the table without
the union-find.  The published table renumbers the live cosets 1, 2, ...

A table ``todd_coxeter`` returns publishes its rows on their first read
(``rows``, ``entry``, ``trace_word``, ``==``, ``hash``, ``repr``), once,
and then drops the live internal rows it kept until then.
``n_cosets``, ``is_complete``, ``status`` and the
``IncompleteTableError`` message never publish, so a query that stops
at a spent budget never builds the rows.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import cached_property
from itertools import chain

from . import DEFAULT_MAX_COSETS
from .presentations import Presentation
from .words import (
    BraidkernelError, Undecided, Word, format_word, letters_to_word, record, word_to_letters)

CENTER_ENUM_CAP = 10000


class EnumerationError(BraidkernelError):
    pass


class IncompleteTableError(EnumerationError, Undecided):
    """Raised when a query needs a complete table."""


class _BudgetExceeded(Exception):
    # private, not an Undecided, so that todd_coxeter's except clause
    # catches the spent budget and never a letter-limit refusal
    pass


@record
class CosetTable:
    """Result of an enumeration.

    ``rows[c - 1][x]`` is the coset reached from coset ``c`` by letter
    ``x`` (generator i = letter 2i, its inverse = letter 2i+1).  When
    status is "budget-exceeded" entries may be None.

    A table built directly holds its rows.  One that ``todd_coxeter``
    returned holds the live internal rows instead (dead rows are
    dropped, so it never keeps more rows than it publishes), and
    renumbers them into ``rows`` on the first read; ``n_cosets`` is its
    live count and never publishes.
    """

    presentation: Presentation
    subgroup_gens: tuple[Word, ...]
    rows: tuple[tuple[int | None, ...], ...]
    status: str  # "complete" | "budget-exceeded"

    def __getattr__(self, name):
        # Python calls this only for an attribute the instance lacks, so it
        # runs for rows only on a table todd_coxeter returned, before the
        # first read.  The rows are stored before the internal rows go:
        # a second thread that missed rows finds one or the other, and two
        # threads that both publish store equal rows.
        state = vars(self)
        unpublished = state.get("_unpublished") if name == "rows" else None
        if unpublished is not None:
            object.__setattr__(self, "rows", _publish(*unpublished))
            state.pop("_unpublished", None)
        elif name != "rows" or "rows" not in state:
            raise AttributeError(f"'CosetTable' object has no attribute {name!r}")
        return state["rows"]

    @cached_property
    def n_cosets(self) -> int:
        return len(self.rows)

    @property
    def is_complete(self) -> bool:
        return self.status == "complete"

    def entry(self, coset: int, letter: int) -> int | None:
        return self.rows[coset - 1][letter]

    def trace_word(self, coset: int, w: Word) -> int | None:
        """The coset reached from ``coset`` by reading w, or None where an
        undefined entry stops the walk.

        Reads one syllable (g, e) as up to |e| steps along one column.  A
        walk that comes back to the syllable's start coset after k < |e|
        steps has found a cycle of fixed, defined entries, so only the
        last (|e| - k) mod k steps are taken; the cost grows with the
        number of syllables and the cycle lengths, not the exponents.
        """
        if w.alphabet != self.presentation.alphabet:
            raise EnumerationError("word is not over the table's alphabet")
        rows = self.rows
        for gen, exp in w.syllables:
            x = 2 * gen if exp > 0 else 2 * gen + 1
            steps = abs(exp)
            start = coset
            for k in range(1, steps + 1):
                coset = rows[coset - 1][x]
                if coset is None:
                    return None
                if coset == start:
                    for _ in range((steps - k) % k):
                        coset = rows[coset - 1][x]
                    break
        return coset


def todd_coxeter(p: Presentation, subgroup_gens: Sequence[Word] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of <subgroup_gens> in the group presented by p.

    ``max_cosets`` is inclusive: the live coset count never exceeds it.
    When a new coset would be the (max_cosets + 1)-th live one, the
    enumeration stops with status "budget-exceeded", and the returned
    table has exactly ``max_cosets`` rows.
    """
    if p.ngens == 0:
        raise EnumerationError("cannot enumerate over an empty alphabet")
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be >= 1")
    for w in subgroup_gens:
        if w.alphabet != p.alphabet:
            raise EnumerationError(
                f"subgroup generator {format_word(w)} is over a different alphabet")

    ncols = 2 * p.ngens
    relator_paths = [word_to_letters(r) for r in p.relators]
    subgroup_paths = [word_to_letters(w) for w in subgroup_gens if not w.is_identity]

    table: list[list[int]] = [[], [0] * ncols]
    parent = [0, 1]
    live_count = 1

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(c: int, x: int):
        nonlocal live_count
        if live_count >= max_cosets:
            raise _BudgetExceeded
        d = len(table)
        table.append([0] * ncols)
        parent.append(d)
        table[c][x] = d
        table[d][x ^ 1] = c
        live_count += 1

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
            for x in range(ncols):
                d = table[dead][x]
                if not d:
                    continue
                # drop the stale back-pointer, then replant the edge on
                # the class representatives (or queue a further merge)
                table[d][x ^ 1] = 0
                mu, nu = find(dead), find(d)
                if table[mu][x]:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1]:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
        # live-entry invariant: replaying each dead coset moved every live
        # entry naming it onto a live coset, so scans need no find

    def scan_and_fill(alpha: int, word: Sequence[int]):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and (e := table[f][word[i]]):
                f = e
                i += 1
            while j >= i and (e := table[b][word[j] ^ 1]):
                b = e
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                # the two scans meet across a single undefined letter
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    status = "complete"
    try:
        for path in subgroup_paths:
            scan_and_fill(1, path)
        idx = 1
        while idx < len(table):
            if parent[idx] == idx:
                for path in relator_paths:
                    scan_and_fill(idx, path)
                    if parent[idx] != idx:
                        break
                if parent[idx] == idx:
                    for x in range(ncols):
                        if not table[idx][x]:
                            define(idx, x)
            idx += 1
    except _BudgetExceeded:
        status = "budget-exceeded"

    size = len(table)
    live = [c for c in range(1, size) if parent[c] == c]
    # keep only the live rows, in place: live[k] > k, so no row is
    # overwritten before it moves
    for k, c in enumerate(live):
        table[k] = table[c]
    del table[len(live):]
    result = object.__new__(CosetTable)
    for field, value in (("presentation", p), ("subgroup_gens", tuple(subgroup_gens)),
                         ("status", status), ("n_cosets", len(live)),
                         ("_unpublished", (table, live, size, ncols))):
        object.__setattr__(result, field, value)
    return result


def _publish(live_rows: list[list[int]], live: list[int], size: int,
             ncols: int) -> tuple[tuple[int | None, ...], ...]:
    """The rows of the live cosets, renumbered 1, 2, ... in table order;
    ``size`` is the internal table's length, the bound on coset names."""
    # renumber[0] is None, so undefined entries publish as None; zip cuts
    # the renumbered live rows, read as one stream, back into rows
    renumber: list[int | None] = [None] * size
    for k, c in enumerate(live, 1):
        renumber[c] = k
    entries = map(renumber.__getitem__, chain.from_iterable(live_rows))
    return tuple(zip(*[entries] * ncols))


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


def perm_rep(t: CosetTable) -> list[tuple[int, ...]]:
    """One permutation per generator, acting on 0-based coset numbers."""
    _require_complete(t)
    n = t.n_cosets
    perms = []
    for i in range(t.presentation.ngens):
        perm = tuple(t.rows[c][2 * i] - 1 for c in range(n))
        if sorted(perm) != list(range(n)):
            raise EnumerationError(
                f"generator column {i} is not a permutation")
        perms.append(perm)
    return perms


def word_equal_finite(t: CosetTable, u: Word, v: Word) -> bool:
    """Word-problem oracle: u = v iff u*v^-1 fixes the subgroup coset."""
    _require_regular(t)
    return t.trace_word(1, u) == t.trace_word(1, v)


def is_central_finite(t: CosetTable, w: Word) -> bool:
    """True iff w commutes with every generator in the finite group."""
    _require_regular(t)
    for i in range(t.presentation.ngens):
        g = Word.generator(t.presentation.alphabet, i)
        if not word_equal_finite(t, w * g, g * w):
            return False
    return True


def coset_representatives(t: CosetTable) -> list[Word]:
    """One representative word per coset, breadth-first over the table
    columns in alphabet order (deterministic)."""
    _require_complete(t)
    alphabet = t.presentation.alphabet
    reps: dict[int, tuple[int, ...]] = {1: ()}
    order = [1]
    frontier = deque([1])
    while frontier:
        c = frontier.popleft()
        for x in range(2 * len(alphabet)):
            d = t.entry(c, x)
            if d not in reps:
                reps[d] = reps[c] + (x,)
                order.append(d)
                frontier.append(d)
    return [letters_to_word(alphabet, reps[c]) for c in sorted(order)]


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

    def oracle(u: Word, v: Word) -> bool:
        return word_equal_finite(t, u, v)

    return oracle
