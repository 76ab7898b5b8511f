"""Reidemeister-Schreier: index-2 witnesses, and the word problem of P3(RP2).

Index-2 witnesses give exact "not equal" answers from the kernels of maps
onto Z/2.

A map G -> Z/2 gives each generator a bit; it is a homomorphism iff every
relator has even weight (the sum of its exponents on the generators with
bit 1), so the maps are the mod-2 null space of the relator matrix.  Its
kernel K has index 2, and Reidemeister-Schreier over the 2-point action
presents K: coset 0 is K, coset 1 is K t for the first generator t with
bit 1, and each pair (c, x) of a coset and a generator but the tree edge
(0, t) is the Schreier generator T(c) x T(c x)^-1, with T(0) = 1 and
T(1) = t.  A word traced from a coset rewrites to its exponent-sum vector
over them, and the relators traced from both cosets give the relation
rows of H1(K) (Magnus-Karrass-Solitar 1966, section 2.3).

Two words u and v differ in G when u v^-1 has odd weight under some map,
or when it lies in K and its vector is nonzero in H1(K).  The Smith
normal form left * rows * right = D then gives a functional: column j of
``right``, modulo the invariant factor d_j (0: the integers), kills every
row and not the vector.  ``check_witness`` confirms a certificate from the
presentation alone, with no Smith normal form.

The word problem of G is decidable through a free subgroup H of finite
index.  ``reidemeister_schreier`` presents H, the stabiliser of coset 1
under a complete coset table; ``tietze_free_basis`` eliminates Schreier
generators until no relator is left, and ``check_free_basis`` replays the
eliminations, after which the generators left are a free basis of H.  Then
u = v iff u v^-1 fixes coset 1 and its image in that basis is freely
trivial (``FreeSubgroupOracle``).  ``fiber_oracle`` applies this to
P3(RP2), whose fiber over P2(RP2) is free (Magnus-Karrass-Solitar 1966,
section 2.3; Havas 1974 for the elimination).
"""

from __future__ import annotations

from itertools import islice

from . import snf
from .base import BraidkernelError, Undecided, record
from .presentations import Presentation
from .words import (
    Word, format_word, free_reduce_letters, join_reduced, letters_to_word, word_to_letters,
)

# The kernels ``find_witness`` tries for one pair: the first maps in the
# order of ``kernel_maps``.  All 7 of P3(RP2) and all 15 of P4(RP2) fit;
# P8(RP2) has 255 maps, and trying 31 of them takes about 0.05 s.
MAX_KERNELS = 31


@record
class Witness:
    """A certificate that two words differ: a map onto Z/2, one bit per
    generator, and, unless the map alone separates them, a functional over
    its kernel's Schreier generators and its modulus (0: the integers)."""

    bits: tuple[int, ...]
    functional: tuple[int, ...] | None = None
    modulus: int | None = None


def _mask(bits) -> int:
    return sum(1 << g for g, bit in enumerate(bits) if bit)


def _bits(p: Presentation, mask: int) -> tuple[int, ...]:
    return tuple(mask >> g & 1 for g in range(p.ngens))


def _odd(w: Word) -> int:
    """The generators on which w has odd exponent sum, as a bit mask."""
    mask = 0
    for gen, exp in w.syllables:
        if exp & 1:
            mask ^= 1 << gen
    return mask


def _parity(w: Word, mask: int) -> int:
    """The weight of w under a map, modulo 2."""
    return bin(_odd(w) & mask).count("1") & 1


def _null_space(p: Presentation) -> list[int]:
    """A basis, as bit masks, of the maps G -> Z/2: the bit vectors on which
    every relator has even weight, one per generator outside the pivots of
    the relator matrix's reduced echelon form mod 2."""
    pivots: dict[int, int] = {}  # leading bit -> reduced row, the only row with that bit
    for rel in p.relators:
        row = _odd(rel)
        for j, pivot in pivots.items():
            if row >> j & 1:
                row ^= pivot
        if row:
            j = row.bit_length() - 1
            for k, pivot in pivots.items():
                if pivot >> j & 1:
                    pivots[k] = pivot ^ row
            pivots[j] = row
    return [(1 << free) | sum(1 << j for j, pivot in pivots.items() if pivot >> free & 1)
            for free in range(p.ngens) if free not in pivots]


def kernel_maps(p: Presentation):
    """The nonzero maps G -> Z/2 as bit masks, in the order ``find_witness``
    tries their kernels: the sum of the null-space basis vectors that the bits
    of k select, for k = 1, 2, ...  There are 2^dim - 1 of them, so they are
    made as they are taken."""
    basis = _null_space(p)
    for k in range(1, 1 << len(basis)):
        mask = 0
        for i, vector in enumerate(basis):
            if k >> i & 1:
                mask ^= vector
        yield mask


def schreier_index(p: Presentation, mask: int) -> dict[tuple[int, int], int]:
    """The column of each Schreier generator (coset, generator) of the
    kernel of ``mask``, coset-major: every pair but the tree edge (0, t)."""
    t = (mask & -mask).bit_length() - 1
    pairs = [(c, g) for c in (0, 1) for g in range(p.ngens) if (c, g) != (0, t)]
    return {pair: k for k, pair in enumerate(pairs)}


def rewrite(index: dict[tuple[int, int], int], mask: int, w: Word,
            coset: int = 0) -> tuple[list[int], int]:
    """The exponent-sum vector over the Schreier generators of w traced from
    ``coset``, and the coset the trace ends at.  A syllable x^e with bit 1
    alternates between the edges (c, x) and (c + 1, x): a letter x leaves
    its coset by the edge at it, a letter x^-1 arrives by the other one."""
    vec = [0] * len(index)
    for gen, exp in w.syllables:
        if mask >> gen & 1:
            m, sign = abs(exp), 1 if exp > 0 else -1
            first = coset if exp > 0 else coset ^ 1
            for c, count in ((first, (m + 1) // 2), (first ^ 1, m // 2)):
                if (k := index.get((c, gen))) is not None:
                    vec[k] += sign * count
            coset ^= m & 1
        elif (k := index.get((coset, gen))) is not None:
            vec[k] += exp
    return vec, coset


def relator_rows(p: Presentation, index: dict[tuple[int, int], int], mask: int) -> list[list[int]]:
    """Each relator of a map's kernel traced from coset 0 and from coset 1:
    the relation rows of H1 of the kernel."""
    return [rewrite(index, mask, rel, c)[0] for rel in p.relators for c in (0, 1)]


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """a u + b v for sparse rows (column -> nonzero entry)."""
    out = {k: a * x for k, x in u.items()} if a else {}
    for k, x in v.items():
        if total := out.get(k, 0) + b * x:
            out[k] = total
        else:
            out.pop(k, None)
    return out


def _echelon(rows: list[list[int]]) -> dict[int, dict[int, int]]:
    """A basis of the row lattice in echelon form: leading column -> the one
    basis row that leads there, with a positive lead, as a sparse row.  Two
    rows that lead at one column are replaced by their extended-gcd
    combination and a row that leads later, a unimodular move."""
    basis: dict[int, dict[int, int]] = {}
    for dense in dict.fromkeys(map(tuple, rows)):  # each distinct row once
        row = {k: x for k, x in enumerate(dense) if x}
        while row:
            j = min(row)
            b = basis.get(j)
            if b is None:
                basis[j] = row if row[j] > 0 else {k: -x for k, x in row.items()}
                break
            x, y = b[j], row[j]
            if y % x == 0:
                row = _combine(1, row, -(y // x), b)
                continue
            s0, s1, t0, t1, g, r = 1, 0, 0, 1, x, y  # s0 x + t0 y = g = gcd(x, y)
            while r:
                q = g // r
                g, r, s0, s1, t0, t1 = r, g - q * r, s1, s0 - q * s1, t1, t0 - q * t1
            if g < 0:
                g, s0, t0 = -g, -s0, -t0
            basis[j] = _combine(s0, b, t0, row)
            row = _combine(y // g, b, -(x // g), row)
    return basis


def _in_lattice(vec: list[int], basis: dict[int, dict[int, int]]) -> bool:
    rest = {k: x for k, x in enumerate(vec) if x}
    while rest:
        j = min(rest)
        b = basis.get(j)
        if b is None or rest[j] % b[j]:
            return False
        rest = _combine(1, rest, -(rest[j] // b[j]), b)
    return True


def find_witness(p: Presentation, u: Word, v: Word) -> Witness | None:
    """A certificate that u != v in G, or None when neither the maps onto Z/2
    nor the first ``MAX_KERNELS`` of their kernels separate u and v (which
    proves nothing).  ``check_witness`` confirms what this returns."""
    w = u * v.inverse()
    # the maps are linear, so one separates u and v iff a basis vector does
    for mask in _null_space(p):
        if _parity(w, mask):
            return Witness(_bits(p, mask))
    for mask in islice(kernel_maps(p), MAX_KERNELS):
        index = schreier_index(p, mask)
        vec, _ = rewrite(index, mask, w)
        if not any(vec):
            continue
        basis = _echelon(relator_rows(p, index, mask))
        if _in_lattice(vec, basis):
            continue
        diag, _, right = snf.smith_normal_form(
            [[basis[j].get(k, 0) for k in range(len(index))] for j in sorted(basis)]
            or [[0] * len(index)])
        image = [sum(x * right[i][j] for i, x in enumerate(vec)) for j in range(len(index))]
        # vec is outside the lattice, so some invariant factor other than 1 sees it
        j = next(j for j, d in enumerate(diag) if d != 1 and (image[j] % d if d else image[j]))
        m = diag[j]
        f = [row[j] % m if m else row[j] for row in right]
        return Witness(_bits(p, mask), tuple(f), m)
    return None


def check_witness(p: Presentation, u: Word, v: Word, witness: Witness) -> bool:
    """Whether the certificate proves u != v in G.  The map must send every
    relator to an even weight.  Then either u v^-1 has odd weight and the
    certificate has no functional, or u v^-1 has even weight, the functional
    is 0 modulo m on every relator row at both cosets, and it is not 0 modulo
    m on the vector of u v^-1."""
    bits = witness.bits
    if u.alphabet != p.alphabet or v.alphabet != p.alphabet:
        return False
    if len(bits) != p.ngens or not set(bits) <= {0, 1} or not any(bits):
        return False
    mask = _mask(bits)
    if any(_parity(rel, mask) for rel in p.relators):
        return False
    w = u * v.inverse()
    parity = _parity(w, mask)
    if witness.functional is None:
        return witness.modulus is None and parity == 1
    m, f = witness.modulus, witness.functional
    index = schreier_index(p, mask)
    if parity or not isinstance(m, int) or m < 0 or m == 1 or len(f) != len(index):
        return False

    def zero(vec):
        total = sum(a * b for a, b in zip(f, vec))
        return total % m == 0 if m else total == 0

    return all(map(zero, relator_rows(p, index, mask))) and not zero(rewrite(index, mask, w)[0])


def witness_json(p: Presentation, witness: Witness) -> dict:
    """The certificate as ``equal --json`` prints it."""
    out = {"map": list(witness.bits)}
    if witness.functional is not None:
        index = schreier_index(p, _mask(witness.bits))
        out["schreier_generators"] = [[c, p.alphabet[g]] for c, g in index]
        out["functional"] = list(witness.functional)
        out["modulus"] = witness.modulus
    return out


# The word problem through a free subgroup of finite index ---------------------

# Forgetting strand 3 maps P3(RP2) onto P2(RP2) = Q8, and its kernel, the
# fiber <B13, B23, rho3>, is free of rank 2 and has index 8 (Fadell-Neuwirth
# 1962).  Its enumeration defines 32 cosets; the cap stops it early on a
# presentation whose fiber has no small index.  Tietze elimination's work
# grows faster than the relators' letters: P3(RP2)'s 85 take 2 ms, and with
# one long relator more, 1085 letters took 21 ms and 4085 took 0.2 s (2-core
# Xeon), so longer relators are refused before the enumeration.
FIBER_ALPHABET = ("B12", "B13", "B23", "rho1", "rho2", "rho3")
FIBER = (1, 2, 5)  # B13, B23, rho3
FIBER_MAX_COSETS = 64
FIBER_MAX_LETTERS = 2000
# the most letters Tietze elimination writes into its rows: P3(RP2) takes 3456
TIETZE_MAX_LETTERS = 10**6


@record
class SchreierPresentation:
    """The stabiliser H of coset 1 under a complete coset table, presented
    by Reidemeister-Schreier over a breadth-first spanning tree.  Schreier
    generator k is the k-th pair (coset c, generator g), coset-major, whose
    edge c -> c g is not on the tree; its letters are 2k and 2k + 1.
    ``cols[x][c]`` is the coset letter x leads coset c to, and
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


def reidemeister_schreier(table) -> SchreierPresentation:
    """The presentation of H from a complete table.  The table must be a
    transitive action of G: each letter and its inverse permute the cosets
    inversely, and each relator closes at each coset.  Then a word that
    leads coset 1 elsewhere is not in H."""
    # coset is compiled only here and in fiber_oracle: the witnesses do not need it
    from .coset import EnumerationError, _require_complete
    _require_complete(table)
    p, n = table.presentation, table.n_cosets
    cols = [(0, *col) for col in zip(*table.rows)]
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
    pairs = [(c, g) for c in range(1, n + 1) for g in range(p.ngens) if (c, g) not in tree]
    edges = [[-1] * (n + 1) for _ in cols]
    for k, (c, g) in enumerate(pairs):
        edges[2 * g][c] = 2 * k
        edges[2 * g + 1][cols[2 * g][c]] = 2 * k + 1
    rows = []
    for rel in p.relators:
        path = word_to_letters(rel)
        for start in range(1, n + 1):
            c, row = start, []
            for x in path:
                if (s := edges[x][c]) >= 0:
                    row.append(s)
                c = cols[x][c]
            if c != start:
                raise EnumerationError(f"relator {format_word(rel)} does not close at coset {start}")
            rows.append(tuple(row))
    return SchreierPresentation(tuple(cols), tuple(map(tuple, edges)), len(pairs), tuple(rows))


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
    peak at 5258 letters, not 660, and substitutes 7 times as many.  A
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


def free_subgroup_oracle(table) -> FreeSubgroupOracle:
    """The oracle of the stabiliser of coset 1 under a complete table, once
    ``check_free_basis`` has accepted Tietze's eliminations; raises Undecided
    when Tietze leaves relators."""
    sp = reidemeister_schreier(table)
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
    the atlas three-strand alphabet.  Raises Undecided, before any
    enumeration, for another alphabet or relators over ``FIBER_MAX_LETTERS``
    letters, and when the fiber's enumeration spends ``FIBER_MAX_COSETS`` or
    its stabiliser is not shown free (the quotients of P3(RP2) by powers of
    rho, say)."""
    if p.alphabet != FIBER_ALPHABET:
        raise Undecided("the fiber oracle needs the atlas P3(RP2) generators")
    if (letters := sum(rel.letter_length for rel in p.relators)) > FIBER_MAX_LETTERS:
        raise Undecided(f"the relators have {letters} letters, over the fiber oracle's "
                        f"{FIBER_MAX_LETTERS}")
    from .coset import todd_coxeter
    table = todd_coxeter(p, [Word.generator(p.alphabet, g) for g in FIBER], FIBER_MAX_COSETS)
    if not table.is_complete:
        raise Undecided(f"the fiber has more than {FIBER_MAX_COSETS} cosets")
    return free_subgroup_oracle(table)
