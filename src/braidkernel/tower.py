"""The word problem of the atlas P_n(RP2), and of its quotients, through the strand-forgetting
tower.

Forgetting strand m maps P_m(RP2) onto P_(m-1)(RP2) (Fadell-Neuwirth 1962; Van Buskirk
1966).  Its kernel N_m is generated by b = (B_1m, ..., B_(m-2)m, rho_m), since family (c)
gives B_(m-1)m = (B_1m ... B_(m-2)m)^-1 rho_m^2.  Each generator x of P_m gets an
automorphism phi_x of the free group F(b), y -> x y x^-1 (Artin's representation, Artin 1947,
for the projective plane), read in one pass over the atlas relators: a letter of N_m acts by
conjugation by its word in b, rho_k (k < m) as the relators rho_k y rho_k^-1 = w with j = m
say, families (d) and (b), and phi_B_rs (s < m) is composed by family (b), B_rs = rho_s
rho_r^-1 rho_s^-1 rho_r, when a word first needs it.  A level whose relators lack one of these
refuses when it is built.  Three facts about each level, which ``tests/test_tower.py`` checks
for every level the answer chain admits, make the tower exact:

1. phi_r is the identity for every relator r of P_m, so phi is a homomorphism of P_m;
2. deleting N_m's letters from P_m's relators leaves exactly P_(m-1)'s relators, as cyclic
   words up to inversion, so P_m / N_m is P_(m-1)'s presented group;
3. each phi_x is onto: Nielsen reduction of its images finds an inverse.

x y x^-1 = phi_x(y) is an atlas relation for x = rho_k, and the rho's generate P_m by family
(b), so by 3 N_m is normal; phi sends a letter of N_m to its inner automorphism, and F(b) has
rank m - 1 >= 2, hence no center.  So w = 1 in P_m iff w with strand m deleted is 1 in
P_(m-1) and phi_w is the identity, and w is central iff it is so in P_(m-1) and phi_w commutes
with each phi_rho_k.  The base P_2(RP2) has order 8 and maps onto Q8 by ``q8.IMAGES``, read
through Q8's action on its own units, ``q8.COLUMNS``.  Nielsen's method is in
Magnus-Karrass-Solitar 1966, ch. 3.

A quotient of P_n(RP2), presented by the atlas relators and more, is graded.  "Equal" is
proved in P_n(RP2), which maps onto the quotient, after each syllable x^e is taken modulo
the quotient's relators x^m.  "Not equal" is proved only at a level the quotient maps onto:
Q8 when every extra relator carries unit 1 to 1, the levels above it when there is none.

Words of F(b) are tuples of letters, 2t for b_t and 2t + 1 for its inverse; an automorphism
is its substitution, one word per letter.  phi_w is kept as y -> g^-1 alpha(y) g, g a list
of periodic pieces (``_join``).  A syllable x^e with |e| > 4 and phi_x^o = inn(h), o <= 4,
multiplies g by h^-q, e = q o + r, so its power is read whole however large e is: o is 1
for the letters of N_m, and every generator has one at level 3.
"""

from __future__ import annotations

from math import gcd

from .atlas import _b_name, _rp2_alphabet, b_ij_as_rho, pure_braid_rp2
from .base import BraidkernelError, EnumerationError, Undecided
from .presentations import first_unequal
from .q8 import COLUMNS
from .words import Word, free_reduce_letters, same_alphabet

# the most letters one level's substitutions write for one question: central tau_8, tested on
# the rho's, writes 4706 at level 8, and tau_12 19032 at level 12
TOWER_MAX_LETTERS = 10**6


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(z ^ 1 for z in reversed(word))


def _substitution(images) -> tuple[tuple[int, ...], ...]:
    """The automorphism sending b_t to images[t], one word per letter."""
    return tuple(w for image in images for w in (image, _inverse(image)))


def _apply(subst, word) -> tuple[tuple[int, ...], int]:
    """The reduced image of word under subst, and the letters written."""
    out: list[int] = []
    written = 0
    for z in word:
        image = subst[z]
        written += len(image)
        for y in image:
            if out and out[-1] == y ^ 1:
                out.pop()
            else:
                out.append(y)
    return tuple(out), written


def _power(word, e) -> list[tuple[tuple[int, ...], int]]:
    """word^e as pieces: word = c r c^-1 with r cyclically reduced, so the power is c, r^e,
    c^-1, all inverted for e < 0."""
    if e < 0:
        word, e = _inverse(word), -e
    i = 0
    while 2 * i + 1 < len(word) and word[i] == word[-1 - i] ^ 1:
        i += 1
    c, r = word[:i], word[i:len(word) - i]
    return [(c, len(c)), (r, e * len(r)), (_inverse(c), len(c))]


def _invert(g) -> list[tuple[tuple[int, ...], int]]:
    """The pieces of g^-1: p p ... (n letters) = p[:r] (p[r:] p[:r])^k, n = k |p| + r, is
    inverted by reading (p[r:] p[:r])^-1 for n letters."""
    return [(_inverse(p[n % len(p):] + p[:n % len(p)]), n) for p, n in reversed(g)]


def _same(d, x, y) -> bool:
    """Whether x = d^-1 y d, x and y nonempty words and d given by its pieces."""
    return not _join([(x, len(x))], [*_invert(d), (_inverse(y), len(y)), *d]) if d else x == y


def _join(out: list, pieces) -> list:
    """out times pieces, freely reduced, where a piece (p, n) is the first n letters of p p p ...,
    reduced (p is cyclically reduced when n > |p|), and a list of pieces is reduced at every
    junction.  When two pieces cancel in |s| + |p| letters, both periods hold there, so by Fine
    and Wilf they cancel until one of them ends.  Pieces that read no letter twice are joined
    into one."""
    todo = [piece for piece in reversed(pieces) if piece[1]]
    while todo:
        p, n = todo.pop()
        if out:
            s, ns = out[-1]
            c, limit = 0, min(ns, n, len(s) + len(p))
            while c < limit and s[(ns - 1 - c) % len(s)] == p[c % len(p)] ^ 1:
                c += 1
            if c:
                c = min(ns, n) if c == len(s) + len(p) else c
                out.pop()
                if ns > c:
                    out.append((s, ns - c))
                if n > c:
                    todo.append((p[c % len(p):] + p[:c % len(p)], n - c))
                continue
        if out and out[-1][1] <= len(out[-1][0]) and n <= len(p):  # two words: one piece
            s, ns = out.pop()
            p, n = s[:ns] + p[:n], ns + n
        out.append((p, n))
    return out


def _conjugator(images) -> tuple[int, ...] | None:
    """z with images[t] = z b_t z^-1 for every t, or None when the automorphism sending b to
    images is not inner: z = c b_0^i where images[0] = c b_0 c^-1 and c^-1 images[1] c is
    b_0^i b_1 b_0^-i."""
    c = images[0][:len(images[0]) // 2]
    rest = free_reduce_letters(_inverse(c) + images[1] + c)
    z = free_reduce_letters(c + rest[:next((i for i, y in enumerate(rest) if y >> 1), 0)])
    inverse = _inverse(z)
    return z if all(free_reduce_letters(z + (2 * t,) + inverse) == image
                    for t, image in enumerate(images)) else None


def _nielsen_inverse(subst) -> tuple[tuple[int, ...], ...]:
    """The inverse of the automorphism subst: its images, each with its expression in the
    images, are shortened by products with the others, w v^+-1 or v^+-1 w cancelling more than
    half of v, until each is one letter.  Raises BraidkernelError when no product shortens an
    image longer than one letter."""
    rank = len(subst) // 2
    # each image with its expression, and both inverted
    basis = [(w, (2 * t,), _inverse(w), (2 * t + 1,)) for t, w in enumerate(subst[::2])]
    shortened = True
    while shortened:
        shortened = False
        for i, j in ((i, j) for i in range(rank) for j in range(rank) if i != j):
            (w, e, _, _), (v, f, vi, fi) = basis[i], basis[j]
            for a, x, b, y in ((w, e, v, f), (w, e, vi, fi), (v, f, w, e), (vi, fi, w, e)):
                if a[-1] != b[0] ^ 1:  # the junction does not cancel
                    continue
                c, most = 1, min(len(a), len(b))
                while c < most and a[-1 - c] == b[c] ^ 1:
                    c += 1
                if 2 * c > len(v):
                    w, e = a[:len(a) - c] + b[c:], free_reduce_letters(x + y)
                    basis[i] = w, e, _inverse(w), _inverse(e)
                    shortened = True
                    break
    inverse = [None] * rank
    for w, e, _, _ in basis:
        if len(w) != 1 or inverse[w[0] >> 1] is not None:
            raise BraidkernelError("Nielsen reduction left an automorphism's image unreduced")
        inverse[w[0] >> 1] = e if w[0] % 2 == 0 else _inverse(e)
    return _substitution(inverse)


class _Level:
    """Level m: phi_x for each generator x of P_m, indexed as the atlas alphabet, read in one
    pass over the relators of an atlas P_n(RP2) with n >= m.  phi_B_rs, the inverses and the
    roots are built when a word first needs them."""

    def __init__(self, m: int, relators):
        self.m, alphabet, below = m, relators[0].alphabet, _rp2_alphabet(m)
        rank = self.rank = m - 1
        # N_m's letters: b_t = B_(t+1)m for t < m - 2, b_(m-2) = rho_m, and B_(m-1)m as m - 1
        inner = [*(_b_name(k, m) for k in range(1, m - 1)), f"rho{m}", _b_name(m - 1, m)]
        code = {alphabet.index(name): t for t, name in enumerate(inner)}
        rho = {alphabet.index(f"rho{k}"): k for k in range(1, m + 1)}
        above = {g for g, name in enumerate(alphabet) if name not in below}

        def letters(syllables):  # over N_m, strands above m deleted; None off N_m
            if all(g in code or g in above for g, _ in syllables):
                return [2 * code[g] + (e < 0) for g, e in syllables if g in code
                        for _ in range(abs(e))]

        read = {}  # (k, t): rho_k x_t rho_k^-1 for k < m, and (m, m - 1): B_(m-1)m
        for r in relators:
            s = r.syllables
            k = rho.get(s[0][0])
            if k == m and s[0][1] == 2:  # family (c): rho_m^2 B_(m-1)m^-1 v, v over b
                w = letters(s[1:])  # so B_(m-1)m = v rho_m^2
                if w and w[0] == 2 * rank + 1 and max(w[1:], default=0) < 2 * rank:
                    read[m, rank] = (*w[1:], 2 * rank - 2, 2 * rank - 2)
            elif (k and k < m and len(s) > 3 and s[0][1] == s[1][1] == 1
                  and s[2] == (s[0][0], -1) and code.get(s[1][0], rank) < rank
                  and (w := letters(s[3:]))):  # families (d) and (b): rho_k y rho_k^-1 w^-1
                read[k, code[s[1][0]]] = _inverse(w)
        for k, t in [(m, rank), *((k, t) for k in range(1, m) for t in range(rank))]:
            if (k, t) not in read:
                raise BraidkernelError(f"level {m} reads no relator for (rho{k}, {inner[t]})")
        # each letter of N_m as a word in b
        sub = _substitution([*((2 * t,) for t in range(rank)), free_reduce_letters(read[m, rank])])
        index = {name: i for i, name in enumerate(below)}
        self.phi = [None] * len(below)
        self._roots = {index[name]: (sub[2 * t], 1) for t, name in enumerate(inner)}
        for x, (h, _) in self._roots.items():  # N_m's letters act by conjugation
            self.phi[x] = _substitution(free_reduce_letters(h + (2 * u,) + _inverse(h))
                                        for u in range(rank))
        for k in range(1, m):
            self.phi[index[f"rho{k}"]] = _substitution(_apply(sub, read[k, t])[0]
                                                       for t in range(rank))
        self.rhos = [index[f"rho{k}"] for k in range(1, m + 1)]
        self._pairs = {index[_b_name(r, s)]: (r, s) for s in range(2, m) for r in range(1, s)}
        self._inverses: dict[int, tuple] = {}

    def automorphism(self, x: int):
        """phi_x; phi_B_rs is composed by family (b), ``atlas.b_ij_as_rho``, the first time it is
        asked for."""
        if self.phi[x] is None:
            word = b_ij_as_rho(self.m, *self._pairs[x]).syllables
            self.phi[x] = _substitution(_compose(self, word, _Budget(self.m))[1])
        return self.phi[x]

    def inverse(self, x: int):
        """phi_x^-1, by Nielsen reduction, built once."""
        if x not in self._inverses:
            self._inverses[x] = _nielsen_inverse(self.automorphism(x))
        return self._inverses[x]

    def root(self, x: int):
        """(h, o) with phi_x^o = inn(h) for the least o <= 4, or None; built once.  o is 1 for
        the letters of N_m, and at level 3 every o divides 4, since x^4 lies in N_3."""
        if x not in self._roots:
            images, self._roots[x] = [(2 * t,) for t in range(self.rank)], None
            for o in range(1, 5):
                images = [_apply(self.automorphism(x), w)[0] for w in images]
                if (h := _conjugator(images)) is not None:
                    self._roots[x] = (h, o)
                    break
        return self._roots[x]


_LEVELS: dict[int, _Level] = {}


def level(m: int, relators) -> _Level:
    """Level m, 3 <= m, read from an atlas P_n(RP2)'s relators, n >= m, once per process: every
    atlas gives the same level."""
    if m not in _LEVELS:
        _LEVELS[m] = _Level(m, relators)
    return _LEVELS[m]


class Tower:
    """The word problem of P_n(RP2), n >= 3, or of a quotient of it, level by level from Q8 up:
    words over ``atlas.pure_braid_rp2(n)``'s alphabet, read strand-deleted at each level m <= n.
    ``atlas`` are the presentation's atlas relators, which the levels are read from and whose
    alphabet the words must be over, and ``relators`` a quotient's relators past them; the atlas
    P_n(RP2)'s by default.  At each level the substitutions write at most
    ``TOWER_MAX_LETTERS`` letters for one question; past them the level raises Undecided, which
    names it and the letters written.  A level that proves two words unequal decides even after
    an undecided one, as ``first_unequal`` has it."""

    def __init__(self, n: int, atlas=None, relators=()):
        self.n = n
        self.atlas = pure_braid_rp2(n).relators if atlas is None else atlas
        self.alphabet = self.atlas[0].alphabet
        # per level m, the P_m index of each generator of P_n, None above strand m
        self._indices = {}
        # per generator x, the gcd of the m of the relators x^m, or 0; the atlas has none
        moduli = [0] * len(self.alphabet)
        for rel in relators:
            if len(rel.syllables) == 1:
                (gen, exp), = rel.syllables
                moduli[gen] = gcd(moduli[gen], exp)
        self.moduli = tuple(moduli)
        # the levels that prove "not equal", those the presented group maps onto: every level
        # of the atlas group, Q8 alone for a quotient whose relators all go to 1 there
        top = n if not relators else 2 if all(self._unit(rel) == 1 for rel in relators) else 1
        self._exact = range(2, top + 1)

    def _read(self, m: int, w: Word) -> list[tuple[int, int]]:
        """w with the strands above m deleted, over P_m's indices."""
        if m not in self._indices:
            index = {name: i for i, name in enumerate(_rp2_alphabet(m))}
            self._indices[m] = [index.get(name) for name in self.alphabet]
        indices = self._indices[m]
        return [(indices[gen], exp) for gen, exp in w.syllables if indices[gen] is not None]

    def _unit(self, w: Word, unit: int = 1) -> int:
        """The unit of Q8 that w, strand-deleted to P_2, carries unit to by ``COLUMNS``; the
        action is regular, so u = v in Q8 iff they carry 1 to the same unit."""
        for gen, exp in self._read(2, w):
            column = COLUMNS[2 * gen + (exp < 0)]
            for _ in range(abs(exp) % 4):  # every unit of Q8 has order dividing 4
                unit = column[unit]
        return unit

    def _check(self, w: Word) -> Word:
        """w, refused off the tower's alphabet, with each syllable x^e taken modulo the m of
        ``moduli``, to the symmetric residue in (-m/2, m/2]: the normal form of w in the free
        product of the cyclic groups <x | x^m>, so an x^m inserted anywhere in w leaves it as
        it is."""
        if not same_alphabet(w.alphabet, self.alphabet):
            raise EnumerationError("words are not over the tower's alphabet")
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

    def _levels(self, test) -> bool:
        """Whether ``test(m)`` holds at every level m = 2 ... n (2 is Q8), the first level that
        fails deciding even after an undecided one.  A level the presented group does not map
        onto proves only that it holds, and raises Undecided where it fails."""
        def holds(m, _):
            if (same := test(m)) or m in self._exact:
                return same
            raise Undecided(f"the tower proves only equal words at level {m} on a quotient")
        return first_unequal(holds, ((m, None) for m in range(2, self.n + 1))) is None

    def __call__(self, u: Word, v: Word) -> bool:
        """Whether u = v: at every level, phi_u = phi_v, the images of each b_t compared."""
        u, v = self._check(u), self._check(v)

        def equal(m):
            if m == 2:
                return self._unit(u) == self._unit(v)
            lev, budget = level(m, self.atlas), _Budget(m)
            (gu, a), (gv, b) = (_compose(lev, self._read(m, w), budget) for w in (u, v))
            d = _join([], gv + _invert(gu))  # a_t = d^-1 b_t d
            return all(_same(d, x, y) for x, y in zip(a, b))

        return self._levels(equal)

    def central(self, w: Word) -> bool:
        """Whether w is central: at every level, phi_w is composed once and commutes with
        phi_rho_k for each k <= m.  The rho's generate P_m, and the automorphisms that commute
        with phi_w form a subgroup."""
        w = self._check(w)

        def commutes(m):
            if m == 2:  # w x and x w carry 1 to the same unit
                unit = self._unit(w)
                return all(column[unit] == self._unit(w, column[1]) for column in COLUMNS[::2])
            lev, budget = level(m, self.atlas), _Budget(m)
            g, images = _compose(lev, self._read(m, w), budget)
            subst = _substitution(images)
            inverse = _invert(g)
            for phi in (lev.phi[x] for x in lev.rhos):  # phi_w(phi_x(b_t)) = phi_x(phi_w(b_t))
                d = _join([], _substitute(phi, g, budget) + inverse)
                if not all(_same(d, budget.apply(subst, phi[2 * t]), budget.apply(phi, image))
                           for t, image in enumerate(images)):
                    return False
            return True

        return self._levels(commutes)


class _Budget:
    """The letters one level's substitutions have written for one question."""

    def __init__(self, m: int):
        self.m = m
        self.written = 0

    def apply(self, subst, word):
        image, written = _apply(subst, word)
        self.written += written
        if self.written > TOWER_MAX_LETTERS:
            raise Undecided(f"the tower wrote {self.written} letters at level {self.m}, over "
                            f"its {TOWER_MAX_LETTERS}")
        return image


def _compose(lev: _Level, syllables, budget: _Budget):
    """phi_w, w given by its syllables, as (g, images): y -> g^-1 alpha(y) g, g a list of
    pieces and alpha the automorphism that sends b to images.  The syllables are read right to
    left.  x^e with |e| > 4 and phi_x^o = inn(h) (``_Level.root``) multiplies g by h^-q,
    e = q o + r, and phi_x^r, like any other syllable's automorphism, is applied to the images
    and to g."""
    images, g = [(2 * t,) for t in range(lev.rank)], []
    for gen, exp in reversed(syllables):
        if abs(exp) > 4 and (root := lev.root(gen)):
            (h, o), sign = root, 1 if exp > 0 else -1
            q, r = divmod(abs(exp), o)
            g, exp = _join(g, _power(h, -sign * q)), sign * r
        subst = lev.automorphism(gen) if exp >= 0 else lev.inverse(gen)
        for _ in range(abs(exp)):
            images = [budget.apply(subst, image) for image in images]
            g = _substitute(subst, g, budget)
    return g, images


def _substitute(subst, g, budget: _Budget) -> list[tuple[tuple[int, ...], int]]:
    """The pieces of the image of g, given by its pieces, under subst: p p ... (n letters)
    is p^k p[:r], n = k |p| + r."""
    pieces = []
    for p, n in g:
        k, r = divmod(n, len(p))
        pieces += _power(budget.apply(subst, p), k) + _power(budget.apply(subst, p[:r]), 1)
    return _join([], pieces)
