"""The word problem of the atlas P_n(RP2) through the strand-forgetting tower.

Forgetting strand m maps P_m(RP2) onto P_(m-1)(RP2) (Fadell-Neuwirth 1962; Van Buskirk
1966).  Its kernel N_m is generated by b = (B_1m, ..., B_(m-2)m, rho_m), since family (c)
gives B_(m-1)m = (B_1m ... B_(m-2)m)^-1 rho_m^2.  Each generator x of P_m gets an
automorphism phi_x of the free group F(b), y -> x y x^-1 read off the atlas relations with
j = m: a letter of N_m acts by conjugation by its word in b, rho_k (k < m) by families (d)
and (b), and B_rs (s < m) by family (a), which has no pattern for s < i: there B_rs fixes
B_im, and rho_m commutes with B_rs by family (d).  It is Artin's representation (Artin
1947) for the projective plane.  Three facts about each level, which ``tests/test_tower.py``
checks for every level the answer chain admits, make the tower exact:

1. phi_r is the identity for every relator r of P_m, so phi is a homomorphism of P_m;
2. deleting N_m's letters from P_m's relators leaves exactly P_(m-1)'s relators, as cyclic
   words up to inversion, so P_m / N_m is P_(m-1)'s presented group;
3. each phi_x is onto: Nielsen reduction of its images finds an inverse.

x y x^-1 = phi_x(y) is an atlas relation for x = rho_k, and B_rs is a word in the rho's by
family (b), so by 3 N_m is normal; phi sends a letter of N_m to its inner automorphism, and
F(b) has rank m - 1 >= 2, hence no center.  So w = 1 in P_m iff w with strand m deleted is 1
in P_(m-1) and phi_w is the identity.  The base P_2(RP2) has order 8 and maps onto Q8 by
``q8.FIBER_IMAGES``, read through Q8's action on its own units, ``q8.FIBER_COLUMNS``.
Nielsen's method is in Magnus-Karrass-Solitar 1966, ch. 3.

Words of F(b) are tuples of letters, 2t for b_t and 2t + 1 for its inverse; an automorphism
is its substitution, one word per letter.
"""

from __future__ import annotations

import functools

from . import FIBER_ALPHABET
from .atlas import _b_name, _rp2_alphabet
from .base import BraidkernelError, EnumerationError, Undecided
from .presentations import first_unequal
from .q8 import FIBER_COLUMNS
from .words import Word, free_reduce_letters, same_alphabet

# the most letters one level's substitutions write for one question: central tau_8 writes 7226
# at level 8, and tau_12 29020 at level 12
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


def _nielsen_inverse(subst) -> tuple[tuple[int, ...], ...]:
    """The inverse of the automorphism subst: its images, each with its expression in the
    images, are shortened by products with the others until each is one letter.  Raises
    BraidkernelError when no product shortens an image longer than one letter."""
    rank = len(subst) // 2
    basis = [[subst[2 * t], (2 * t,)] for t in range(rank)]  # [image, its expression]
    shortened = True
    while shortened:
        shortened = False
        for i, (w, e) in enumerate(basis):
            for j, (v, f) in enumerate(basis):
                if i == j:
                    continue
                for vv, ff in ((v, f), (_inverse(v), _inverse(f))):
                    for product, expr in (
                            (free_reduce_letters(w + vv), free_reduce_letters(e + ff)),
                            (free_reduce_letters(vv + w), free_reduce_letters(ff + e))):
                        if len(product) < len(w):
                            basis[i] = [w, e] = [product, expr]
                            shortened = True
    inverse = [None] * rank
    for w, e in basis:
        if len(w) != 1 or inverse[w[0] >> 1] is not None:
            raise BraidkernelError("Nielsen reduction left an automorphism's image unreduced")
        inverse[w[0] >> 1] = e if w[0] % 2 == 0 else _inverse(e)
    return _substitution(inverse)


class _Level:
    """Level m: phi_x for each generator x of P_m, indexed as the atlas alphabet, and the
    inverses, each built when a word first needs it."""

    def __init__(self, m: int):
        self.m = m
        alphabet = _rp2_alphabet(m)
        index = {name: i for i, name in enumerate(alphabet)}
        rank = m - 1
        rho = (2 * (m - 2),)
        # B_km for 1 <= k < m as a word in b, B_(m-1)m by family (c)
        bw = [None] + [(2 * (k - 1),) for k in range(1, m - 1)]
        inv, red = _inverse, free_reduce_letters
        bw.append(red(inv(tuple(range(0, 2 * (m - 2), 2))) + rho + rho))

        def inner(word):
            return _substitution(red(word + (2 * t,) + inv(word)) for t in range(rank))

        phi: list = [None] * len(alphabet)
        for k in range(1, m):
            phi[index[_b_name(k, m)]] = inner(bw[k])
        phi[index[f"rho{m}"]] = inner(rho)
        for k in range(1, m):  # families (d) and (b), j = m
            images = []
            for t in range(1, m - 1):
                if k < t:
                    images.append(bw[t])
                elif k == t:
                    images.append(red(inv(rho) + inv(bw[t]) + rho))
                else:
                    images.append(red(inv(rho) + inv(bw[k]) + rho + inv(bw[k]) + bw[t] + bw[k]
                                      + inv(rho) + bw[k] + rho))
            images.append(red(inv(rho) + inv(bw[k]) + rho + rho))
            phi[index[f"rho{k}"]] = _substitution(images)
        for r in range(1, m):  # family (a), j = m; B_rs fixes B_tm for s < t, and rho_m
            for s in range(r + 1, m):
                images = []
                for t in range(1, m - 1):
                    if t < r or s < t:
                        images.append(bw[t])
                    elif t == r:
                        images.append(red(inv(bw[s]) + bw[t] + bw[s]))
                    elif t < s:
                        images.append(red(inv(bw[s]) + inv(bw[r]) + bw[s] + bw[r] + bw[t]
                                          + inv(bw[r]) + inv(bw[s]) + bw[r] + bw[s]))
                    else:
                        images.append(red(inv(bw[t]) + inv(bw[r]) + bw[t] + bw[r] + bw[t]))
                images.append(rho)
                phi[index[_b_name(r, s)]] = _substitution(images)
        self.rank = rank
        self.phi = tuple(phi)
        self._inverses: dict[int, tuple] = {}

    def inverse(self, x: int):
        """phi_x^-1, by Nielsen reduction, built once."""
        if x not in self._inverses:
            self._inverses[x] = _nielsen_inverse(self.phi[x])
        return self._inverses[x]


@functools.lru_cache
def level(m: int) -> _Level:
    """Level m of the tower, 3 <= m, built once per process."""
    return _Level(m)


class Tower:
    """The word problem of the atlas P_n(RP2), n >= 3, level by level from Q8 up: words over
    ``atlas.pure_braid_rp2(n)``'s alphabet, read strand-deleted at each level m <= n.  At
    each level the substitutions write at most ``TOWER_MAX_LETTERS`` letters for one
    question; past them the level raises Undecided, which names it and the letters written.
    An unequal level decides even after an undecided one, as ``first_unequal`` has it."""

    def __init__(self, n: int):
        self.n = n
        self.alphabet = _rp2_alphabet(n)
        # per level m, the P_m index of each generator of P_n, None above strand m
        self._indices = {}
        # the FIBER_COLUMNS letter of each generator of P_2, None for the others
        q8 = {name: 2 * FIBER_ALPHABET.index(name) for name in _rp2_alphabet(2)}
        self._q8 = [q8.get(name) for name in self.alphabet]

    def _read(self, m: int, w: Word) -> list[tuple[int, int]]:
        """w with the strands above m deleted, over P_m's indices."""
        if m not in self._indices:
            index = {name: i for i, name in enumerate(_rp2_alphabet(m))}
            self._indices[m] = [index.get(name) for name in self.alphabet]
        indices = self._indices[m]
        return [(indices[gen], exp) for gen, exp in w.syllables if indices[gen] is not None]

    def _unit(self, w: Word, unit: int = 1) -> int:
        """The unit of Q8 that w, strand-deleted to P_2, carries unit to by FIBER_COLUMNS;
        the action is regular, so u = v in Q8 iff they carry 1 to the same unit."""
        for gen, exp in w.syllables:
            if (x := self._q8[gen]) is not None:
                column = FIBER_COLUMNS[x if exp > 0 else x + 1]
                for _ in range(abs(exp) % 4):  # every unit of Q8 has order dividing 4
                    unit = column[unit]
        return unit

    def _check(self, w: Word) -> None:
        if not same_alphabet(w.alphabet, self.alphabet):
            raise EnumerationError("words are not over the tower's alphabet")

    def _levels(self, test) -> bool:
        """Whether ``test(m)`` holds at every level m = 2 ... n (2 is Q8), the first level
        that fails deciding even after an undecided one."""
        levels = ((m, None) for m in range(2, self.n + 1))
        return first_unequal(lambda m, _: test(m), levels) is None

    def __call__(self, u: Word, v: Word) -> bool:
        """Whether u = v: at every level, phi_u = phi_v."""
        self._check(u)
        self._check(v)

        def equal(m):
            if m == 2:
                return self._unit(u) == self._unit(v)
            budget = _Budget(m)
            return _compose(level(m), self._read(m, u), budget) == _compose(
                level(m), self._read(m, v), budget)

        return self._levels(equal)

    def central(self, w: Word) -> bool:
        """Whether w is central: at every level, phi_w is composed once and commutes with
        phi_x for each generator x of P_m."""
        self._check(w)

        def commutes(m):
            if m == 2:  # w x and x w carry 1 to the same unit
                unit = self._unit(w)
                return all(FIBER_COLUMNS[x][unit] == self._unit(w, FIBER_COLUMNS[x][1])
                           for x in self._q8 if x is not None)
            lev, budget = level(m), _Budget(m)
            images = _compose(lev, self._read(m, w), budget)
            subst = _substitution(images)
            for phi in lev.phi:
                for t, image in enumerate(images):
                    if budget.apply(subst, phi[2 * t]) != budget.apply(phi, image):
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


def _compose(lev: _Level, syllables, budget: _Budget) -> list[tuple[int, ...]]:
    """The images of b under phi_w, w given by its syllables: each syllable's automorphism
    is applied to the images so far, the last syllable's first."""
    images = [(2 * t,) for t in range(lev.rank)]
    for gen, exp in reversed(syllables):
        subst = lev.phi[gen] if exp > 0 else lev.inverse(gen)
        for _ in range(abs(exp)):
            images = [budget.apply(subst, image) for image in images]
    return images
