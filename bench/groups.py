"""Group inputs and verdict models for the benchmark, written without braidkernel.

Presentations are produced as text: the pure braid groups of the
projective plane from the paper's four relation families, Coxeter
presentations of symmetric groups, the quaternion group and torus
lattice quotients.  Verdicts come from permutation models: a model maps
each generator to a tuple of permutations (one per component) and is
accepted only after every relator evaluates to the identity, so it is a
homomorphism.  A model whose image has the group's textbook order is an
isomorphism and decides every question; any other model can still prove
two words unequal or an element non-central.

Words are tuples of letters: generator g is letter 2g, its inverse 2g+1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

Letters = tuple[int, ...]


def free_reduce(word) -> Letters:
    out: list[int] = []
    for x in word:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word: Letters) -> Letters:
    return tuple(x ^ 1 for x in reversed(word))


def mul(*words: Letters) -> Letters:
    return free_reduce(itertools.chain.from_iterable(words))


def power(word: Letters, n: int) -> Letters:
    base = word if n >= 0 else inverse(word)
    return free_reduce(base * abs(n))


@dataclass
class Group:
    """A finite presentation held as letter words, printable in the CLI format."""

    name: str
    gens: list[str]
    relators: list[Letters] = field(default_factory=list)

    def __post_init__(self):
        self._index = {g: i for i, g in enumerate(self.gens)}

    def gen(self, name: str, exp: int = 1) -> Letters:
        x = 2 * self._index[name]
        return (x if exp > 0 else x ^ 1,) * abs(exp)

    def word(self, spec: str) -> Letters:
        """Words written as ``name`` or ``name^e`` terms separated by spaces."""
        out: list[int] = []
        for term in spec.split():
            name, _, exp = term.partition("^")
            out.extend(self.gen(name, int(exp) if exp else 1))
        return free_reduce(out)

    def relate(self, lhs: Letters, rhs: Letters):
        self.relators.append(mul(lhs, inverse(rhs)))

    def quotient(self, name: str, extra) -> "Group":
        return Group(name, list(self.gens), list(self.relators) + [free_reduce(w) for w in extra])

    def fmt(self, word: Letters) -> str:
        """Syllable form ``a^2*b^-1``; the identity prints as ``1``."""
        if not word:
            return "1"
        terms = []
        for x, run in itertools.groupby(word):
            e = len(list(run)) * (1 if x % 2 == 0 else -1)
            name = self.gens[x // 2]
            terms.append(name if e == 1 else f"{name}^{e}")
        return "*".join(terms)

    def text(self) -> str:
        lines = [f"group {self.name}", "gens " + " ".join(self.gens)]
        lines.extend(f"rel {self.fmt(r)}" for r in self.relators)
        return "\n".join(lines) + "\n"


# presentations ----------------------------------------------------------------

def b_name(i: int, j: int) -> str:
    return f"B{i}{j}" if i <= 9 and j <= 9 else f"B{i}_{j}"


def rp2_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def pure_braid_rp2(n: int) -> Group:
    """P_n(RP2): generators B_ij (i < j) and rho_k, relation families (a)-(d)."""
    pairs = rp2_pairs(n)
    g = Group(f"P{n}(RP2)", [b_name(i, j) for i, j in pairs] + [f"rho{k}" for k in range(1, n + 1)])

    def B(i, j, e=1):
        return g.gen(b_name(i, j), e)

    def rho(k, e=1):
        return g.gen(f"rho{k}", e)

    for r, s in pairs:  # (a) B_rs B_ij B_rs^-1
        for i, j in pairs:
            lhs = mul(B(r, s), B(i, j), B(r, s, -1))
            if i < r < s < j:
                g.relate(lhs, B(i, j))
            elif r < i == s < j:
                g.relate(lhs, mul(B(i, j, -1), B(r, j, -1), B(i, j), B(r, j), B(i, j)))
            elif i == r < s < j:
                g.relate(lhs, mul(B(s, j, -1), B(i, j), B(s, j)))
            elif r < i < s < j:
                g.relate(lhs, mul(B(s, j, -1), B(r, j, -1), B(s, j), B(r, j), B(i, j),
                                  B(r, j, -1), B(s, j, -1), B(r, j), B(s, j)))
    for i, j in pairs:  # (b)
        g.relate(mul(rho(i), rho(j), rho(i, -1)), mul(rho(j, -1), B(i, j, -1), rho(j, 2)))
    for i in range(1, n + 1):  # (c)
        g.relate(rho(i, 2), mul(*[B(a, i) for a in range(1, i)],
                                *[B(i, b) for b in range(i + 1, n + 1)]))
    for i, j in pairs:  # (d) rho_k B_ij rho_k^-1, k != j
        for k in range(1, n + 1):
            if k == j:
                continue
            lhs = mul(rho(k), B(i, j), rho(k, -1))
            if k < i or j < k:
                g.relate(lhs, B(i, j))
            elif k == i:
                g.relate(lhs, mul(rho(j, -1), B(i, j, -1), rho(j)))
            else:
                g.relate(lhs, mul(rho(j, -1), B(k, j, -1), rho(j), B(k, j, -1), B(i, j),
                                  B(k, j), rho(j, -1), B(k, j), rho(j)))
    return g


def tau(g: Group, n: int) -> Letters:
    """The paper's central element tau_n = prod_i B_i(i+1) ... B_in."""
    return mul(*[g.gen(b_name(i, j)) for i, j in rp2_pairs(n)])


def rp2_power_quotient(n: int, m: int) -> Group:
    g = pure_braid_rp2(n)
    return g.quotient(f"P{n}(RP2)/rho^{m}", [g.gen(f"rho{k}", m) for k in range(1, n + 1)])


def coxeter_symmetric(n: int) -> Group:
    """S_n on s_1..s_(n-1): s_i^2, (s_i s_(i+1))^3, (s_i s_j)^2 for |i-j| > 1."""
    g = Group(f"S{n}", [f"s{i}" for i in range(1, n)])
    for i in range(1, n):
        g.relators.append(g.gen(f"s{i}", 2))
    for i in range(1, n - 1):
        g.relators.append(power(mul(g.gen(f"s{i}"), g.gen(f"s{i + 1}")), 3))
    for i in range(1, n):
        for j in range(i + 2, n):
            g.relators.append(power(mul(g.gen(f"s{i}"), g.gen(f"s{j}")), 2))
    return g


def quaternion() -> Group:
    g = Group("Q8", ["rho1", "rho2"])
    g.relate(g.word("rho1^2"), g.word("rho2^2"))
    g.relators.append(g.word("rho1^4"))
    g.relate(g.word("rho1 rho2 rho1^-1"), g.word("rho2^-1"))
    return g


def torus_lattice(q: int, r: int) -> Group:
    """pi1(T2) / <a^q, b^r> = Z/q x Z/r."""
    g = Group(f"T2/<a^{q},b^{r}>", ["a", "b"])
    g.relators += [g.word("a b a^-1 b^-1"), g.gen("a", q), g.gen("b", r)]
    return g


# permutation models -------------------------------------------------------------

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def perm_power(p: Perm, e: int) -> Perm:
    if e < 0:
        p, e = perm_inverse(p), -e
    out = tuple(range(len(p)))
    while e:
        if e & 1:
            out = compose(out, p)
        p = compose(p, p)
        e >>= 1
    return out


_QUAT_UNITS = [(s * (a == 0), s * (a == 1), s * (a == 2), s * (a == 3))
               for s in (1, -1) for a in range(4)]


def _quat_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def quat_perm(unit: str) -> Perm:
    """Right multiplication by a unit quaternion (1, i, j, k, -1, -i, ...) on Q8."""
    sign = -1 if unit.startswith("-") else 1
    q = tuple(sign * (a == "1ijk".index(unit[-1])) for a in range(4))
    return tuple(_QUAT_UNITS.index(_quat_mul(u, q)) for u in _QUAT_UNITS)


def transposition(n: int, i: int) -> Perm:
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


class Model:
    """A homomorphism to a product of permutation groups, checked on every relator."""

    def __init__(self, group: Group, components: list[list[Perm]]):
        self.group = group
        self.components = [c for c in components if self._respects_relators(c)]

    def _respects_relators(self, images: list[Perm]) -> bool:
        ident = tuple(range(len(images[0])))
        return all(self._eval1(images, r) == ident for r in self.group.relators)

    @staticmethod
    def _eval1(images: list[Perm], word) -> Perm:
        out = tuple(range(len(images[0])))
        for x in word:
            p = images[x // 2]
            out = compose(out, p if x % 2 == 0 else perm_inverse(p))
        return out

    def value(self, word) -> tuple[Perm, ...]:
        return tuple(self._eval1(c, word) for c in self.components)

    def value_syllables(self, syllables) -> tuple[Perm, ...]:
        """Value of a word given as (generator index, exponent) pairs, for huge exponents."""
        out = []
        for images in self.components:
            p = tuple(range(len(images[0])))
            for gen, e in syllables:
                p = compose(p, perm_power(images[gen], e))
            out.append(p)
        return tuple(out)

    def is_identity(self, value) -> bool:
        return all(p == tuple(range(len(p))) for p in value)

    def commutes_with_generators(self, w) -> bool:
        val = self.value(w)
        for g in range(len(self.group.gens)):
            gv = self.value((2 * g,))
            if tuple(compose(a, b) for a, b in zip(val, gv)) != \
                    tuple(compose(b, a) for a, b in zip(val, gv)):
                return False
        return True

    def image_order(self, cap: int) -> int:
        """Order of the image group by closure, stopping past ``cap``."""
        gens = [self.value((2 * g,)) for g in range(len(self.group.gens))]
        start = tuple(tuple(range(len(c[0]))) for c in self.components)
        seen = {start}
        frontier = [start]
        while frontier and len(seen) <= cap:
            nxt = []
            for el in frontier:
                for gv in gens:
                    prod = tuple(compose(a, b) for a, b in zip(el, gv))
                    if prod not in seen:
                        seen.add(prod)
                        nxt.append(prod)
            frontier = nxt
        return len(seen)


def faithful_model(group: Group, components: list[list[Perm]], order: int) -> Model:
    """A model whose image has the group's textbook order, so it is an isomorphism."""
    model = Model(group, components)
    if len(model.components) != len(components) or model.image_order(order) != order:
        raise AssertionError(f"{group.name}: model is not faithful of order {order}")
    return model


def symmetric_model(g: Group, n: int) -> Model:
    return faithful_model(g, [[transposition(n, i) for i in range(n - 1)]], math.factorial(n))


def quaternion_model(g: Group) -> Model:
    return faithful_model(g, [[quat_perm("i"), quat_perm("j")]], 8)


def lattice_model(g: Group, q: int, r: int) -> Model:
    a = tuple(((x // r + 1) % q) * r + x % r for x in range(q * r))
    b = tuple((x // r) * r + (x % r + 1) % r for x in range(q * r))
    return faithful_model(g, [[a, b]], q * r)


def p2_model(g: Group) -> Model:
    """P2(RP2) = Q8 (order 8): B12 -> -1, rho1 -> i, rho2 -> j."""
    return faithful_model(g, [[quat_perm(u) for u in ("-1", "i", "j")]], 8)


def rp2_models(g: Group, n: int) -> Model:
    """Candidate homomorphisms of P_n(RP2) (or a quotient) for proving inequality.

    For each strand pair a < b: B_ab -> -1, rho_a -> i, rho_b -> j in Q8,
    every other generator -> 1 (forgetting the other strands, then
    P2(RP2) = Q8).  Plus the characters onto Z/2 that kill every relator.
    Candidates that fail a relator are dropped by ``Model``.
    """
    comps = []
    for a, b in rp2_pairs(n):
        images = []
        for name in g.gens:
            images.append(quat_perm({b_name(a, b): "-1", f"rho{a}": "i",
                                     f"rho{b}": "j"}.get(name, "1")))
        comps.append(images)
    flip, ident = (1, 0), (0, 1)
    for bits in _z2_characters(g):
        comps.append([flip if bit else ident for bit in bits])
    return Model(g, comps)


def _z2_characters(g: Group) -> list[list[int]]:
    """A basis of the homomorphisms g -> Z/2, by elimination mod 2."""
    ngens = len(g.gens)
    rows = []
    for r in g.relators:
        row = [0] * ngens
        for x in r:
            row[x // 2] ^= 1
        rows.append(row)
    pivots = []
    rank = 0
    for col in range(ngens):
        pr = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                rows[k] = [a ^ b for a, b in zip(rows[k], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(ngens) if c not in pivots):
        vec = [0] * ngens
        vec[free] = 1
        for k, col in enumerate(pivots):
            vec[col] = rows[k][free]
        basis.append(vec)
    return basis


# abelian invariants ---------------------------------------------------------------

def abelian_invariants(g: Group) -> tuple[int, list[int]]:
    """(rank, torsion) of the abelianization, by an integer Smith normal form."""
    ngens = len(g.gens)
    mat = []
    for r in g.relators:
        row = [0] * ngens
        for x in r:
            row[x // 2] += 1 if x % 2 == 0 else -1
        mat.append(row)
    diag = _smith_diagonal(mat, ngens)
    torsion = [d for d in diag if d > 1]
    return ngens - sum(1 for d in diag if d), torsion


def _smith_diagonal(mat: list[list[int]], ncols: int) -> list[int]:
    a = [row[:] for row in mat if any(row)]
    diag = []
    while a and any(any(row) for row in a):
        # move a smallest nonzero entry to the corner
        i, j = min(((i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v),
                   key=lambda ij: abs(a[ij[0]][ij[1]]))
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        done = True
        for i in range(1, len(a)):
            f = a[i][0] // p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[0])]
            done &= a[i][0] == 0
        for j in range(1, len(a[0])):
            f = a[0][j] // p
            if f:
                for row in a:
                    row[j] -= f * row[0]
            done &= a[0][j] == 0
        if not done:
            continue
        if any(x % p for row in a[1:] for x in row[1:]):
            k = next(i for i in range(1, len(a)) if any(x % p for x in a[i][1:]))
            a[0] = [x + y for x, y in zip(a[0], a[k])]
            continue
        diag.append(abs(p))
        a = [row[1:] for row in a[1:] if any(row[1:])]
    diag.sort()
    return diag
