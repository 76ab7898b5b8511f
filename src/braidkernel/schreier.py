"""Index-2 witnesses: exact "not equal" answers from the kernels of maps
onto Z/2.

A map G -> Z/2 gives each generator a bit; it is a homomorphism iff every
relator has even weight (the sum of its exponents on the generators with
bit 1), so the maps are the mod-2 null space of the relator matrix.  Its
kernel K has index 2: the stabiliser of coset 1 when each generator with
bit 1 swaps cosets 1 and 2, which ``reidemeister`` presents.  A word read
from a coset gives its exponent-sum vector over K's Schreier generators,
and the relators read from both cosets give the relation rows of H1(K).

Two words u and v differ in G when u v^-1 has odd weight under some map,
or when it lies in K and its vector is nonzero in H1(K).  The Smith
normal form left * rows * right = D then gives a functional: column j of
``right``, modulo the invariant factor d_j (0: the integers), kills every
row and not the vector.  ``check_witness`` confirms a certificate from the
presentation alone, with no Smith normal form.  The word problem of
P3(RP2) through its free fiber is in ``fiber``.
"""

from __future__ import annotations

from itertools import islice

from . import snf
from .base import EnumerationError, record
from .presentations import Presentation
from .reidemeister import SchreierPresentation, reidemeister_schreier, trace
from .words import Word

# The kernels ``find_witness`` tries for one pair: the first maps in the
# order of ``kernel_maps``.  All 7 of P3(RP2) and all 15 of P4(RP2) fit;
# P8(RP2) has 255 maps, and trying 31 of them takes about 0.08 s (2-core Xeon).
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


def _kernel(p: Presentation, mask: int) -> SchreierPresentation:
    """The kernel of a map: the stabiliser of coset 1 when each generator
    with bit 1 swaps cosets 1 and 2.  Reidemeister-Schreier runs over no
    relators; ``_rows`` reads them as exponent sums, per syllable."""
    cols = [(0, 2, 1) if mask >> (x >> 1) & 1 else (0, 1, 2) for x in range(2 * p.ngens)]
    return reidemeister_schreier(Presentation(p.name, p.alphabet, ()), cols)


def _sums(sp: SchreierPresentation, w: Word) -> tuple[list[int], list[int]]:
    """The exponent sums over the Schreier generators of w read from coset 1
    and from coset 2.  Swapping the cosets commutes with the action, so one
    walk gives both: the read from coset 2 is the one from 1, swapped."""
    one, two, edges = [0] * sp.ngens, [0] * sp.ngens, sp.edges
    for x, cycle, q, r in trace(sp.cols, w)[1]:
        edge = edges[x]
        for c in cycle:
            n = q + (r > 0)  # the reads of x at c
            if (s := edge[c]) >= 0:
                one[s >> 1] += -n if s & 1 else n
            if (s := edge[c ^ 3]) >= 0:
                two[s >> 1] += -n if s & 1 else n
            r -= 1
    return one, two


def _rows(p: Presentation, sp: SchreierPresentation) -> list[list[int]]:
    """The nonzero relation rows of H1 of the kernel: each relator read from both cosets."""
    return [row for rel in p.relators for row in _sums(sp, rel) if any(row)]


def _combine(a: int, u: dict[int, int], b: int, v: dict[int, int]) -> dict[int, int]:
    """a u + b v for sparse rows (column -> nonzero entry)."""
    out = dict(u) if a == 1 else {k: a * x for k, x in u.items()} if a else {}
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
    """A certificate that u != v in G, or None when neither the maps onto Z/2 nor the first
    ``MAX_KERNELS`` of their kernels separate u and v (which proves nothing); words over
    another alphabet raise EnumerationError.  ``check_witness`` confirms what this returns."""
    if {u.alphabet, v.alphabet} != {p.alphabet}:
        raise EnumerationError("words are not over the presentation's alphabet")
    w = u * v.inverse()
    # the maps are linear, so one separates u and v iff a basis vector does
    for mask in _null_space(p):
        if _parity(w, mask):
            return Witness(_bits(p, mask))
    for mask in islice(kernel_maps(p), MAX_KERNELS):
        sp = _kernel(p, mask)
        vec = _sums(sp, w)[0]
        if not any(vec):
            continue
        basis = _echelon(_rows(p, sp))
        if _in_lattice(vec, basis):
            continue
        n = sp.ngens
        diag, _, right = snf.smith_normal_form(
            [[basis[j].get(k, 0) for k in range(n)] for j in sorted(basis)] or [[0] * n])
        image = [sum(x * right[i][j] for i, x in enumerate(vec)) for j in range(n)]
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
    sp = _kernel(p, mask)
    if parity or not isinstance(m, int) or m < 0 or m == 1 or len(f) != sp.ngens:
        return False

    def zero(vec):
        total = sum(a * b for a, b in zip(f, vec))
        return total % m == 0 if m else total == 0

    return all(map(zero, _rows(p, sp))) and not zero(_sums(sp, w)[0])


def witness_json(p: Presentation, witness: Witness) -> dict:
    """The certificate as ``equal --json`` prints it."""
    out = {"map": list(witness.bits)}
    if witness.functional is not None:
        edges = _kernel(p, _mask(witness.bits)).edges  # its generators, coset-major
        out["schreier_generators"] = [[c - 1, p.alphabet[g]] for c in (1, 2)
                                      for g in range(p.ngens) if edges[2 * g][c] >= 0]
        out["functional"] = list(witness.functional)
        out["modulus"] = witness.modulus
    return out

