"""The strand-forgetting tower (``tower``): the facts about the atlas presentations that make
it exact, checked at every level the answer chain admits (4 <= n <= RP2_MAX_STRANDS, and
level 3 below them), a broken level failing them, agreement with the other engines, and the
CLI answers it gives."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import braidkernel
from braidkernel import (
    forget_strands_hom, hom_check, parse_presentation, pure_braid_rp2, quotient, tau_n,
    todd_coxeter,
)
from braidkernel import FIBER_ALPHABET, fiber, tower
from braidkernel.atlas import RP2_MAX_STRANDS, _b_name, _rp2_alphabet
from braidkernel.base import Undecided
from braidkernel.cli import run
from braidkernel.commands.chain import tower_strands
from braidkernel.presentations import GroupHom, Presentation
from braidkernel.q8 import FIBER_COLUMNS
from braidkernel.schreier import find_witness
from braidkernel.words import Word, letters_to_word, word_to_letters

LEVELS = range(3, RP2_MAX_STRANDS + 1)
GATED = range(4, RP2_MAX_STRANDS + 1)


def identity(lev):
    return [(2 * t,) for t in range(lev.rank)]


def compose(lev, syllables):
    return tower._compose(lev, syllables, tower._Budget(lev.m))


def check_1(lev, relators):
    """The first relator r with phi_r not the identity, or None.  r = u v is checked as
    phi_u = phi_(v^-1), which keeps the images half as long."""
    for r in relators:
        half = len(r.syllables) // 2
        if compose(lev, r.syllables[:half]) != compose(
                lev, Word(r.alphabet, r.syllables[half:]).inverse().syllables):
            return r
    return None


def canonical(letters):
    """A cyclic word's least rotation, of it or of its inverse."""
    inverse = [z ^ 1 for z in reversed(letters)]
    return min(tuple(w[i:] + w[:i]) for w in (letters, inverse) for i in range(len(w) or 1))


def cyclic_letters(letters):
    """The letters freely and cyclically reduced."""
    out = []
    for z in letters:
        if out and out[-1] == z ^ 1:
            out.pop()
        else:
            out.append(z)
    while len(out) > 1 and out[0] == out[-1] ^ 1:
        out = out[1:-1]
    return out


def check_2(relators, m):
    """Whether deleting N_m's letters from P_m's relators leaves exactly P_(m-1)'s relators,
    as cyclic words up to inversion."""
    below = _rp2_alphabet(m - 1)
    index = {name: i for i, name in enumerate(below)}
    deleted = set()
    for r in relators:
        letters = [2 * index[name] + (z & 1) for z in word_to_letters(r)
                   if (name := r.alphabet[z >> 1]) in index]
        if letters := cyclic_letters(letters):
            deleted.add(canonical(letters))
    return deleted == {canonical(list(word_to_letters(r)))
                       for r in pure_braid_rp2(m - 1).relators}


def as_generators(m, word):
    """A word of F(b) written over P_m's generators: b_t is B_(t+1)m, the last rho_m."""
    names = [_b_name(t, m) for t in range(1, m - 1)] + [f"rho{m}"]
    index = {name: i for i, name in enumerate(_rp2_alphabet(m))}
    return [2 * index[names[z >> 1]] + (z & 1) for z in word]


def check_3(lev, relators):
    """Whether the relations the images are read from are relators: rho_m^2 = B_1m ...
    B_(m-1)m, and rho_k y rho_k^-1 = phi_rho_k(y) for k < m and each letter y of b, once
    B_(m-1)m is written by family (c)."""
    m = lev.m
    index = {name: i for i, name in enumerate(_rp2_alphabet(m))}
    last = index[_b_name(m - 1, m)]
    expression = as_generators(m, tuple(2 * t + 1 for t in reversed(range(m - 2)))
                               + (2 * (m - 2),) * 2)
    family_c = [2 * index[f"rho{m}"]] * 2 + [2 * index[_b_name(k, m)] + 1
                                             for k in reversed(range(1, m))]
    have = {canonical(list(word_to_letters(r))) for r in relators}
    if canonical(cyclic_letters(family_c)) not in have:
        return False
    written = set()
    for r in relators:
        letters = []
        for z in word_to_letters(r):
            if z >> 1 == last:
                letters += expression if z % 2 == 0 else [y ^ 1 for y in reversed(expression)]
            else:
                letters.append(z)
        written.add(canonical(cyclic_letters(letters)))
    for k in range(1, m):
        rho_k = 2 * index[f"rho{k}"]
        phi = lev.phi[index[f"rho{k}"]]
        for t in range(lev.rank):
            image = as_generators(m, phi[2 * t])
            relation = [rho_k, *as_generators(m, (2 * t,)), rho_k ^ 1,
                        *(y ^ 1 for y in reversed(image))]
            if canonical(cyclic_letters(relation)) not in written:
                return False
    return True


def test_the_base_is_q8():
    # P2(RP2) has order 8, its relators carry unit 1 to itself through FIBER_COLUMNS, and
    # its generators' columns reach all 8 units from 1
    p2 = pure_braid_rp2(2)
    assert todd_coxeter(p2).n_cosets == 8
    t = tower.Tower(2)
    assert all(t._unit(r) == 1 for r in p2.relators)
    units, frontier = {1}, [1]
    while frontier:
        unit = frontier.pop()
        for x in t._q8:
            if (v := FIBER_COLUMNS[x][unit]) not in units:
                units.add(v)
                frontier.append(v)
    assert len(units) == 8
    assert [FIBER_ALPHABET.index(name) for name in _rp2_alphabet(2)] == [0, 3, 4]


@pytest.mark.parametrize("m", LEVELS)
def test_the_checks_hold_at_every_level(m):
    lev, p = tower.level(m), pure_braid_rp2(m)
    assert check_1(lev, p.relators) is None
    assert check_2(p.relators, m)
    assert check_3(lev, p.relators)
    # each phi_x is onto: phi_x after its Nielsen inverse is the identity
    for x, phi in enumerate(lev.phi):
        inverse = lev.inverse(x)
        assert [tower._apply(phi, inverse[2 * t])[0] for t in range(lev.rank)] == identity(lev)
        assert [tower._apply(inverse, phi[2 * t])[0] for t in range(lev.rank)] == identity(lev)


def test_the_family_a_pattern_the_atlas_leaves_out_holds():
    # B_rs and B_ij commute for r < s < i < j: no atlas relator says so, and the tower proves it
    p, t = pure_braid_rp2(5), tower.Tower(5)
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    for (r, s), (i, j) in ((a, b) for a in pairs for b in pairs if a[1] < b[0]):
        x, y = p.gen(_b_name(r, s)), p.gen(_b_name(i, j))
        assert t(x * y, y * x)


def test_an_edited_image_fails_check_1(monkeypatch):
    # B12 sends B14 to B14 rho4 instead: no longer a homomorphism, and tau_4 stops commuting
    lev, p = tower._Level(4), pure_braid_rp2(4)
    x = p.alphabet.index("B12")
    phi = list(lev.phi[x])
    phi[0], phi[1] = phi[0] + (4,), (5,) + phi[1]
    lev.phi = (*lev.phi[:x], tuple(phi), *lev.phi[x + 1:])
    assert check_1(lev, p.relators) is not None
    assert tower.Tower(4).central(tau_n(4))
    monkeypatch.setattr(tower, "level", {3: tower.level(3), 4: lev}.get)
    assert not tower.Tower(4).central(tau_n(4))


@pytest.mark.parametrize("relation,failing", [
    ("rho1 rho2 rho1^-1 = rho2^-1 B12^-1 rho2^2", "check 2"),  # family (b) below strand 4
    ("rho4^2 = B14 B24 B34", "check 3"),  # family (c) at i = 4
    ("rho2 B14 rho2^-1 = rho4^-1 B24^-1 rho4 B24^-1 B14 B24 rho4^-1 B24 rho4", "check 3"),
    ("rho3 rho4 rho3^-1 = rho4^-1 B34^-1 rho4^2", "check 3"),  # family (b) at j = 4
], ids=["b-below", "c-top", "d-top", "b-top"])
def test_a_dropped_relator_fails_a_check(relation, failing):
    p = pure_braid_rp2(4)
    lhs, rhs = (p.word(side) for side in relation.split(" = "))
    drop = canonical(cyclic_letters(list(word_to_letters(lhs * rhs.inverse()))))
    kept = tuple(r for r in p.relators if canonical(list(word_to_letters(r))) != drop)
    assert len(kept) == len(p.relators) - 1
    lev = tower.level(4)
    assert check_1(lev, kept) is None  # fewer relators to kill
    assert {"check 2": check_2(kept, 4), "check 3": check_3(lev, kept)} == {
        "check 2": failing != "check 2", "check 3": failing != "check 3"}


def random_word(rng, p, length):
    return letters_to_word(p.alphabet, [rng.randrange(2 * p.ngens) for _ in range(length)])


def insert_relator(rng, p, w):
    """w with a conjugate of a relator (or its inverse) inserted at a random point."""
    letters = list(word_to_letters(w))
    r = rng.choice(p.relators)
    c = random_word(rng, p, rng.randrange(4))
    i = rng.randrange(len(letters) + 1)
    return letters_to_word(p.alphabet, letters[:i]) * c * (
        r if rng.random() < 0.5 else r.inverse()) * c.inverse() * letters_to_word(
        p.alphabet, letters[i:])


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 12), st.booleans())
def test_level_3_agrees_with_the_fiber(rng, length, inserted):
    # built directly, past the chain's gate, which admits n >= 4 only
    p3 = pure_braid_rp2(3)
    u = random_word(rng, p3, length)
    v = insert_relator(rng, p3, u) if inserted else random_word(rng, p3, length)
    assert tower.Tower(3)(u, v) == fiber.fiber_oracle(p3)(u, v)
    if inserted:
        assert tower.Tower(3)(u, v)


@pytest.mark.parametrize("n", [4, 5])
def test_no_witness_separates_what_the_tower_calls_equal(n):
    p, rng = pure_braid_rp2(n), random.Random(n)
    t = tower.Tower(n)
    for _ in range(6):
        u = random_word(rng, p, rng.randint(2, 8))
        v = insert_relator(rng, p, u)  # relator-conjugate: equal
        assert t(u, v) and find_witness(p, u, v) is None
        a, b = random_word(rng, p, 3), random_word(rng, p, 3)
        commutator = a * b * a.inverse() * b.inverse()
        one = Word.identity(p.alphabet)
        if t(commutator, one):  # else a witness may or may not separate them
            assert find_witness(p, commutator, one) is None


def cli(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("n", GATED)
def test_central_tau_is_decided_for_every_n_the_gate_admits(capsys, monkeypatch, n):
    text = braidkernel.format_presentation(pure_braid_rp2(n))
    argv = ["central", "--element", "tau", "--max-cosets", "1000", "--json"]
    code, out, err = cli(capsys, monkeypatch, argv, text)
    assert (code, err, '"engine": "tower"' in out, '"central": true' in out) == (0, "", True, True)
    code, out, _ = cli(capsys, monkeypatch, ["central", "--element", "rho1 B12"], text)
    assert (code, out) == (1, "rho1*B12 is not central\n")


def map_file(n, m, broken=False):
    h = forget_strands_hom(n, m)
    images = {g: braidkernel.format_word(w) for g, w in zip(h.source.alphabet, h.images)}
    if broken:
        images["rho1"] = "rho1 B12"
    return (f"begin source\n{braidkernel.format_presentation(h.source)}end\n"
            f"begin target\n{braidkernel.format_presentation(h.target)}end\n"
            + "".join(f"send {g} = {w}\n" for g, w in images.items()))


@pytest.mark.parametrize("n,m", [(n, m) for n in range(5, 9) for m in range(4, n)])
def test_forgetting_maps_into_p4_and_up_verify(capsys, monkeypatch, tmp_path, n, m):
    path = tmp_path / "forget.hom"
    path.write_text(map_file(n, m))
    assert cli(capsys, monkeypatch, ["hom-check", "--map", str(path)]) == (0, "verified\n", "")
    path.write_text(map_file(n, m, broken=True))
    source = pure_braid_rp2(n)
    h = forget_strands_hom(n, m)
    h = GroupHom(h.source, h.target, tuple(
        h.target.word("rho1 B12") if g == "rho1" else w for g, w in zip(source.alphabet, h.images)))
    # the first relator the broken map fails, found by the tower pair by pair
    t, one = tower.Tower(m), Word.identity(h.target.alphabet)
    first = next(i for i, r in enumerate(source.relators)
                 if not t(braidkernel.substitute(h, r), one))
    assert cli(capsys, monkeypatch, ["hom-check", "--json", "--map", str(path)])[0] == 1
    assert cli(capsys, monkeypatch, ["hom-check", "--map", str(path)]) == (
        1, f"failed at relator {first}\n", "")
    assert hom_check(h, t).relator_index == first


def test_the_gate_admits_only_the_atlas_group():
    for n in GATED:
        assert tower_strands(pure_braid_rp2(n)) == n
    p4 = pure_braid_rp2(4)
    assert tower_strands(pure_braid_rp2(3)) is None  # the fiber's group
    assert tower_strands(quotient(p4, [p4.word("rho1^6")])) is None
    assert tower_strands(Presentation(p4.name, p4.alphabet, p4.relators[1:])) is None
    renamed = parse_presentation(braidkernel.format_presentation(p4).replace("rho4", "rho5"))
    assert tower_strands(renamed) is None
    assert tower_strands(parse_presentation("group T\ngens\n")) is None


def test_the_budget_names_the_level_and_the_letters(monkeypatch):
    p4 = pure_braid_rp2(4)
    monkeypatch.setattr(tower, "TOWER_MAX_LETTERS", 20)
    w = p4.word("rho1 rho2 rho3") ** 4
    with pytest.raises(Undecided, match=r"^the tower wrote \d+ letters at level 3, over its 20$"):
        tower.Tower(4)(w, w.inverse())
    # a level that proves two words unequal decides after an undecided one
    apply = tower._Budget.apply

    def undecided_at_3(budget, subst, word):
        if budget.m == 3:
            raise Undecided("level 3")
        return apply(budget, subst, word)

    monkeypatch.setattr(tower._Budget, "apply", undecided_at_3)
    one = Word.identity(p4.alphabet)
    assert tower.Tower(4)(p4.word("B14"), one) is False
    assert tower.Tower(4).central(p4.word("B14")) is False
    with pytest.raises(Undecided, match="^level 3$"):
        tower.Tower(4)(p4.word("B14 rho1"), p4.word("B14 rho1"))
