"""Free-group word arithmetic over named generator alphabets.

An alphabet is a tuple of generator names: generator i is the name at
position i.  Words are stored as normalized syllable lists: sequences of
(generator index, exponent) pairs with nonzero exponents and no two
adjacent syllables on the same generator.  The empty sequence is the
identity.  Exponents are plain Python ints, so large powers cost one
syllable.

Letter-level views (one entry per generator or inverse-generator
occurrence) are provided for the enumeration and rewriting engines.
Letter numbering: generator i is letter 2*i, its inverse is 2*i+1, so
``x ^ 1`` inverts a letter and generators precede their inverses in
alphabet order.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from .base import BraidkernelError, Undecided, record

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?[0-9]+")
# parse_word's tokens: whitespace, '*', a term (a '^' and its exponent, if any), or one
# other character, which an empty match stands for
_TOKEN_RE = re.compile(r"(\s+)|(\*)|([A-Za-z][A-Za-z0-9_]*)(?:(\^)([+-]?[0-9]+)?)?|(?=.)")

# the most letters word_to_letters expands, and the most syllables a power repeats
MAX_LETTERS = 10**7


class WordError(BraidkernelError):
    """Malformed word text, bad symbol, or alphabet mismatch."""


Alphabet = tuple[str, ...]


def make_alphabet(names: Iterable[str]) -> Alphabet:
    """Build an alphabet from generator names: each must match the word
    grammar's name rule, and no name may repeat."""
    alphabet = tuple(names)
    seen = set()
    for name in alphabet:
        if not _NAME_RE.fullmatch(name):
            raise WordError(f"invalid generator name {name!r}")
        if name in seen:
            raise WordError(f"duplicate generator name {name!r}")
        seen.add(name)
    return alphabet


@record
class Word:
    """A freely reduced word over a fixed alphabet."""

    alphabet: Alphabet
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = len(self.alphabet)
        prev = -1
        for gen, exp in self.syllables:
            if not 0 <= gen < n:
                raise WordError(f"generator index {gen} out of range")
            if exp == 0:
                raise WordError("zero exponent in syllable")
            if gen == prev:
                raise WordError("adjacent syllables share a generator")
            prev = gen

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def from_syllables(cls, alphabet: Alphabet, raw: Iterable[tuple[int, int]]) -> "Word":
        """The reduced word of raw in one checking pass: a stack merge (``last`` is the top's
        generator) pushes a nonzero syllable, its generator checked, onto another generator."""
        n, out, last = len(alphabet), [], None
        for gen, exp in raw:
            if gen == last:
                if merged := out.pop()[1] + exp:
                    out.append((gen, merged))
                else:
                    last = out[-1][0] if out else None
            elif exp:
                if not 0 <= gen < n:
                    raise WordError(f"generator index {gen} out of range")
                out.append((gen, exp))
                last = gen
        return join_reduced(alphabet, (tuple(out),))

    @classmethod
    def generator(cls, alphabet: Alphabet, index: int, exponent: int = 1) -> "Word":
        return cls.from_syllables(alphabet, [(index, exponent)])

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def letter_length(self) -> int:
        return sum(abs(exp) for _, exp in self.syllables)

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple((g, -e) for g, e in reversed(self.syllables)))

    def __mul__(self, other: "Word") -> "Word":
        _require_same_alphabet(self, other)
        return join_reduced(self.alphabet, (self.syllables, other.syllables))

    def __pow__(self, n: int) -> "Word":
        # conjugator * core^n * conjugator^-1, normalized in one pass:
        # a one-syllable core becomes one syllable, and a longer core
        # repeats with at most one merge per seam, so the cost is linear
        # in the output's syllable count, which MAX_LETTERS bounds
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Word.identity(self.alphabet)
        if n == 1:
            return self
        if n == -1:
            return self.inverse()
        core, conjugator = cyclic_reduce(self if n > 0 else self.inverse())
        if len(core.syllables) == 1:
            gen, exp = core.syllables[0]
            middle = ((gen, exp * abs(n)),)
        elif (count := len(core.syllables) * abs(n)) > MAX_LETTERS:
            raise Undecided(f"a power of {count} syllables is over the {MAX_LETTERS}-letter "
                            "expansion limit")
        else:
            middle = core.syllables * abs(n)
        return Word.from_syllables(
            self.alphabet,
            conjugator.syllables + middle + conjugator.inverse().syllables)

    def __str__(self):
        return format_word(self)


def join_reduced(alphabet: Alphabet, parts: Iterable[tuple[tuple[int, int], ...]]) -> Word:
    """The product of freely reduced syllable tuples over alphabet.

    Each part is reduced already, so syllables merge or cancel only at a
    junction: the seam is worked syllable by syllable while it cancels
    completely, and the rest of both sides is sliced and joined whole.
    The result is reduced by construction, and is not validated again.
    """
    out: tuple[tuple[int, int], ...] = ()
    for part in parts:
        i, k, end, seam = len(out), 0, len(part), ()
        while i and k < end and out[i - 1][0] == part[k][0]:
            exp = out[i - 1][1] + part[k][1]
            i -= 1
            k += 1
            if exp:
                seam = ((part[k - 1][0], exp),)
                break
        out = out[:i] + seam + part[k:]
    w = object.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "syllables", out)
    return w


def _require_same_alphabet(u: Word, v: Word):
    if u.alphabet is not v.alphabet and u.alphabet != v.alphabet:
        raise WordError("words belong to different alphabets")


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conjugator * core * conjugator^-1 with core cyclically reduced.

    Works per syllable: matching end syllables (same generator, opposite
    signs) are peeled by the smaller of their two exponents at a time.
    """
    sylls = list(w.syllables)
    peeled: list[tuple[int, int]] = []
    i, j = 0, len(sylls) - 1
    while i < j and sylls[i][0] == sylls[j][0] and sylls[i][1] * sylls[j][1] < 0:
        gen, a = sylls[i]
        b = sylls[j][1]
        step = min(abs(a), abs(b)) * (1 if a > 0 else -1)
        peeled.append((gen, step))
        sylls[i], sylls[j] = (gen, a - step), (gen, b + step)
        if a == step:
            i += 1
        if b == -step:
            j -= 1
    core = Word(w.alphabet, tuple(sylls[i:j + 1]))
    return core, Word.from_syllables(w.alphabet, peeled)


# letter-level view -------------------------------------------------------

def word_to_letters(w: Word) -> tuple[int, ...]:
    """One letter per generator or inverse occurrence; raises Undecided,
    before it allocates, for a word over MAX_LETTERS letters."""
    if (length := w.letter_length) > MAX_LETTERS:
        raise Undecided(f"a word of {length} letters is over the {MAX_LETTERS}-letter "
                        "expansion limit")
    out: list[int] = []
    for gen, exp in w.syllables:
        out.extend([2 * gen + (exp < 0)] * abs(exp))
    return tuple(out)


def read_syllable(col, m: int, c: int) -> tuple[list[int], int, int, int]:
    """x^m read from coset c through x's column ``col`` (0 where undefined):
    (cycle, q, r, end), x being read from each coset of ``cycle`` q times over,
    then from its first r.  The walk stops back at c, at a gap or after m steps,
    so it costs at most one cycle whatever m is; ``end`` is 0 after a gap."""
    cycle = [c]
    while (d := col[cycle[-1]]) != c and d and len(cycle) < m:
        cycle.append(d)
    q, r = divmod(m, len(cycle))
    return cycle, q, r, cycle[r] if d == c else d


def letters_to_word(alphabet: Alphabet, letters: Sequence[int]) -> Word:
    sylls = [(x >> 1, 1 if x % 2 == 0 else -1) for x in letters]
    return Word.from_syllables(alphabet, sylls)


def free_reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == x ^ 1:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# ordering ----------------------------------------------------------------

def shortlex_compare(u: Word, v: Word) -> int:
    """Shortlex comparison on letter expansions: -1, 0 or 1.

    The letter order is fixed, g0 < g0^-1 < g1 < g1^-1 < ..., the order
    of the letter ids and of Knuth-Bendix completion.
    """
    _require_same_alphabet(u, v)
    lu, lv = word_to_letters(u), word_to_letters(v)
    ku, kv = (len(lu), lu), (len(lv), lv)
    return (ku > kv) - (ku < kv)


# text form ---------------------------------------------------------------

# id(alphabet) -> (alphabet, its name lookup); holding the alphabet keeps its id from reuse
_LOOKUPS: dict[int, tuple[Alphabet, dict[str, int]]] = {}


def _name_lookup(alphabet: Alphabet) -> dict[str, int]:
    # generator name -> index, built once per alphabet rather than per
    # word: a presentation's relators all share its alphabet.  It is found by
    # the alphabet's identity, since hashing the tuple walks every name
    if (hit := _LOOKUPS.get(id(alphabet))) is None:
        if len(_LOOKUPS) == 64:
            del _LOOKUPS[next(iter(_LOOKUPS))]  # the oldest
        hit = _LOOKUPS[id(alphabet)] = alphabet, {name: i for i, name in enumerate(alphabet)}
    return hit[1]


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the word grammar: ``"1"`` or ``name(^int)?`` terms joined by
    ``*`` or whitespace.  Errors report the offending position."""
    lookup = _name_lookup(alphabet)
    if text.strip() == "1":
        return Word.identity(alphabet)
    # a well-formed word splits into its terms at '*' and whitespace by str methods;
    # other text is scanned token by token below, which says where it is malformed
    parts = text.split("*")
    terms = [term.partition("^") for part in parts for term in part.split()]
    if all(map(str.strip, parts)) and all(
            name in lookup and (not caret or _INT_RE.fullmatch(exp)) for name, caret, exp in terms):
        try:
            sylls = [(lookup[name], int(exp) if caret else 1) for name, caret, exp in terms]
        except ValueError:  # more digits than the interpreter converts: the scan says where
            pass
        else:
            return Word.from_syllables(alphabet, sylls)
    sylls = []
    have_term = False     # at least one term parsed
    separated = True      # a separator (or the start) precedes the token
    star_pending = False  # a '*' was seen and now requires a term
    for m in _TOKEN_RE.finditer(text):
        space, star, name, caret, exp = m.groups()
        i = m.start()
        if space:
            separated = True
        elif star:
            if not have_term or star_pending:
                raise WordError(f"unexpected '*' at position {i}")
            separated = star_pending = True
        elif not name:
            raise WordError(f"expected generator name at position {i}")
        else:
            if have_term and not separated:
                raise WordError(f"missing separator before position {i}")
            if name not in lookup:
                raise WordError(f"unknown generator {name!r} at position {i}")
            if caret and not exp:
                raise WordError(f"malformed exponent at position {m.end(4)}")
            try:
                sylls.append((lookup[name], int(exp) if caret else 1))
            except ValueError:
                raise WordError(f"exponent too long at position {m.end(4)}") from None
            have_term, separated, star_pending = True, False, False
    if not have_term:
        raise WordError("empty word text (use \"1\" for the identity)")
    if star_pending:
        raise WordError("trailing '*' without a term")
    return Word.from_syllables(alphabet, sylls)


def format_word(w: Word) -> str:
    """Printer inverse to parse_word; identity prints as ``1``."""
    if w.is_identity:
        return "1"
    terms = []
    for gen, exp in w.syllables:
        name = w.alphabet[gen]
        terms.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(terms)
