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

import functools
import re
from collections.abc import Iterable, Sequence
from operator import attrgetter

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[+-]?[0-9]+")

# the most letters word_to_letters expands, and the most syllables a power repeats
MAX_LETTERS = 10**7


class BraidkernelError(ValueError):
    """Base class of every error the library raises on bad input."""


class Undecided(Exception):
    """A budget or expansion limit ran out before the answer was known;
    the message says which.  The CLI prints it as ``undecided: <message>``."""


class WordError(BraidkernelError):
    """Malformed word text, bad symbol, or alphabet mismatch."""


Alphabet = tuple[str, ...]


def record(cls):
    """Class decorator: a frozen record over the class's annotated fields.

    The contract of ``@dataclass(frozen=True)``, built from closures so
    that no command imports ``dataclasses`` (and with it ``inspect``):
    positional or keyword construction with the class-level defaults,
    then ``__post_init__`` when the class defines one; equality only
    between instances of the same class, on the field tuple; the hash of
    the field tuple; the ``Name(field=value, ...)`` repr; and
    ``AttributeError`` on assignment or deletion.  Instances keep a
    ``__dict__``, so ``__post_init__`` can normalise a field with
    ``object.__setattr__`` and ``functools.cached_property`` works.
    """
    name = cls.__qualname__
    names = tuple(cls.__annotations__)
    arity = len(names)
    positions = tuple(enumerate(names))
    defaults = {field: cls.__dict__[field] for field in names if field in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    # the field tuple: attrgetter returns a tuple for two or more names
    if arity > 1:
        fields = attrgetter(*names)
    else:
        def fields(self):
            return tuple(getattr(self, field) for field in names)
    # object.__setattr__ keeps the instance's inline attribute values, so
    # attribute reads stay as fast as on a dataclass; filling __dict__
    # directly would turn it into a real dict and slow every read
    store = object.__setattr__

    def bind(args, kwargs):
        if len(args) > arity:
            raise TypeError(f"{name}() takes {arity} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for field in names[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in defaults:
                values.append(defaults[field])
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        for field in kwargs:
            raise TypeError(f"{name}() got multiple values for argument {field!r}"
                            if field in names else
                            f"{name}() got an unexpected keyword argument {field!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for i, field in positions:
            store(self, field, args[i])
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        args = ", ".join(f"{field}={value!r}" for field, value in zip(names, fields(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to field {field!r}")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete field {field!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


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


def _normalize_syllables(raw: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    # Stack-based merge; popping a canceled syllable can expose a new
    # adjacency with the next input syllable, which the loop handles.
    out: list[tuple[int, int]] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


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
        return cls(alphabet, _normalize_syllables(raw))

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
        return multiply(self, other)

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


def _require_same_alphabet(u: Word, v: Word):
    if u.alphabet != v.alphabet:
        raise WordError("words belong to different alphabets")


def multiply(u: Word, v: Word) -> Word:
    """Freely reduced concatenation u*v."""
    _require_same_alphabet(u, v)
    return Word.from_syllables(u.alphabet, u.syllables + v.syllables)


def conjugate(u: Word, w: Word) -> Word:
    """Conjugation u * w * u^-1 (the conjugator comes first)."""
    _require_same_alphabet(u, w)
    return multiply(multiply(u, w), u.inverse())


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

def shortlex_compare(u: Word, v: Word, letter_order: Sequence[int] | None = None) -> int:
    """Shortlex comparison on letter expansions: -1, 0 or 1.

    The default letter order is g0 < g0^-1 < g1 < g1^-1 < ...; pass a
    permutation of the 2n letter ids to override it.
    """
    _require_same_alphabet(u, v)
    lu, lv = word_to_letters(u), word_to_letters(v)
    if letter_order is not None:
        rank = {x: i for i, x in enumerate(letter_order)}
        lu = tuple(rank[x] for x in lu)
        lv = tuple(rank[x] for x in lv)
    ku, kv = (len(lu), lu), (len(lv), lv)
    if ku < kv:
        return -1
    if ku > kv:
        return 1
    return 0


# text form ---------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _name_lookup(alphabet: Alphabet) -> dict[str, int]:
    # generator name -> index, built once per alphabet rather than per
    # word: a presentation's relators all share its alphabet
    return {name: i for i, name in enumerate(alphabet)}


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse the word grammar: ``"1"`` or ``name(^int)?`` terms joined by
    ``*`` or whitespace.  Errors report the offending position."""
    lookup = _name_lookup(alphabet)
    if text.strip() == "1":
        return Word.identity(alphabet)

    sylls: list[tuple[int, int]] = []
    i = 0
    n = len(text)
    have_term = False     # at least one term parsed
    separated = True      # a separator (or the start) precedes position i
    star_pending = False  # a '*' was seen and now requires a term
    while i < n:
        if text[i].isspace():
            separated = True
            i += 1
            continue
        if text[i] == "*":
            if not have_term or star_pending:
                raise WordError(f"unexpected '*' at position {i}")
            separated = True
            star_pending = True
            i += 1
            continue
        m = _NAME_RE.match(text, i)
        if not m:
            raise WordError(f"expected generator name at position {i}")
        if have_term and not separated:
            raise WordError(f"missing separator before position {i}")
        name = m.group()
        if name not in lookup:
            raise WordError(f"unknown generator {name!r} at position {i}")
        i = m.end()
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            em = _INT_RE.match(text, i)
            if not em:
                raise WordError(f"malformed exponent at position {i}")
            try:
                exp = int(em.group())
            except ValueError:  # more digits than the interpreter converts
                raise WordError(f"exponent too long at position {i}") from None
            i = em.end()
        sylls.append((lookup[name], exp))
        have_term = True
        separated = False
        star_pending = False
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
