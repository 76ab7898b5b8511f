"""Knuth-Bendix completion to a confluent string-rewriting system.

Works on the letter-expanded alphabet with formal inverses; the free
reduction rules x x^-1 -> empty are always present.  Rules are ordered
by shortlex (letter order: generator i = 2i before its inverse 2i+1),
so every rule strictly shrinks and rewriting terminates.  Critical
pairs are processed FIFO by rule-pair age and the rule set is
inter-reduced after every addition: a rule whose left side the new rule
rewrites is deleted and its equation queued again.  This keeps runs
deterministic and systems small.

Budget exhaustion (too many rules, or a rule side over the length cap)
is reported by ``confluent=False``; the partial system remains sound
for rewriting, it just cannot certify inequality.

Inside this module a word is a str with one character per letter,
``chr(letter)``, so substring tests, slices and hashes run in C; str
order is code-point order, so shortlex is the same as on letter tuples.
``RewriteSystem.rules`` holds letter tuples.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import chain, count, product, repeat

from . import DEFAULT_MAX_LEN, DEFAULT_MAX_RULES
from .presentations import Presentation
from .base import BraidkernelError, Undecided, record
from .words import Alphabet, Word, letters_to_word, same_alphabet, word_to_letters

Letters = tuple[int, ...]
# left side length -> {left side: (rule id, right side)}, sides encoded as str
RuleIndex = dict[int, dict[str, tuple[int, str]]]


@record
class RewriteSystem:
    alphabet: Alphabet
    rules: tuple[tuple[Letters, Letters], ...]
    confluent: bool

    @cached_property
    def index(self) -> RuleIndex:
        """The rules by left side, with their positions as rule ids."""
        index: RuleIndex = {}
        for rid, (lhs, rhs) in enumerate(self.rules):
            index.setdefault(len(lhs), {}).setdefault(_encode(lhs), (rid, _encode(rhs)))
        return index


def _shortlex_less(u: str, v: str) -> bool:
    return (len(u), u) < (len(v), v)


def _encode(letters: Iterable[int]) -> str:
    return "".join(map(chr, letters))


def _decode(word: str) -> Letters:
    return tuple(map(ord, word))


def _rewrite(word: str, index: RuleIndex) -> str:
    """Leftmost rewriting to a fixpoint; of the rules whose left sides
    match at one position, the one with the lowest id applies.  After a
    rewrite the scan backs up by the longest left side less one, the
    furthest back a new match can start.

    Linear in the length of the word.  The scan runs over ``buf``, a str
    of at most a few times ``span`` letters, so a splice costs O(span);
    ``done`` holds the letters before it, one per entry, so that a
    back-up can take them again, and the letters after it are the chunks
    of ``later`` (nearest last), then ``word[i:]``.  A word of up to
    ``span`` letters stays in ``buf`` whole.
    """
    lengths = sorted(index)
    if not lengths:
        return word
    width = lengths[-1]
    span = 4 * width + 64
    done: list[str] = []
    later: list[str] = []
    buf, i = word[:span], span
    pos, size = 0, len(buf)
    while True:
        if size - pos < width:
            if later or i < len(word):
                done.extend(buf[:pos])
                if later:
                    buf = buf[pos:] + later.pop()
                else:
                    buf = buf[pos:] + word[i:i + span]
                    i += span
                pos, size = 0, len(buf)
            elif pos == size:
                return "".join(done) + buf
        best = None
        for n in lengths:
            if pos + n > size:
                break
            hit = index[n].get(buf[pos:pos + n])
            if hit is not None and (best is None or hit[0] < best[0]):
                best, end = hit, pos + n
        if best is None:
            pos += 1
            continue
        buf = buf[:pos] + best[1] + buf[end:]
        pos -= width - 1
        if pos < 0:
            back = min(-pos, len(done))
            if back:
                buf = "".join(done[-back:]) + buf
                del done[-back:]
            pos = max(0, pos + back)
        size = len(buf)
        if size - pos > 3 * span:
            later.append(buf[pos + span:])
            buf = buf[:pos + span]
            size = len(buf)


def knuth_bendix(p: Presentation, max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LEN) -> RewriteSystem:
    """Complete the relators of p into a rewriting system.

    If completion finishes within budget the returned system is
    confluent and its congruence is the group's word problem.
    """
    if max_rules < 1 or max_len < 1:
        raise BraidkernelError("budgets must be >= 1")

    ids = count()   # never reused, and rules keeps its keys in id order
    rules: dict[int, tuple[str, str]] = {}
    index: RuleIndex = {}   # the live rules again, by left side
    # the rules whose pairs are still to overlap, FIFO by age (-1: the seed
    # product).  A rule's pairs are made when it comes up, from the rules
    # then live, so a rule retired while it waited yields none; drop()
    # takes a retired rule off the queue
    pair_queue: dict[int, None] = {}
    eq_queue: deque[tuple[str, str]] = deque()
    discarded = False

    def put(rid: int, lhs: str, rhs: str):
        rules[rid] = (lhs, rhs)
        index.setdefault(len(lhs), {})[lhs] = (rid, rhs)

    def drop(rid: int):
        lhs, _ = rules.pop(rid)
        pair_queue.pop(rid, None)
        bucket = index[len(lhs)]
        del bucket[lhs]
        if not bucket:
            del index[len(lhs)]

    def nf(word: str) -> str:
        return _rewrite(word, index)

    def add_rule(u: str, v: str) -> bool:
        nonlocal discarded
        u, v = nf(u), nf(v)
        if u == v:
            return False
        lhs, rhs = (u, v) if _shortlex_less(v, u) else (v, u)
        if len(lhs) > max_len:
            discarded = True
            return False
        touched = [(j, ljh, rjh) for j, (ljh, rjh) in rules.items() if lhs in ljh or lhs in rjh]
        rid = next(ids)
        put(rid, lhs, rhs)
        # inter-reduce: retire rules whose lhs the new rule rewrites,
        # and renormalize right-hand sides
        for j, ljh, rjh in touched:
            if lhs in ljh:
                drop(j)
                eq_queue.append((ljh, rjh))
            else:
                put(j, ljh, nf(rjh))
        pair_queue[rid] = None
        return True

    def pairs(rid: int) -> Iterator[tuple[int, int]]:
        """(rid, j) and (j, rid) for every live j older than rid, then (rid, rid);
        the seed's product for -1.  A pair is yielded only while both its rules
        are live: overlapping one pair can retire rules of the next."""
        if rid < 0:
            todo = product(seed, repeat=2)
        else:
            older = list(rules)
            older = older[:older.index(rid)]
            todo = chain(chain.from_iterable(zip(zip(repeat(rid), older), zip(older, repeat(rid)))),
                         [(rid, rid)])
        return ((i, j) for i, j in todo if i in rules and j in rules)

    def budget_spent() -> bool:
        """Add the queued equations; True once the rules outnumber
        max_rules.  The budget is checked after each added rule: only
        an addition changes the count, and it always leaves work queued,
        at least the pair (rid, rid)."""
        while eq_queue:
            if add_rule(*eq_queue.popleft()) and len(rules) > max_rules:
                return True
        return False

    # seed: free reduction, then the relators as equations
    for x in range(2 * p.ngens):
        put(next(ids), chr(x) + chr(x ^ 1), "")
    seed = list(rules)
    pair_queue[-1] = None  # -1 names no rule: ids count from 0
    eq_queue.extend((_encode(word_to_letters(rel)), "") for rel in p.relators)

    aborted = len(rules) > max_rules or budget_spent()
    while pair_queue and not aborted:
        rid = next(iter(pair_queue))
        del pair_queue[rid]
        for i, j in pairs(rid):
            (l1, r1), (l2, r2) = rules[i], rules[j]
            # l1 and l2 overlap in a word A|O|B with l1 = A+O, l2 = O+B and
            # 0 < |O| = k < min(|l1|, |l2|); O ends in the last letter of l1
            last, stop = l1[-1], min(len(l1), len(l2)) - 1
            k = l2.find(last, 0, stop) + 1
            while k:
                if l1.endswith(l2[:k]):
                    eq_queue.append((r1 + l2[k:], l1[:-k] + r2))
                k = l2.find(last, k, stop) + 1
            if budget_spent():
                aborted = True
                break

    return RewriteSystem(p.alphabet, tuple((_decode(lhs), _decode(rhs)) for lhs, rhs in rules.values()),
                         not (aborted or discarded))


def normal_form(rs: RewriteSystem, w: Word) -> Word:
    """Rewrite w to a fixpoint; canonical when rs is confluent."""
    if not same_alphabet(w.alphabet, rs.alphabet):
        raise BraidkernelError("word is not over the rewriting system's alphabet")
    return letters_to_word(rs.alphabet, _decode(_rewrite(_encode(word_to_letters(w)), rs.index)))


def enumerate_normal_forms(rs: RewriteSystem, max_letters: int | None = None,
                           limit: int | None = None) -> list[Word]:
    """All irreducible words, breadth-first by length.

    Terminates when the language is finite; otherwise one of
    ``max_letters`` / ``limit`` must bound the enumeration.  Raises if
    ``limit`` is hit (the count is then not the full language).
    """
    if max_letters is None and limit is None:
        raise BraidkernelError("need max_letters or limit to bound the enumeration")
    letters = [chr(x) for x in range(2 * len(rs.alphabet))]
    found = [""]
    level = [""]
    while level:
        if max_letters is not None and len(level[0]) >= max_letters:
            break
        nxt = []
        for word in level:
            for x in letters:
                cand = word + x
                # word itself is irreducible, so only suffixes of the extension can
                # match a left side; cand[-k:] with k > len(cand) is cand, too short
                if any(cand[-k:] in sides for k, sides in rs.index.items()):
                    continue
                nxt.append(cand)
                found.append(cand)
                if limit is not None and len(found) > limit:
                    raise BraidkernelError(f"more than {limit} normal forms")
        level = nxt
    return [letters_to_word(rs.alphabet, _decode(w)) for w in found]


def rewrite_equality_oracle(rs: RewriteSystem):
    """Equality oracle for hom_check: equal normal forms prove u = v; unequal
    ones prove u != v only when rs is confluent, and raise Undecided otherwise."""

    def oracle(u: Word, v: Word) -> bool:
        if normal_form(rs, u) == normal_form(rs, v):
            return True
        if not rs.confluent:
            raise Undecided("rewriting system is not confluent")
        return False

    return oracle
