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
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property

from . import DEFAULT_MAX_LEN, DEFAULT_MAX_RULES
from .presentations import Presentation
from .words import (
    Alphabet, BraidkernelError, Word, letters_to_word, record, word_to_letters)

Letters = tuple[int, ...]
# left side length -> {left side: (rule id, right side)}
RuleIndex = dict[int, dict[Letters, tuple[int, Letters]]]


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
            index.setdefault(len(lhs), {}).setdefault(lhs, (rid, rhs))
        return index


def _shortlex_less(u: Letters, v: Letters) -> bool:
    return (len(u), u) < (len(v), v)


def _rewrite(word: Letters, index: RuleIndex) -> Letters:
    """Leftmost rewriting to a fixpoint; of the rules whose left sides
    match at one position, the one with the lowest id applies."""
    out = list(word)
    lengths = sorted(index)
    max_lhs = lengths[-1] if lengths else 0
    pos = 0
    while pos < len(out):
        best = None
        for n in lengths:
            if pos + n > len(out):
                break
            hit = index[n].get(tuple(out[pos:pos + n]))
            if hit is not None and (best is None or hit[0] < best[0]):
                best, end = hit, pos + n
        if best is None:
            pos += 1
        else:
            out[pos:end] = best[1]
            pos = max(0, pos - max_lhs + 1)
    return tuple(out)


def knuth_bendix(p: Presentation, max_rules: int = DEFAULT_MAX_RULES,
                 max_len: int = DEFAULT_MAX_LEN) -> RewriteSystem:
    """Complete the relators of p into a rewriting system.

    If completion finishes within budget the returned system is
    confluent and its congruence is the group's word problem.
    """
    if max_rules < 1 or max_len < 1:
        raise BraidkernelError("budgets must be >= 1")

    nletters = 2 * p.ngens
    ids = itertools.count()   # never reused, so a queued pair cannot name a newer rule
    rules: dict[int, tuple[Letters, Letters]] = {}
    index: RuleIndex = {}   # the live rules again, by left side
    pair_queue: deque[tuple[int, int]] = deque()
    eq_queue: deque[tuple[Letters, Letters]] = deque()
    discarded = False

    def put(rid: int, lhs: Letters, rhs: Letters):
        rules[rid] = (lhs, rhs)
        index.setdefault(len(lhs), {})[lhs] = (rid, rhs)

    def drop(rid: int):
        lhs, _ = rules.pop(rid)
        bucket = index[len(lhs)]
        del bucket[lhs]
        if not bucket:
            del index[len(lhs)]

    def nf(word: Letters) -> Letters:
        return _rewrite(word, index)

    def add_rule(u: Letters, v: Letters):
        nonlocal discarded
        u, v = nf(u), nf(v)
        if u == v:
            return
        lhs, rhs = (u, v) if _shortlex_less(v, u) else (v, u)
        if len(lhs) > max_len:
            discarded = True
            return
        older = list(rules.items())
        rid = next(ids)
        put(rid, lhs, rhs)
        # inter-reduce: retire rules whose lhs the new rule rewrites,
        # and renormalize right-hand sides
        for j, (ljh, rjh) in older:
            if _contains(ljh, lhs):
                drop(j)
                eq_queue.append((ljh, rjh))
            elif _contains(rjh, lhs):
                put(j, ljh, nf(rjh))
        for j in rules:
            pair_queue.append((rid, j))
            if j != rid:
                pair_queue.append((j, rid))

    # seed: free reduction, then the relators as equations
    for x in range(nletters):
        put(next(ids), (x, x ^ 1), ())
    pair_queue.extend((i, j) for i in rules for j in rules)
    for rel in p.relators:
        eq_queue.append((word_to_letters(rel), ()))

    aborted = False
    while eq_queue or pair_queue:
        if len(rules) > max_rules:
            aborted = True
            break
        if eq_queue:
            add_rule(*eq_queue.popleft())
            continue
        i, j = pair_queue.popleft()
        if not (i in rules and j in rules):
            continue
        (l1, r1), (l2, r2) = rules[i], rules[j]
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                # l1 and l2 overlap in a word A|O|B with l1 = A+O, l2 = O+B
                crit1 = r1 + l2[k:]
                crit2 = l1[:-k] + r2
                eq_queue.append((crit1, crit2))

    # only the abort leaves a queue non-empty
    return RewriteSystem(p.alphabet, tuple(rules.values()), not (aborted or discarded))


def _contains(haystack: Letters, needle: Letters) -> bool:
    if needle and needle[0] not in haystack:   # rejects most pairs without slicing
        return False
    n = len(needle)
    return any(haystack[i:i + n] == needle for i in range(len(haystack) - n + 1))


def normal_form(rs: RewriteSystem, w: Word) -> Word:
    """Rewrite w to a fixpoint; canonical when rs is confluent."""
    if w.alphabet != rs.alphabet:
        raise BraidkernelError("word is not over the rewriting system's alphabet")
    return letters_to_word(rs.alphabet, _rewrite(word_to_letters(w), rs.index))


def enumerate_normal_forms(rs: RewriteSystem, max_letters: int | None = None,
                           limit: int | None = None) -> list[Word]:
    """All irreducible words, breadth-first by length.

    Terminates when the language is finite; otherwise one of
    ``max_letters`` / ``limit`` must bound the enumeration.  Raises if
    ``limit`` is hit (the count is then not the full language).
    """
    if max_letters is None and limit is None:
        raise BraidkernelError("need max_letters or limit to bound the enumeration")
    nletters = 2 * len(rs.alphabet)
    lhs_set = {lhs for lhs, _ in rs.rules}
    max_lhs = max((len(l) for l in lhs_set), default=0)
    found: list[Letters] = [()]
    level: list[Letters] = [()]
    while level:
        if max_letters is not None and len(level[0]) >= max_letters:
            break
        nxt = []
        for word in level:
            for x in range(nletters):
                cand = word + (x,)
                # word itself is irreducible, so only suffixes of the
                # extension can match a left-hand side
                tail = cand[-max_lhs:] if max_lhs else ()
                if any(tail[len(tail) - k:] in lhs_set for k in range(1, len(tail) + 1)):
                    continue
                nxt.append(cand)
                found.append(cand)
                if limit is not None and len(found) > limit:
                    raise BraidkernelError(f"more than {limit} normal forms")
        level = nxt
    return [letters_to_word(rs.alphabet, w) for w in found]


def rewrite_equality_oracle(rs: RewriteSystem):
    """Equality oracle for hom_check: decisive iff rs is confluent."""

    def oracle(u: Word, v: Word) -> bool | None:
        if normal_form(rs, u) == normal_form(rs, v):
            return True
        return False if rs.confluent else None

    return oracle
