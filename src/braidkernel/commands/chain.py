"""The answer chain ``equal``, ``central`` and ``hom-check`` share: each asks its links in
order, and the first that decides answers."""

from math import isqrt

from .. import coset
from ..base import Undecided
from ..words import same_alphabet


def first_answer(links):
    """The triple of the first link, in list order, that decides.  A link is the set of
    answers its call can prove, and the call, which returns the triple or raises Undecided.
    A link that proves one answer is skipped once a later link that proves both gives the
    other.  No link runs twice; when none decides, the first link's Undecided is raised."""
    answers, undecided = {}, {}  # an Undecided is kept without the traceback that forms a cycle

    def ask(i):
        if i not in answers:
            try:
                answers[i] = links[i][1]()
            except Undecided as exc:
                answers[i], undecided[i] = None, exc.with_traceback(None)
        return answers[i]

    for i, (proves, _) in enumerate(links):
        if not any(ask(j) and ask(j)[0] not in proves for j in range(i + 1, len(links))
                   if len(proves) < len(links[j][0])) and ask(i):
            return ask(i)
    raise undecided.pop(0)


def tower_strands(p):
    """``tower.Tower``'s arguments for p, (n, its atlas relators, the relators past them), when
    p is the atlas P_n(RP2) with 3 <= n <= ``atlas.RP2_MAX_STRANDS``, or a quotient of it: its
    alphabet is the atlas one and its relators begin with the atlas ones, compared by syllables.
    None otherwise.  The atlas is built only for an alphabet of n(n + 1)/2 names whose last is
    rho_n."""
    n = (isqrt(8 * p.ngens + 1) - 1) // 2  # n(n + 1)/2 = p.ngens, when an n has it
    if n < 3 or n * (n + 1) // 2 != p.ngens or p.alphabet[-1] != f"rho{n}":
        return None
    from .. import atlas
    if n > atlas.RP2_MAX_STRANDS:
        return None
    q = atlas.pure_braid_rp2(n)
    k = len(q.relators)
    same = same_alphabet(p.alphabet, q.alphabet) and (
        [r.syllables for r in p.relators[:k]] == [r.syllables for r in q.relators])
    return (n, p.relators[:k], p.relators[k:]) if same else None


def tower_links(p, answer):
    """``tower.Tower``'s link for p, which proves both answers: ``answer(tower)``; none unless p
    passes ``tower_strands``, so the tower module does not run elsewhere."""
    def call():
        from .. import tower
        return answer(tower.Tower(*args))
    return [({True, False}, call)] if (args := tower_strands(p)) else []


def oracle_links(p, max_cosets, ask, tower_ask=None):
    """``central``'s and ``hom-check``'s links, each handing ``ask`` an equality oracle in p: the
    tower's first (handed to ``tower_ask`` when given), which a letter limit bounds, then a
    table's, which grows with max_cosets."""
    def table():
        return ask(coset.table_equality_oracle(coset.todd_coxeter(p, max_cosets=max_cosets)))
    return [*tower_links(p, lambda tower: (tower_ask or ask)(tower, engine="tower")),
            ({True, False}, table)]
