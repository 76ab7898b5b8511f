"""The answer chain ``equal``, ``central`` and ``hom-check`` share: each asks its links in
order, and the first that decides answers."""

from math import isqrt

from .. import FIBER_ALPHABET, coset
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


def fiber_links(p, answer):
    """``fiber.fiber_oracle(p)``'s link, which proves both answers: ``answer(oracle)``; none off
    its alphabet, so the fiber module does not run there."""
    def call():
        from .. import fiber
        return answer(fiber.fiber_oracle(p))
    return [({True, False}, call)] if same_alphabet(p.alphabet, FIBER_ALPHABET) else []


def tower_strands(p):
    """n when p is the atlas P_n(RP2) with 4 <= n <= ``atlas.RP2_MAX_STRANDS``: its alphabet and
    its relators, compared by syllables.  The atlas is built only for an alphabet of
    n(n + 1)/2 names whose last is rho_n."""
    n = (isqrt(8 * p.ngens + 1) - 1) // 2  # n(n + 1)/2 = p.ngens, when an n has it
    if n < 4 or n * (n + 1) // 2 != p.ngens or p.alphabet[-1] != f"rho{n}":
        return None
    from .. import atlas
    if n > atlas.RP2_MAX_STRANDS:
        return None
    q = atlas.pure_braid_rp2(n)
    same = same_alphabet(p.alphabet, q.alphabet) and (
        [r.syllables for r in p.relators] == [r.syllables for r in q.relators])
    return n if same else None


def tower_links(p, answer):
    """``tower.Tower(n)``'s link, which proves both answers: ``answer(tower)``; none unless p is
    the atlas P_n(RP2) (``tower_strands``), so the tower module does not run elsewhere."""
    def call():
        from .. import tower
        return answer(tower.Tower(n))
    return [({True, False}, call)] if (n := tower_strands(p)) else []


def oracle_links(p, max_cosets, ask, tower_ask=None):
    """``central``'s and ``hom-check``'s links, each handing ``ask`` an equality oracle in p: the
    fiber's first and the tower's (handed to ``tower_ask`` when given), which letter limits
    bound, then a table's, which grows with max_cosets."""
    def table():
        return ask(coset.table_equality_oracle(coset.todd_coxeter(p, max_cosets=max_cosets)))
    return [*fiber_links(p, lambda oracle: ask(oracle, engine="fiber")),
            *tower_links(p, lambda tower: (tower_ask or ask)(tower, engine="tower")),
            ({True, False}, table)]
