"""The answer chain ``equal``, ``central`` and ``hom-check`` share: each asks its links in
order, and the first that decides answers."""

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


def oracle_links(p, max_cosets, ask):
    """``central``'s and ``hom-check``'s links, each handing ``ask`` an equality oracle in p: the
    fiber's first, which letter limits bound, then a table's, which grows with max_cosets."""
    def table():
        return ask(coset.table_equality_oracle(coset.todd_coxeter(p, max_cosets=max_cosets)))
    return [*fiber_links(p, lambda oracle: ask(oracle, engine="fiber")), ({True, False}, table)]
