"""``braidkernel central``: test centrality in a finite group, or in P3(RP2) and its quotients."""

from .. import atlas, coset
from ..base import Undecided
from ..cli import UsageError, _load_presentation
from ..words import format_word, parse_word, same_alphabet
from .chain import fiber_links, first_answer


def _resolve_element(args, p):
    if args.element != "tau":
        return parse_word(args.element, p.alphabet)
    n = atlas.rp2_strand_count(p)
    if n is None:
        raise UsageError('"tau" is only defined on atlas rp2 presentations '
                         f"(group name is {p.name!r})")
    tau = atlas.tau_n(n)
    if not same_alphabet(tau.alphabet, p.alphabet):
        raise UsageError(f'"tau" on {p.name} needs the atlas generators {" ".join(tau.alphabet)}')
    return tau


def handle(args):
    p = _load_presentation(args)
    w = _resolve_element(args, p)

    def answer(central, **fields):
        payload = {"element": format_word(w), "central": central, **fields}
        return central, payload, [f"{format_word(w)} is {'central' if central else 'not central'}"]

    def table():  # decides in a finite group
        return answer(coset.is_central_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), w))

    def fiber(oracle):  # a commutator proved nontrivial decides, even after an undecided one
        undecided = []
        for g in map(p.gen, p.alphabet):
            try:
                if not oracle(w * g, g * w):
                    return answer(False, engine="fiber")
            except Undecided as exc:
                undecided.append(exc.with_traceback(None))
        if undecided:
            raise undecided[0]
        return answer(True, engine="fiber")

    # fiber first: letter limits bound it; the table grows with --max-cosets, P3(RP2) is infinite
    return first_answer([*fiber_links(p, fiber), ({True, False}, table)])
