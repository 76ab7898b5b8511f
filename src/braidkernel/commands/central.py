"""``braidkernel central``: test centrality in a finite group, or in the atlas P_n(RP2) and its
quotients."""

from .. import atlas
from ..cli import UsageError, _load_presentation
from ..presentations import first_unequal
from ..words import Word, format_word, parse_word, same_alphabet
from .chain import first_answer, oracle_links


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
    gens = [Word.generator(p.alphabet, i) for i in range(p.ngens)]  # by index: no name lookups

    def verdict(central, **fields):
        payload = {"element": format_word(w), "central": central, **fields}
        return central, payload, [f"{format_word(w)} is {'central' if central else 'not central'}"]

    def answer(oracle, **fields):
        return verdict(first_unequal(oracle, ((w * g, g * w) for g in gens)) is None, **fields)

    # the tower tests commuting level by level, not pair by pair
    return first_answer(oracle_links(p, args.max_cosets, answer,
                                     lambda tower, **fields: verdict(tower.central(w), **fields)))
