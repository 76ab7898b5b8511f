"""``braidkernel central``: test centrality in a finite group, or in P3(RP2)."""

from .. import atlas, coset
from ..base import Undecided
from ..cli import UsageError, _load_presentation
from ..words import Word, format_word, parse_word


def _resolve_element(args, p):
    if args.element != "tau":
        return parse_word(args.element, p.alphabet)
    n = atlas.rp2_strand_count(p)
    if n is None:
        raise UsageError('"tau" is only defined on atlas rp2 presentations '
                         f"(group name is {p.name!r})")
    tau = atlas.tau_n(n)
    if tau.alphabet != p.alphabet:
        raise UsageError(f'"tau" on {p.name} needs the atlas generators {" ".join(tau.alphabet)}')
    return tau


def handle(args):
    p = _load_presentation(args)
    w = _resolve_element(args, p)
    try:
        central = coset.is_central_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), w)
        payload = {"element": format_word(w), "central": central}
    except coset.IncompleteTableError as undecided:
        # on P3(RP2) the fiber subgroup decides w g = g w for each generator g
        from .. import schreier
        try:
            oracle = schreier.fiber_oracle(p)
            gens = [Word.generator(p.alphabet, i) for i in range(p.ngens)]
            central = all(oracle(w * g, g * w) for g in gens)
        except Undecided:
            raise undecided from None
        payload = {"element": format_word(w), "central": central, "engine": "fiber"}
    return central, payload, [f"{format_word(w)} is {'central' if central else 'not central'}"]
