"""``braidkernel central``: test centrality in the finite group."""

from .. import atlas, coset
from ..cli import UsageError, _load_presentation
from ..words import format_word, parse_word


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
    central = coset.is_central_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), w)
    return (central, {"element": format_word(w), "central": central},
            [f"{format_word(w)} is {'central' if central else 'not central'}"])
