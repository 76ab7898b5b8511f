"""``braidkernel central``: test centrality in the finite group."""

from .. import coset
from ..cli import _load_presentation, _resolve_element
from ..words import format_word


def handle(args):
    p = _load_presentation(args)
    w = _resolve_element(args, p)
    central = coset.is_central_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), w)
    return (central, {"element": format_word(w), "central": central},
            [f"{format_word(w)} is {'central' if central else 'not central'}"])
