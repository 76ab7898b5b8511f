"""``braidkernel order``: group order by coset enumeration."""

from .. import coset
from ..cli import _load_presentation


def handle(args):
    table = coset.todd_coxeter(_load_presentation(args), max_cosets=args.max_cosets)
    order = coset.group_order(table)
    return True, {"order": order}, [str(order)]
