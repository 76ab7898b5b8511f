"""``braidkernel abelianize``: abelian invariants."""

from .. import presentations
from ..cli import _load_presentation


def handle(args):
    inv = presentations.abelianization(_load_presentation(args))
    return (True, {"rank": inv.rank, "torsion": list(inv.torsion)},
            [f"rank {inv.rank}, torsion {list(inv.torsion)}"])
