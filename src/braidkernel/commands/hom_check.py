"""``braidkernel hom-check``: verify a homomorphism map file into a finite group, or into the
atlas P_n(RP2) and its quotients."""

from .. import presentations
from .chain import first_answer, oracle_links


def handle(args):
    with open(args.map_file, encoding="utf-8") as fh:
        hom = presentations.parse_hom_file(fh.read())

    def answer(oracle, **fields):
        result = presentations.hom_check(hom, oracle)
        payload = {"status": result.status, "failing_relator": result.relator_index, **fields}
        return (result.verified, payload, [result.status if result.verified else
                                           f"{result.status} at relator {result.relator_index}"])

    return first_answer(oracle_links(hom.target, args.max_cosets, answer))
