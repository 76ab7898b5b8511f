"""``braidkernel hom-check``: verify a homomorphism map file."""

from .. import coset, presentations


def handle(args):
    with open(args.map_file, encoding="utf-8") as fh:
        hom = presentations.parse_hom_file(fh.read())
    table = coset.todd_coxeter(hom.target, max_cosets=args.max_cosets)
    result = presentations.hom_check(hom, coset.table_equality_oracle(table))
    payload = {"status": result.status, "failing_relator": result.relator_index}
    return (result.verified, payload, [result.status if result.verified else
                                       f"{result.status} at relator {result.relator_index}"])
