"""``braidkernel check-derivation``: replay a derivation chain file."""

from .. import derivations
from ..cli import _load_presentation


def handle(args):
    p = _load_presentation(args)
    with open(args.chain_file, encoding="utf-8") as fh:
        chain = derivations.parse_chain_file(fh.read(), p)
    report = derivations.check_derivation(chain)
    if report.failing_step is not None:
        return False, {"valid": False, "error": report.message}, [f"invalid: {report.message}"]
    return (report.valid, {"valid": report.valid, "steps": len(chain.steps),
                           "message": report.message},
            [("valid: " if report.valid else "invalid: ") + report.message])
