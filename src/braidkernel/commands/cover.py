"""``braidkernel cover``: covering impossibility certificates."""

from .. import coverings, surfaces


def handle(args):
    cover = surfaces.parse_surface(args.cover_surface)
    base = surfaces.parse_surface(args.base_surface)
    decision = coverings.can_cover(cover, base, args.sheets)
    verdict = "not excluded" if decision.possible else "impossible"
    lines = [f"{surfaces.describe_surface(cover)} over {surfaces.describe_surface(base)}, "
             f"{args.sheets} sheets: {verdict}"]
    if decision.certificate:
        lines.append(f"certificate: {decision.certificate}")
        lines.append(decision.detail)
    return (decision.possible, {"possible": decision.possible,
                                "certificate": decision.certificate,
                                "detail": decision.detail}, lines)
