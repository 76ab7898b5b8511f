"""``braidkernel kernel``: kernel description for a quotient surface."""

from .. import coverings, presentations, surfaces
from ..cli import UsageError


def handle(args):
    surface = surfaces.parse_surface(args.quotient)
    params = None
    if args.q is not None or args.r is not None:
        if args.q is None or args.r is None:
            raise UsageError("--q and --r must be given together")
        params = (args.q, args.r)
    pure = not args.full_braid
    desc = coverings.kernel_description(surface, args.n, pure, params)
    payload = {"case": desc.case,
               "base": {"surface": surface.label, "orientable": surface.orientable,
                        "genus": surface.genus, "n": args.n, "pure": pure},
               "q": args.q, "r": args.r}
    lines = [f"case: {desc.case}",
             f"kernel: {desc.description}",
             f"base surface: {surfaces.describe_surface(surface)}"]
    if desc.presentation is not None:
        written = ""
        if args.presentation_out:
            with open(args.presentation_out, "w", encoding="utf-8") as fh:
                fh.write(presentations.format_presentation(desc.presentation))
            payload["presentation_file"] = args.presentation_out
            written = f" (written to {args.presentation_out})"
        lines.append("explicit presentation: available" + written)
    elif args.presentation_out:
        raise UsageError(f"kernel: case {desc.case} ({desc.description}) has no explicit "
                         "presentation for --presentation-out")
    return True, payload, lines
