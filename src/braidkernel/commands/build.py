"""``braidkernel build``: print an atlas presentation."""

from .. import atlas, presentations, surfaces
from ..cli import UsageError


def handle(args):
    spec = args.surface.strip().lower()
    if args.n is not None and spec != "rp2":
        raise UsageError("--n applies to --surface rp2 only")
    if spec == "rp2":
        if args.n is None:
            raise UsageError("--surface rp2 needs --n")
        p = atlas.pure_braid_rp2(args.n)
    elif spec == "torus":
        p = atlas.torus_presentation()
    elif spec == "klein":
        p = atlas.klein_presentation()
    elif spec == "quaternion":
        p = atlas.quaternion_presentation()
    elif spec.startswith("nonorientable:"):
        k = spec.split(":", 1)[1]
        if not (count := surfaces.parse_count(k)):
            raise UsageError(f"bad crosscap count {k!r}")
        p = atlas.pi1_nonorientable(count)
    else:
        raise UsageError(f"unknown atlas surface {args.surface!r}")
    text = presentations.format_presentation(p)
    return True, {"presentation": text}, text.splitlines()
