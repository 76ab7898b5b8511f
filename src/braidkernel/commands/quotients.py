"""``braidkernel quotients``: quotient-surface candidates of a free action."""

from .. import surfaces


def handle(args):
    candidates = surfaces.quotient_candidates(
        surfaces.parse_surface(args.surface), args.sheets, args.strict_orientability)
    lines = []
    payload = []
    for cand in candidates:
        entry = {"surface": cand.label, "orientable": cand.orientable,
                 "genus": cand.genus}
        note = surfaces.describe_surface(cand)
        if cand == surfaces.TORUS:
            forms = surfaces.torus_action_forms(args.sheets)
            entry["group_forms"] = [list(f) for f in forms]
            note += "; acting group Z/q + Z/r with (q,r) in " + str(forms)
        lines.append(note)
        payload.append(entry)
    return True, payload, lines if lines else ["(no candidates)"]
