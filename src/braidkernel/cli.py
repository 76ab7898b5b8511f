"""Batch command-line interface.

Each command returns a tri-state answer; ``run`` alone prints and
picks the exit code: 0 success (True), 1 negative mathematical answer
(False: not equal, not central, covering impossible, invalid chain),
2 inconclusive (a budget ran out: one ``undecided: <reason>`` line on
stderr, nothing on stdout), 3 usage or parse error.  With ``--json``,
each command prints a single JSON object carrying a ``result`` field.

Presentations are read from ``--input FILE`` or stdin, so commands
pipe: ``braidkernel build --surface rp2 --n 2 | braidkernel order``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    DEFAULT_MAX_COSETS, DEFAULT_MAX_LEN, DEFAULT_MAX_NODES, DEFAULT_MAX_RULES, DEFAULT_MAX_WORD_LEN,
    atlas, coset, coverings, derivations, presentations, rewriting, surfaces,
)
from .words import BraidkernelError, format_word, parse_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3

ENV_MAX_COSETS = "BRAIDKERNEL_MAX_COSETS"


class UsageError(Exception):
    pass


class _Undecided(Exception):
    """A budget ran out before the answer was known; the message says which."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _budget_value(text: str) -> int:
    """argparse type of the budget flags: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="braidkernel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_file=True, max_cosets=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if input_file:
            p.add_argument("--input", default=None,
                           help="presentation file (default: stdin)")
        if max_cosets:
            p.add_argument("--max-cosets", type=_budget_value, default=None,
                           help="enumeration budget: most live cosets, inclusive "
                                f"(default {DEFAULT_MAX_COSETS}, or ${ENV_MAX_COSETS})")

    p = sub.add_parser("build", help="print an atlas presentation")
    p.add_argument("--surface", required=True,
                   help="rp2 | torus | klein | nonorientable:k | quaternion")
    p.add_argument("--n", type=int, default=None, help="strand count (rp2)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("order", help="group order by coset enumeration")
    common(p)

    p = sub.add_parser("central", help="test centrality in the finite group")
    p.add_argument("--element", required=True,
                   help='a word, or "tau" on an atlas rp2 presentation')
    common(p)

    p = sub.add_parser("abelianize", help="abelian invariants")
    common(p, max_cosets=False)

    p = sub.add_parser("hom-check", help="verify a homomorphism map file")
    p.add_argument("--map", required=True, dest="map_file")
    common(p, input_file=False)

    p = sub.add_parser("equal", help="decide or certify a word equality")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true", help="coset-table oracle (default)")
    mode.add_argument("--search", action="store_true", help="derivation-chain search")
    mode.add_argument("--rewrite", action="store_true", help="Knuth-Bendix normal forms")
    p.add_argument("--max-word-len", type=_budget_value, default=DEFAULT_MAX_WORD_LEN)
    p.add_argument("--max-nodes", type=_budget_value, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-rules", type=_budget_value, default=DEFAULT_MAX_RULES)
    p.add_argument("--max-len", type=_budget_value, default=DEFAULT_MAX_LEN)
    common(p)

    p = sub.add_parser("kernel", help="kernel description for a quotient surface")
    p.add_argument("--quotient", required=True, help="quotient surface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--full-braid", action="store_true",
                   help="describe ker j* (full braid group) instead of ker i*")
    p.add_argument("--presentation-out", default=None,
                   help="write the explicit presentation here when available")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cover", help="covering impossibility certificates")
    p.add_argument("--from", required=True, dest="cover_surface")
    p.add_argument("--to", required=True, dest="base_surface")
    p.add_argument("--sheets", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("quotients", help="quotient-surface candidates of a free action")
    p.add_argument("--surface", required=True)
    p.add_argument("--sheets", type=int, required=True)
    p.add_argument("--strict-orientability", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-derivation", help="replay a derivation chain file")
    p.add_argument("chain_file")
    common(p, max_cosets=False)

    return parser


def _load_presentation(args) -> presentations.Presentation:
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return presentations.parse_presentation(text)


def _budget(args) -> int:
    if args.max_cosets is not None:
        return args.max_cosets
    env = os.environ.get(ENV_MAX_COSETS)
    if env is None:
        return DEFAULT_MAX_COSETS
    try:
        return _budget_value(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{ENV_MAX_COSETS}: {exc}") from None


def _enumerate(args, p: presentations.Presentation) -> coset.CosetTable:
    table = coset.todd_coxeter(p, max_cosets=_budget(args))
    if not table.is_complete:
        raise _Undecided(f"enumeration budget exhausted at {table.n_cosets} live cosets")
    return table


def _resolve_element(args, p: presentations.Presentation):
    if args.element == "tau":
        n = atlas.rp2_strand_count(p)
        if n is None:
            raise UsageError(
                '"tau" is only defined on atlas rp2 presentations '
                f"(group name is {p.name!r})")
        return atlas.tau_n(n)
    return parse_word(args.element, p.alphabet)


# command bodies: each returns (answer, JSON payload, text lines) -------------

def _cmd_build(args):
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
        if not k.isdigit() or int(k) < 1:
            raise UsageError(f"bad crosscap count {k!r}")
        p = atlas.pi1_nonorientable(int(k))
    else:
        raise UsageError(f"unknown atlas surface {args.surface!r}")
    text = presentations.format_presentation(p)
    return True, {"presentation": text}, text.splitlines()


def _cmd_order(args):
    order = coset.group_order(_enumerate(args, _load_presentation(args)))
    return True, {"order": order}, [str(order)]


def _cmd_central(args):
    p = _load_presentation(args)
    w = _resolve_element(args, p)
    central = coset.is_central_finite(_enumerate(args, p), w)
    return (central, {"element": format_word(w), "central": central},
            [f"{format_word(w)} is {'central' if central else 'not central'}"])


def _cmd_abelianize(args):
    inv = presentations.abelianization(_load_presentation(args))
    return (True, {"rank": inv.rank, "torsion": list(inv.torsion)},
            [f"rank {inv.rank}, torsion {list(inv.torsion)}"])


def _cmd_hom_check(args):
    with open(args.map_file, encoding="utf-8") as fh:
        hom = presentations.parse_hom_file(fh.read())
    oracle = coset.table_equality_oracle(_enumerate(args, hom.target))
    result = presentations.hom_check(hom, oracle)
    if result.status == "undecided":
        raise _Undecided(f"target oracle could not decide relator {result.relator_index}")
    payload = {"status": result.status, "failing_relator": result.relator_index}
    return (result.verified, payload, [result.status if result.verified else
                                       f"{result.status} at relator {result.relator_index}"])


def _cmd_equal(args):
    p = _load_presentation(args)
    lhs = parse_word(args.lhs, p.alphabet)
    rhs = parse_word(args.rhs, p.alphabet)
    if args.search:
        chain = derivations.search_equality(p, lhs, rhs, max_word_len=args.max_word_len,
                                            max_nodes=args.max_nodes)
        if chain is None:
            raise _Undecided("no chain found within budget")
        text = derivations.format_chain(chain)
        return (True, {"equal": True, "steps": len(chain.steps), "chain": text},
                ["equal", text.rstrip()])
    if args.rewrite:
        rs = rewriting.knuth_bendix(p, max_rules=args.max_rules, max_len=args.max_len)
        same = rewriting.rewrite_equality_oracle(rs)(lhs, rhs)
        if same is None:
            raise _Undecided("rewriting system is not confluent")
        return (same, {"equal": same, "confluent": rs.confluent},
                ["equal" if same else "not equal"])
    same = coset.word_equal_finite(_enumerate(args, p), lhs, rhs)
    return same, {"equal": same}, ["equal" if same else "not equal"]


def _cmd_kernel(args):
    surface = surfaces.parse_surface(args.quotient)
    params = None
    if args.q is not None or args.r is not None:
        if args.q is None or args.r is None:
            raise UsageError("--q and --r must be given together")
        params = (args.q, args.r)
    desc = coverings.kernel_description(surface, args.n, not args.full_braid, params)
    pres_file = None
    if desc.presentation is not None and args.presentation_out:
        with open(args.presentation_out, "w", encoding="utf-8") as fh:
            fh.write(presentations.format_presentation(desc.presentation))
        pres_file = args.presentation_out
    lines = [f"case: {desc.case}",
             f"kernel: {desc.description}",
             f"base surface: {surfaces.describe_surface(surface)}"]
    if desc.presentation is not None:
        lines.append("explicit presentation: available"
                     + (f" (written to {pres_file})" if pres_file else ""))
    return True, desc.to_json_dict(pres_file), lines


def _cmd_cover(args):
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


def _cmd_quotients(args):
    candidates = coverings.quotient_candidates(
        surfaces.parse_surface(args.surface), args.sheets, args.strict_orientability)
    lines = []
    payload = []
    for cand in candidates:
        entry = {"surface": cand.label, "orientable": cand.orientable,
                 "genus": cand.genus}
        note = surfaces.describe_surface(cand)
        if cand == surfaces.TORUS:
            forms = coverings.torus_action_forms(args.sheets)
            entry["group_forms"] = [list(f) for f in forms]
            note += "; acting group Z/q + Z/r with (q,r) in " + str(forms)
        lines.append(note)
        payload.append(entry)
    return True, payload, lines if lines else ["(no candidates)"]


def _cmd_check_derivation(args):
    p = _load_presentation(args)
    with open(args.chain_file, encoding="utf-8") as fh:
        chain = derivations.parse_chain_file(fh.read(), p)
    report = derivations.check_derivation(chain)
    if report.failing_step is not None:
        return False, {"valid": False, "error": report.message}, [f"invalid: {report.message}"]
    return (report.valid, {"valid": report.valid, "steps": len(chain.steps),
                           "message": report.message},
            [("valid: " if report.valid else "invalid: ") + report.message])


_COMMANDS = {
    "build": _cmd_build,
    "order": _cmd_order,
    "central": _cmd_central,
    "abelianize": _cmd_abelianize,
    "hom-check": _cmd_hom_check,
    "equal": _cmd_equal,
    "kernel": _cmd_kernel,
    "cover": _cmd_cover,
    "quotients": _cmd_quotients,
    "check-derivation": _cmd_check_derivation,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        answer, payload, lines = _COMMANDS[args.command](args)
        if args.json:
            import json  # only --json output needs it
            print(json.dumps({"result": payload}, indent=2))
        else:
            for line in lines:
                print(line)
    except _Undecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (UsageError, BraidkernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return {True: EXIT_OK, False: EXIT_NEGATIVE, None: EXIT_UNDECIDED}[answer]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
