"""Batch command-line interface.

Each command returns a tri-state answer; ``run`` alone prints and
picks the exit code: 0 success (True), 1 negative mathematical answer
(False: not equal, not central, covering impossible, invalid chain),
2 inconclusive (``words.Undecided``: a budget ran out, or a word is over
the letter-expansion limit; one ``undecided: <reason>`` line on stderr,
nothing on stdout), 3 usage or parse error.  With ``--json``, each
command prints a single JSON object carrying a ``result`` field.

Presentations are read from ``--input FILE`` or stdin, so commands
pipe: ``braidkernel build --surface rp2 --n 2 | braidkernel order``.
Options are ``--flag value`` or ``--flag=value``, and the last of a repeated
flag wins; ``braidkernel COMMAND --help`` lists the command's options.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from . import (
    DEFAULT_MAX_COSETS, DEFAULT_MAX_LEN, DEFAULT_MAX_NODES, DEFAULT_MAX_RULES, DEFAULT_MAX_WORD_LEN,
    atlas, coset, coverings, derivations, presentations, rewriting, surfaces,
)
from .words import BraidkernelError, Undecided, format_word, parse_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


def _budget_value(text: str) -> int:
    """The kind of the budget flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _load_presentation(args) -> presentations.Presentation:
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return presentations.parse_presentation(text)


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
        if not (count := surfaces.parse_count(k)):
            raise UsageError(f"bad crosscap count {k!r}")
        p = atlas.pi1_nonorientable(count)
    else:
        raise UsageError(f"unknown atlas surface {args.surface!r}")
    text = presentations.format_presentation(p)
    return True, {"presentation": text}, text.splitlines()


def _cmd_order(args):
    table = coset.todd_coxeter(_load_presentation(args), max_cosets=args.max_cosets)
    order = coset.group_order(table)
    return True, {"order": order}, [str(order)]


def _cmd_central(args):
    p = _load_presentation(args)
    w = _resolve_element(args, p)
    central = coset.is_central_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), w)
    return (central, {"element": format_word(w), "central": central},
            [f"{format_word(w)} is {'central' if central else 'not central'}"])


def _cmd_abelianize(args):
    inv = presentations.abelianization(_load_presentation(args))
    return (True, {"rank": inv.rank, "torsion": list(inv.torsion)},
            [f"rank {inv.rank}, torsion {list(inv.torsion)}"])


def _cmd_hom_check(args):
    with open(args.map_file, encoding="utf-8") as fh:
        hom = presentations.parse_hom_file(fh.read())
    table = coset.todd_coxeter(hom.target, max_cosets=args.max_cosets)
    result = presentations.hom_check(hom, coset.table_equality_oracle(table))
    payload = {"status": result.status, "failing_relator": result.relator_index}
    return (result.verified, payload, [result.status if result.verified else
                                       f"{result.status} at relator {result.relator_index}"])


def _cmd_equal(args):
    modes = [flag for flag in ("--table", "--search", "--rewrite") if getattr(args, flag[2:])]
    if len(modes) > 1:
        raise UsageError(f"equal: {' and '.join(modes)} exclude each other")
    p = _load_presentation(args)
    lhs = parse_word(args.lhs, p.alphabet)
    rhs = parse_word(args.rhs, p.alphabet)
    if args.search:
        chain = derivations.search_equality(p, lhs, rhs, max_word_len=args.max_word_len,
                                            max_nodes=args.max_nodes)
        if chain is None:
            raise Undecided("no chain found within budget")
        text = derivations.format_chain(chain)
        return (True, {"equal": True, "steps": len(chain.steps), "chain": text},
                ["equal", text.rstrip()])
    if args.rewrite:
        rs = rewriting.knuth_bendix(p, max_rules=args.max_rules, max_len=args.max_len)
        same = rewriting.rewrite_equality_oracle(rs)(lhs, rhs)
        return (same, {"equal": same, "confluent": rs.confluent},
                ["equal" if same else "not equal"])
    same = coset.word_equal_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets), lhs, rhs)
    return same, {"equal": same}, ["equal" if same else "not equal"]


def _cmd_kernel(args):
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
    return True, payload, lines


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


# command -> (handler, help line, options); an option is flag -> (dest, kind, default, help).
# The kind bool is a switch; str, int and _budget_value convert a value.  No dashes: positional.
_REQUIRED = object()
_JSON = {"--json": ("json", bool, False, "machine-readable output")}
_INPUT = {"--input": ("input", str, None, "presentation file (default: stdin)")}
_MAX_COSETS = {"--max-cosets": ("max_cosets", _budget_value, DEFAULT_MAX_COSETS,
                                "enumeration budget: most live cosets")}
_COMMANDS = {
    "build": (_cmd_build, "print an atlas presentation", {
        "--surface": ("surface", str, _REQUIRED, "rp2, torus, klein, quaternion, nonorientable:k"),
        "--n": ("n", int, None, "strand count (rp2)"), **_JSON}),
    "order": (_cmd_order, "group order by coset enumeration", {**_INPUT, **_MAX_COSETS, **_JSON}),
    "central": (_cmd_central, "test centrality in the finite group", {
        "--element": ("element", str, _REQUIRED, 'a word, or "tau" on an atlas rp2 presentation'),
        **_INPUT, **_MAX_COSETS, **_JSON}),
    "abelianize": (_cmd_abelianize, "abelian invariants", {**_INPUT, **_JSON}),
    "hom-check": (_cmd_hom_check, "verify a homomorphism map file", {
        "--map": ("map_file", str, _REQUIRED, "map file"), **_MAX_COSETS, **_JSON}),
    "equal": (_cmd_equal, "decide or certify a word equality", {
        "--lhs": ("lhs", str, _REQUIRED, "a word"), "--rhs": ("rhs", str, _REQUIRED, "a word"),
        "--table": ("table", bool, False, "coset-table oracle (default)"),
        "--search": ("search", bool, False, "derivation-chain search"),
        "--rewrite": ("rewrite", bool, False, "Knuth-Bendix normal forms"),
        "--max-word-len": ("max_word_len", _budget_value, DEFAULT_MAX_WORD_LEN, "search budget"),
        "--max-nodes": ("max_nodes", _budget_value, DEFAULT_MAX_NODES, "search budget"),
        "--max-rules": ("max_rules", _budget_value, DEFAULT_MAX_RULES, "rewrite budget"),
        "--max-len": ("max_len", _budget_value, DEFAULT_MAX_LEN, "rewrite budget"),
        **_INPUT, **_MAX_COSETS, **_JSON}),
    "kernel": (_cmd_kernel, "kernel description for a quotient surface", {
        "--quotient": ("quotient", str, _REQUIRED, "quotient surface"),
        "--n": ("n", int, _REQUIRED, "strand count"),
        "--q": ("q", int, None, "torus action Z/q + Z/r"), "--r": ("r", int, None, "with --q"),
        "--full-braid": ("full_braid", bool, False, "ker j* (full braid group), not ker i*"),
        "--presentation-out": ("presentation_out", str, None, "write the presentation here"),
        **_JSON}),
    "cover": (_cmd_cover, "covering impossibility certificates", {
        "--from": ("cover_surface", str, _REQUIRED, "covering surface"),
        "--to": ("base_surface", str, _REQUIRED, "base surface"),
        "--sheets": ("sheets", int, _REQUIRED, "number of sheets"), **_JSON}),
    "quotients": (_cmd_quotients, "quotient-surface candidates of a free action", {
        "--surface": ("surface", str, _REQUIRED, "surface acted on"),
        "--sheets": ("sheets", int, _REQUIRED, "order of the acting group"),
        "--strict-orientability": ("strict_orientability", bool, False,
                                   "keep only quotients the orientation rule allows"), **_JSON}),
    "check-derivation": (_cmd_check_derivation, "replay a derivation chain file", {
        "CHAIN_FILE": ("chain_file", str, _REQUIRED, "derivation chain file"), **_INPUT, **_JSON}),
}


def _parse(argv: list[str]):
    """The handler argv names and its options as attributes, read against _COMMANDS."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, SimpleNamespace(command=None, json=False)
    if not argv or argv[0] not in _COMMANDS:
        raise UsageError(f"unknown command {argv[0]!r}" if argv else "no command given")
    name, tokens = argv[0], iter(argv[1:])
    handler, _, options = _COMMANDS[name]
    values = {dest: default for dest, _, default, _ in options.values()}
    positionals = []
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, SimpleNamespace(command=name, json=False)
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in options:
            raise UsageError(f"{name}: unknown option {flag}")
        dest, kind, _, _ = options[flag]
        if kind is bool:
            if eq:
                raise UsageError(f"{name}: {flag} takes no value")
            values[dest] = True
            continue
        if not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"{name}: {flag} needs a value")
        try:
            values[dest] = kind(text)
        except ValueError:
            raise UsageError(f"{name}: {flag} expected an integer"
                             f"{' >= 1' if kind is _budget_value else ''}, got {text!r}") from None
    slots = [dest for flag, (dest, *_) in options.items() if not flag.startswith("-")]
    if len(positionals) > len(slots):
        raise UsageError(f"{name}: unexpected argument {positionals[len(slots)]!r}")
    values.update(zip(slots, positionals))
    missing = [flag for flag, (dest, *_) in options.items() if values[dest] is _REQUIRED]
    if missing:
        raise UsageError(f"{name}: missing {', '.join(missing)}")
    return handler, SimpleNamespace(**values)


def _help(args):
    """The program's help, or one command's: a command body whose answer is the text."""
    if args.command is None:
        lines = ["usage: braidkernel COMMAND [options]", "", *__doc__.splitlines(), "", "commands:"]
        rows = [(command, line) for command, (_, line, _) in _COMMANDS.items()]
    else:
        _, line, options = _COMMANDS[args.command]
        lines = [f"usage: braidkernel {args.command} [options]", "", line, "", "options:"]
        rows = [(flag if kind is bool or not flag.startswith("-") else f"{flag} {dest.upper()}",
                 text + (" (required)" if default is _REQUIRED else
                         f" (default {default})" if default not in (None, False) else ""))
                for flag, (dest, kind, default, text) in options.items()]
    return True, None, lines + [f"  {left:<26} {right}" for left, right in rows]


def run(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        answer, payload, lines = handler(args)
        if args.json:
            import json  # only --json output needs it
            print(json.dumps({"result": payload}, indent=2))
        else:
            for line in lines:
                print(line)
    except Undecided as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except (UsageError, BraidkernelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if answer else EXIT_NEGATIVE


def main() -> None:
    # One process runs one command and exits, and no command leaves reference cycles behind
    # but the json encoder's few closures (tests/test_cli.py counts them), so the cyclic
    # collector would only cost time.  run() leaves it on for in-process callers.
    gc.disable()
    sys.exit(run())


if __name__ == "__main__":
    main()
