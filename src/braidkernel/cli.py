"""Batch command-line interface.

Each command returns a tri-state answer; ``run`` alone prints and
picks the exit code: 0 success (True), 1 negative mathematical answer
(False: not equal, not central, covering impossible, invalid chain),
2 inconclusive (``base.Undecided``: a budget ran out, or a word is over
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
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import (
    DEFAULT_MAX_COSETS, DEFAULT_MAX_LEN, DEFAULT_MAX_NODES, DEFAULT_MAX_RULES, DEFAULT_MAX_WORD_LEN,
    presentations,
)
from .base import BraidkernelError, Undecided

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
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return presentations.parse_presentation(text)


# command -> (handler, help line, options); the handler names the module of braidkernel.commands
# whose handle(args) runs the command.  run() imports it once the command line has parsed, so
# a process compiles only its own command's code (with no bytecode cache, every process
# compiles all the source it executes).  An option is flag -> (dest, kind, default, help).
# The kind bool is a switch; str, int and _budget_value convert a value.  No dashes: positional.
_REQUIRED = object()
_JSON = {"--json": ("json", bool, False, "machine-readable output")}
_INPUT = {"--input": ("input", str, None, "presentation file (default: stdin)")}
_MAX_COSETS = {"--max-cosets": ("max_cosets", _budget_value, DEFAULT_MAX_COSETS,
                                "enumeration budget: most live cosets")}
_COMMANDS = {
    "build": ("build", "print an atlas presentation", {
        "--surface": ("surface", str, _REQUIRED, "rp2, torus, klein, quaternion, nonorientable:k"),
        "--n": ("n", int, None, "strand count (rp2)"), **_JSON}),
    "order": ("order", "group order by coset enumeration", {**_INPUT, **_MAX_COSETS, **_JSON}),
    "central": ("central", "test centrality in a finite group, or in an atlas P_n(RP2) and "
                "its quotients", {
        "--element": ("element", str, _REQUIRED, 'a word, or "tau" on an atlas rp2 presentation'),
        **_INPUT, **_MAX_COSETS, **_JSON}),
    "abelianize": ("abelianize", "abelian invariants", {**_INPUT, **_JSON}),
    "hom-check": ("hom_check", "verify a homomorphism map file into a finite group, or into "
                  "an atlas P_n(RP2) and its quotients", {
        "--map": ("map_file", str, _REQUIRED, "map file"), **_MAX_COSETS, **_JSON}),
    "equal": ("equal", "decide or certify a word equality", {
        "--lhs": ("lhs", str, _REQUIRED, "a word"), "--rhs": ("rhs", str, _REQUIRED, "a word"),
        "--table": ("table", bool, False, "coset-table oracle (default)"),
        "--search": ("search", bool, False, "derivation-chain search"),
        "--rewrite": ("rewrite", bool, False, "Knuth-Bendix normal forms"),
        "--max-word-len": ("max_word_len", _budget_value, DEFAULT_MAX_WORD_LEN,
                           "most letters in any word of a chain, both ends included"),
        "--max-nodes": ("max_nodes", _budget_value, DEFAULT_MAX_NODES, "search budget"),
        "--max-rules": ("max_rules", _budget_value, DEFAULT_MAX_RULES, "rewrite budget"),
        "--max-len": ("max_len", _budget_value, DEFAULT_MAX_LEN, "rewrite budget"),
        **_INPUT, **_MAX_COSETS, **_JSON}),
    "kernel": ("kernel", "kernel description for a quotient surface", {
        "--quotient": ("quotient", str, _REQUIRED, "quotient surface"),
        "--n": ("n", int, _REQUIRED, "strand count"),
        "--q": ("q", int, None, "torus action Z/q + Z/r"), "--r": ("r", int, None, "with --q"),
        "--full-braid": ("full_braid", bool, False, "ker j* (full braid group), not ker i*"),
        "--presentation-out": ("presentation_out", str, None, "write the presentation here"),
        **_JSON}),
    "cover": ("cover", "covering impossibility certificates", {
        "--from": ("cover_surface", str, _REQUIRED, "covering surface"),
        "--to": ("base_surface", str, _REQUIRED, "base surface"),
        "--sheets": ("sheets", int, _REQUIRED, "number of sheets"), **_JSON}),
    "quotients": ("quotients", "quotient-surface candidates of a free action", {
        "--surface": ("surface", str, _REQUIRED, "surface acted on"),
        "--sheets": ("sheets", int, _REQUIRED, "order of the acting group"),
        "--strict-orientability": ("strict_orientability", bool, False,
                                   "keep only quotients the orientation rule allows"), **_JSON}),
    "check-derivation": ("check_derivation", "replay a derivation chain file", {
        "CHAIN_FILE": ("chain_file", str, _REQUIRED, "derivation chain file"), **_INPUT, **_JSON}),
}


def _parse(argv: list[str]):
    """The handler argv names (its command module's name, or _help) and its options as
    attributes, read against _COMMANDS."""
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
        if handler is not _help:
            handler = import_module(f"{__package__}.commands.{handler}").handle
        answer, payload, lines = handler(args)
        if args.json:
            import json  # only --json output needs it
            text = json.dumps({"result": payload}, indent=2)
        else:
            text = "\n".join(lines)
        # flushed here, a failed write is an error (exit 3), not a message at interpreter exit;
        # print does nothing when the process has no stdout (sys.stdout is None)
        print(text, flush=True)
    except Undecided as exc:
        _complain(f"undecided: {exc}")
        return EXIT_UNDECIDED
    except (UsageError, BraidkernelError, OSError, UnicodeDecodeError) as exc:
        _complain(f"error: {exc}")
        return EXIT_USAGE
    return EXIT_OK if answer else EXIT_NEGATIVE


def _complain(line: str) -> None:
    """One line on stderr, flushed.  A process whose stderr is missing
    (sys.stderr None: print would fall back to stdout) or cannot be written
    (fd 2 closed and reused, a full disk) loses the line, not its exit code."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr, flush=True)
        except OSError:
            pass


def main() -> None:
    # One process runs one command and exits, and no command leaves reference cycles behind
    # but the json encoder's few closures (tests/test_cli.py counts them), so the cyclic
    # collector would only cost time.  For the same reason the process ends at its answer:
    # run() has flushed stdout, and os._exit skips interpreter teardown (module cleanup,
    # the finalizer's collections, freeing every object), which a finished command does not
    # need.  run() leaves the collector on and the interpreter alive for in-process callers.
    gc.disable()
    code = run()
    if sys.stderr is not None:  # None when the process started without fd 2
        try:
            sys.stderr.flush()
        except OSError:  # fd 2 cannot be written; the exit code still stands
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
