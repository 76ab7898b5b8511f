"""``braidkernel equal``: decide or certify a word equality."""

from .. import coset, derivations, rewriting
from ..base import Undecided
from ..cli import UsageError, _load_presentation
from ..words import parse_word


def handle(args):
    modes = [flag for flag in ("--table", "--search", "--rewrite") if getattr(args, flag[2:])]
    if len(modes) > 1:
        raise UsageError(f"equal: {' and '.join(modes)} exclude each other")
    p = _load_presentation(args)
    lhs = parse_word(args.lhs, p.alphabet)
    rhs = parse_word(args.rhs, p.alphabet)
    try:
        return _decide(args, p, lhs, rhs)
    except Undecided:
        # an index-2 witness can still prove the words differ; only this path loads
        # schreier and snf, and a certificate is printed only once it is checked
        from .. import schreier
        witness = schreier.find_witness(p, lhs, rhs)
        if witness is None or not schreier.check_witness(p, lhs, rhs, witness):
            raise
        return (False, {"equal": False, "witness": schreier.witness_json(p, witness)},
                ["not equal"])


def _decide(args, p, lhs, rhs):
    """The answer of the engine the options name."""
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
