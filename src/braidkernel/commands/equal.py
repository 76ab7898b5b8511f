"""``braidkernel equal``: decide or certify a word equality."""

from .. import FIBER_ALPHABET, coset, derivations, rewriting
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
    # On P3(RP2) the fiber subgroup decides the words exactly.  A chain only proves "equal",
    # so --search asks the fiber first and never searches words it separates; --table and
    # --rewrite run first, since their finite quotients answer in about a millisecond
    same = _fiber_answer(p, lhs, rhs) if args.search else None
    if same is False:
        return _not_equal(p, lhs, rhs, fiber_separates=True)
    try:
        return _decide(args, p, lhs, rhs)
    except Undecided as undecided:
        if not args.search:
            same = _fiber_answer(p, lhs, rhs)
        # no witness separates equal words, so the fiber's "equal" needs no witness search
        if same:
            return True, {"equal": True, "engine": "fiber"}, ["equal"]
        answer = _not_equal(p, lhs, rhs, fiber_separates=same is False)
        if answer is None:
            raise undecided from None
        return answer


def _not_equal(p, lhs, rhs, fiber_separates):
    """The "not equal" of an index-2 witness, printed only once it is checked, else of the
    fiber oracle when it separates the words; None when neither answers."""
    from .. import schreier
    witness = schreier.find_witness(p, lhs, rhs)
    if witness is not None and schreier.check_witness(p, lhs, rhs, witness):
        return (False, {"equal": False, "witness": schreier.witness_json(p, witness)},
                ["not equal"])
    if fiber_separates:
        return False, {"equal": False, "engine": "fiber"}, ["not equal"]
    return None


def _fiber_answer(p, lhs, rhs):
    """The fiber oracle's answer on P3(RP2), or None where it does not apply."""
    if p.alphabet != FIBER_ALPHABET:
        return None
    from .. import fiber
    try:
        return fiber.fiber_oracle(p)(lhs, rhs)
    except Undecided:
        return None


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
