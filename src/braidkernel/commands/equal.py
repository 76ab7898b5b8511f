"""``braidkernel equal``: decide or certify a word equality."""

from .. import coset, derivations, rewriting
from ..base import BraidkernelError, Undecided
from ..cli import UsageError, _load_presentation
from ..words import parse_word
from .chain import first_answer, tower_links


def handle(args):
    modes = [flag for flag in ("--table", "--search", "--rewrite") if getattr(args, flag[2:])]
    if len(modes) > 1:
        raise UsageError(f"equal: {' and '.join(modes)} exclude each other")
    p = _load_presentation(args)
    u, v = (parse_word(word, p.alphabet) for word in (args.lhs, args.rhs))

    def answer(same, *lines, **fields):
        return same, {"equal": same, **fields}, ["equal" if same else "not equal", *lines]

    def table():
        return answer(coset.word_equal_finite(coset.todd_coxeter(p, max_cosets=args.max_cosets),
                                              u, v))

    def search():  # a chain proves only "equal"
        chain = derivations.search_equality(p, u, v, max_word_len=args.max_word_len,
                                            max_nodes=args.max_nodes)
        if chain is None:
            raise Undecided("no chain found within budget")
        text = derivations.format_chain(chain)
        return answer(True, text.rstrip(), steps=len(chain.steps), chain=text)

    def rewrite():
        rs = rewriting.knuth_bendix(p, max_rules=args.max_rules, max_len=args.max_len)
        return answer(rewriting.rewrite_equality_oracle(rs)(u, v), confluent=rs.confluent)

    def witness():  # a checked index-2 witness proves only "not equal"
        from .. import schreier
        found = schreier.find_witness(p, u, v)
        if found is None:
            raise Undecided("no index-2 witness separates the words")
        if not schreier.check_witness(p, u, v, found):  # a defect of the search
            raise BraidkernelError("the index-2 witness found failed its check")
        return answer(False, witness=schreier.witness_json(p, found))

    link = ({True}, search) if args.search else ({True, False}, rewrite if args.rewrite else table)
    return first_answer([link, ({False}, witness),
                         *tower_links(p, lambda tower: answer(tower(u, v), engine="tower"))])
