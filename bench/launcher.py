"""Run one braidkernel command with spans around the package's entry points.

Usage: python bench/launcher.py SPANS_FILE ARG...

Times ``import braidkernel.cli``, wraps the coarse public functions of
each module -- in the defining module and in every braidkernel namespace
that imported them by name -- then calls ``braidkernel.cli.run(ARG...)``
and exits with its code.  Spans (name, start, end, parent, result
summary) stay in memory and are written to SPANS_FILE as JSON when the
command returns.  Hot inner helpers (``multiply``, ``free_reduce_letters``,
``word_to_letters``, ``_rewrite``) are not wrapped, so their time is self
time of the engine that calls them.
"""

import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# summaries of a call, from its result and arguments
def _summary_tc(table, args):
    return {"cosets": table.n_cosets, "complete": table.is_complete}


def _summary_kb(rs, args):
    return {"rules": len(rs.rules), "confluent": rs.confluent}


def _summary_search(chain, args):
    return {"found": chain is not None, "steps": len(chain.steps) if chain is not None else 0}


def _summary_snf(result, args):
    mat = args[0]
    return {"cells": len(mat) * (len(mat[0]) if mat else 0)}


def _summary_pow(word, args):
    return {"letters": word.letter_length}


# (module, attribute, span name, summary of the result)
TRACED = (
    ("presentations", "parse_presentation", "presentations.parse", None),
    ("presentations", "hom_check", "presentations.hom_check", None),
    ("presentations", "substitute", "presentations.substitute", None),
    ("presentations", "abelianization", "presentations.abelianization", None),
    ("snf", "smith_normal_form", "snf.smith_normal_form", _summary_snf),
    ("atlas", "pure_braid_rp2", "atlas.pure_braid_rp2", None),
    ("atlas", "tau_n", "atlas.tau_n", None),
    ("coset", "todd_coxeter", "coset.todd_coxeter", _summary_tc),
    ("coset", "word_equal_finite", "coset.query", None),
    ("coset", "is_central_finite", "coset.query", None),
    ("coset", "table_equality_oracle", "coset.query", None),
    ("rewriting", "knuth_bendix", "rewriting.knuth_bendix", _summary_kb),
    ("rewriting", "normal_form", "rewriting.normal_form", None),
    ("derivations", "search_equality", "derivations.search", _summary_search),
    ("derivations", "parse_chain_file", "derivations.replay", None),
    ("derivations", "check_derivation", "derivations.replay", None),
    ("coverings", "can_cover", "coverings.can_cover", None),
    ("coverings", "kernel_description", "coverings.kernel_description", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, summary]
        self._stack = []

    def wrap(self, fn, name, summary):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if summary is not None:
                span[4] = summary(result, args)
            return result
        return traced

    def install(self, package_modules):
        for module_name, attr, name, summary in TRACED:
            original = getattr(package_modules[module_name], attr)
            wrapped = self.wrap(original, name, summary)
            for module in package_modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        word_cls = package_modules["words"].Word
        word_cls.__pow__ = self.wrap(word_cls.__pow__, "words.pow", _summary_pow)


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import braidkernel.cli
    import_s = time.perf_counter() - start
    modules = {name.rpartition(".")[2]: module for name, module in sys.modules.items()
               if name.startswith("braidkernel.")}
    modules["braidkernel"] = sys.modules["braidkernel"]
    tracer = Tracer()
    tracer.install(modules)
    run = tracer.wrap(braidkernel.cli.run, "cli.run", None)
    try:
        return run(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
