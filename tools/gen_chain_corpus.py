#!/usr/bin/env python3
"""Regenerate the derivation-chain corpus under tests/data/.

A full run takes about 12 s on a 2-core machine, most of it in the
two conj_rho_squared_n3 searches.  The test run re-derives the n=2
files and braidlike_n3; CI reruns this tool and fails if any file
under tests/data changes, which pins the search's visit order.
Chain step sequences are whatever the bounded search finds first; only
their endpoints are mathematically meaningful.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

CASES = [
    ("b12_as_rho_n2.chain", 2, "B12", "rho2 rho1^-1 rho2^-1 rho1", 12, 200000),
    ("braidlike_n2.chain", 2, "rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1", 12, 200000),
    ("conj_rho_squared_n2.chain", 2, "B12^-1 rho2 B12", "rho1^-2 rho2 rho1^2", 12, 200000),
    ("braidlike_n3.chain", 3, "rho1 rho2 rho1 rho2", "rho2 rho1 rho2 rho1", 12, 300000),
    ("conj_rho_squared_n3.chain", 3, "B13^-1 rho3 B13", "rho1^-2 rho3 rho1^2", 12, 300000),
    ("conj_rho_squared_n3_23.chain", 3, "B23^-1 rho3 B23", "rho2^-2 rho3 rho2^2", 12, 300000),
]


def main():
    from braidkernel.atlas import pure_braid_rp2
    from braidkernel.derivations import check_derivation, format_chain, search_equality

    DATA.mkdir(parents=True, exist_ok=True)
    for fname, n, lhs, rhs, cap, nodes in CASES:
        p = pure_braid_rp2(n)
        chain = search_equality(p, p.word(lhs), p.word(rhs),
                                max_word_len=cap, max_nodes=nodes)
        if chain is None:
            raise SystemExit(f"{fname}: search failed, raise the budgets")
        assert check_derivation(chain).valid
        (DATA / fname).write_text(format_chain(chain))
        print(f"{fname}: {len(chain.steps)} steps")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
