"""Smith normal form over the integers.

Pure-int row/column reduction tracking unimodular transforms on both
sides.  Python integers are unbounded, so the arithmetic is exact by
construction and no overflow case exists.  Each pivot is the smallest
nonzero entry in absolute value of the remaining submatrix; choosing it
afresh after every round keeps entries and transforms small, where
reducing against a fixed pivot lets them grow without bound
(Kannan-Bachem 1979; Havas-Holt-Rees 1993).
"""

from __future__ import annotations

from math import gcd, lcm

from .base import BraidkernelError


class MatrixError(BraidkernelError):
    pass


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _validate(mat) -> tuple[int, int]:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for row in mat:
        if len(row) != cols:
            raise MatrixError("matrix rows have unequal lengths")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise MatrixError(f"non-integer entry {x!r}")
    return rows, cols


def smith_normal_form(mat) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular transforms.

    Returns ``(diag, left, right)`` with ``left @ mat @ right`` equal to
    the diagonal matrix whose entries are ``diag`` (one entry per
    column; entries past the row count are zero).  The diagonal is
    nonnegative and each entry divides the next.

    Step t takes as pivot the smallest nonzero |entry| in rows and
    columns t onward, moves it to (t, t), and clears its column and row
    with floor quotients.  It repeats while a remainder survives, or
    while the pivot fails to divide some entry of the rest (after adding
    that entry's row to row t).
    """
    rows, cols = _validate(mat)
    a = [list(row) for row in mat]
    left = _identity(rows)
    right = _identity(cols)

    def sub_row(src, dst, q):  # row dst -= q * row src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x - q * y for x, y in zip(left[dst], left[src])]

    for t in range(min(rows, cols)):
        while True:
            pivot = min(((abs(x), i, j) for i in range(t, rows)
                         for j, x in enumerate(a[i][t:], t) if x), default=None)
            if pivot is None:
                break
            _, i, j = pivot
            a[t], a[i], left[t], left[i] = a[i], a[t], left[i], left[t]
            for row in a + right:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                if a[i][t]:
                    sub_row(t, i, a[i][t] // p)
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // p
                    for row in a + right:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
                continue
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in a[i][t + 1:])), None)
            if offender is None:
                break
            sub_row(offender, t, -1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
    return [a[j][j] if j < rows else 0 for j in range(cols)], left, right


def invariant_factors(rows, cols: int) -> list[int]:
    """The diagonal ``smith_normal_form`` returns, without its transforms, for
    the ``cols``-column matrix of ``rows``, each {column: nonzero entry}.

    A row whose one entry is alone in its column is a Smith block already
    (its row and column split off the rest), so only the rest is written out
    dense for the reduction.  The blocks and the rest's diagonal then merge
    into the divisibility chain by gcd/lcm passes: Z/a + Z/b = Z/gcd(a, b) +
    Z/lcm(a, b), and a zero entry (a free factor) is the last of any chain.
    No entry is factored, and none is checked: ``presentations.abelianization``
    passes exponent sums.
    """
    uses = [0] * cols
    for row in rows:
        for j in row:
            uses[j] += 1
    blocks, split = [], set()
    for row in rows:
        if len(row) == 1 and uses[j := next(iter(row))] == 1:
            blocks.append(abs(row[j]))
            split.add(j)
    keep = [j for j in range(cols) if j not in split]
    rest = [[row.get(j, 0) for j in keep] for row in rows if row and next(iter(row)) not in split]
    diag = blocks + (smith_normal_form(rest)[0] if rest else [0] * len(keep))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a != b and (a == 0 or b % a):  # a does not divide b already
                diag[i], diag[j] = gcd(a, b), lcm(a, b)
    return diag
