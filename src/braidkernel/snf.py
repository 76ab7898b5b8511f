"""Smith normal form over the integers.

Pure-int row/column reduction tracking unimodular transforms on both
sides.  Python integers are unbounded, so the arithmetic is exact by
construction and no overflow case exists.  The matrices fed to this
module (relator exponent-sum matrices) are tiny; clarity wins over
asymptotics.
"""

from __future__ import annotations

from .words import BraidkernelError


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
    """
    rows, cols = _validate(mat)
    a = [list(row) for row in mat]
    left = _identity(rows)
    right = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row dst += factor * row src
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + factor * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, factor):
        for row in a:
            row[dst] += factor * row[src]
        for row in right:
            row[dst] += factor * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def pick_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        pos = pick_pivot(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])

        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        # remainder is a smaller pivot candidate
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # pivot cross is clear; force divisibility over the rest
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)

        if a[t][t] < 0:
            negate_row(t)

    diag = [a[j][j] if j < rows else 0 for j in range(cols)]
    return diag, left, right
