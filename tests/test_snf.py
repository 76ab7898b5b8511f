import itertools
import math
import random

import pytest

from braidkernel.snf import MatrixError, smith_normal_form


def mat_mul(a, b) -> list[list[int]]:
    """Test oracle: integer matrix product."""
    if not a or not b:
        return []
    assert len(a[0]) == len(b)
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def det(mat) -> int:
    """Test oracle: integer determinant by cofactor expansion (small n)."""
    n = len(mat)
    if n == 0:
        return 1
    assert all(len(row) == n for row in mat), "determinant of a non-square matrix"
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def minors_gcd_invariants(mat, cols):
    """Independent oracle: invariant factors via determinantal divisors.

    d_k = D_k / D_{k-1} where D_k is the gcd of all k x k minors; the
    result is padded with zeros to one entry per column.
    """
    rows = len(mat)
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                minor = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, abs(det(minor)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out + [0] * (cols - len(out))


def check_snf(mat, cols=None):
    cols = len(mat[0]) if mat else (0 if cols is None else cols)
    diag, left, right = smith_normal_form(mat)
    rows = len(mat)
    # reconstruct the diagonal matrix and compare exactly
    product = mat_mul(mat_mul(left, mat), right) if rows else []
    expected = [[diag[j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert product == expected
    assert abs(det(left)) == 1
    assert abs(det(right)) == 1
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    return diag


def test_diag_2_3():
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_single_row_relator_matrix():
    # the relator matrix of the genus-3 nonorientable surface group
    assert check_snf([[2, 2, 2]]) == [2, 0, 0]


def test_zero_matrix():
    assert check_snf([[0, 0], [0, 0]]) == [0, 0]


def test_empty_matrix():
    diag, left, right = smith_normal_form([])
    assert diag == [] and left == [] and right == []


def test_spec_oracle_cases_match_minors():
    for mat in ([[2, 0], [0, 3]], [[2, 2, 2]], [[0, 0], [0, 0]], [[2, -2]]):
        assert check_snf(mat) == minors_gcd_invariants(mat, len(mat[0]))


def test_klein_relator_row():
    assert check_snf([[2, -2]]) == [2, 0]


def test_non_integer_entries_rejected():
    with pytest.raises(MatrixError):
        smith_normal_form([[1.5, 2]])
    with pytest.raises(MatrixError):
        smith_normal_form([[1, 2], [3]])


def test_random_matrices_against_minors_oracle():
    rng = random.Random(20240817)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        assert check_snf(mat) == minors_gcd_invariants(mat, cols)


def test_large_entries_exact():
    # arbitrary-precision integers: no overflow at any width
    mat = [[2 ** 70, 3 ** 40], [5 ** 30, 7 ** 25]]
    check_snf(mat)
