"""Smith normal form beyond the fixed cases of test_snf: the diagonal and
certificate on random matrices, transforms that stay small where a
fixed-pivot reduction lets them grow without bound, and invariant_factors,
which splits ready Smith blocks off first, against the dense diagonal."""

import random

from hypothesis import given, strategies as st

from braidkernel import snf
from braidkernel.snf import invariant_factors, smith_normal_form
from test_snf import check_snf, mat_mul, minors_gcd_invariants

matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          min_size=1, max_size=5))


@given(matrices)
def test_diagonal_matches_minors_and_certificate_holds(mat):
    assert check_snf(mat) == minors_gcd_invariants(mat, len(mat[0]))


def test_transforms_stay_small_on_dense_random_matrices():
    for seed in range(10):
        rng = random.Random(seed)
        mat = [[rng.randint(-9, 9) for _ in range(7)] for _ in range(10)]
        diag, left, right = smith_normal_form(mat)
        bits = max(abs(x).bit_length() for m in (left, right) for row in m for x in row)
        assert bits <= 256, (seed, bits)
        assert mat_mul(mat_mul(left, mat), right) == [
            [diag[j] if i == j else 0 for j in range(7)] for i in range(10)]


@st.composite
def planted_blocks(draw):
    """A random matrix with singleton rows planted in columns of their own: each
    such row and column is a Smith block, and the rows come shuffled.  Zero rows
    and singleton rows that repeat a planted column, which is then no block, ride
    along."""
    rest = draw(matrices)
    cols = len(rest[0])
    nonzero = st.integers(-12, 12).filter(bool)
    entries = draw(st.lists(nonzero, max_size=6))
    mat = [row + [0] * len(entries) for row in rest]
    planted = list(enumerate(entries))
    if entries:
        planted += draw(st.lists(st.tuples(st.integers(0, len(entries) - 1), nonzero), max_size=2))
    for k, x in planted:
        mat.append([0] * (cols + k) + [x] + [0] * (len(entries) - k - 1))
    mat += [[0] * (cols + len(entries))] * draw(st.integers(0, 2))
    return draw(st.permutations(mat))


def sparse(mat):
    """invariant_factors' arguments for a dense matrix: its rows as {column: nonzero
    entry}, and its column count."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat], len(mat[0])


@given(planted_blocks())
def test_invariant_factors_match_the_dense_diagonal(mat):
    assert invariant_factors(*sparse(mat)) == smith_normal_form(mat)[0]


@given(matrices)
def test_invariant_factors_without_blocks_match_the_dense_diagonal(mat):
    assert invariant_factors(*sparse(mat)) == smith_normal_form(mat)[0]


def test_invariant_factors_of_no_rows_are_free():
    assert invariant_factors([], 3) == [0, 0, 0]


def test_a_diagonal_that_sorts_to_a_chain_takes_no_merge_pass(monkeypatch):
    # the blocks 4 and 2 and a free column sort to the chain 2 | 4 | 0, so no gcd/lcm
    # pair is merged: a diagonal of k equal orders costs no k^2/2 pairs
    def merged(a, b):
        raise AssertionError(f"merged {a} and {b}")
    monkeypatch.setattr(snf, "gcd", merged)
    monkeypatch.setattr(snf, "lcm", merged)
    assert invariant_factors([{1: 4}, {2: -2}], 3) == [2, 4, 0]
    assert invariant_factors([{j: 2} for j in range(1000)], 1000) == [2] * 1000
