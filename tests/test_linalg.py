"""Exact linear algebra: golden cases plus randomized cross-checks."""

import random
from fractions import Fraction

import pytest

from ivhs import ExactMatrix

from oracles import dense_rows, gauss_rank, identity_rows, mat_vec


def M(rows, cols=None):
    return ExactMatrix.from_rows(rows, cols=cols)


def test_rank_identity():
    assert M(identity_rows(3)).rank() == 3


def test_rank_proportional_rows():
    assert M([[1, 1], [2, 2]]).rank() == 1


def test_rank_empty_matrices():
    assert M([], cols=0).rank() == 0
    assert M([], cols=3).rank() == 0
    assert M([[], [], []], cols=0).rank() == 0


def test_kernel_single_relation():
    assert M([[1, 1]]).kernel_basis() == [(1, -1)]


def test_kernel_identity_is_trivial():
    assert M(identity_rows(2)).kernel_basis() == []


def test_kernel_of_zero_row_count():
    assert M([], cols=3).kernel_basis() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_rref_scaling():
    reduced, pivots = M([[2, 4]]).rref()
    assert dense_rows(reduced) == [[1, 2]]
    assert pivots == (0,)


def test_rref_identity_fixed_point():
    reduced, pivots = M(identity_rows(3)).rref()
    assert reduced == M(identity_rows(3))
    assert pivots == (0, 1, 2)


def test_rref_permutation():
    reduced, pivots = M([[0, 1], [1, 0]]).rref()
    assert reduced == M(identity_rows(2))
    assert pivots == (0, 1)


def test_fraction_entries():
    m = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert m.rank() == 2
    reduced, _ = m.rref()
    assert reduced == M(identity_rows(2))


def _random_matrix(rng):
    rows = rng.randrange(1, 6)
    cols = rng.randrange(1, 6)
    entries = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
    return M(entries)


@pytest.mark.parametrize("seed", [7, 2024])
def test_random_matrices_against_oracle(seed):
    rng = random.Random(seed)
    for _ in range(200):
        m = _random_matrix(rng)
        rank = m.rank()
        kernel = m.kernel_basis()
        # rank-nullity, exactly
        assert rank + len(kernel) == m.cols
        # rank is transpose-invariant and matches an independent elimination
        rows = dense_rows(m)
        transposed = [list(col) for col in zip(*rows)]
        assert rank == M(transposed, cols=m.rows).rank() == gauss_rank(transposed)
        assert rank == gauss_rank(rows)
        # kernel vectors are in the kernel, primitive, and sign-normalized
        for v in kernel:
            assert all(e == 0 for e in mat_vec(rows, v))
            lead = next(e for e in v if e)
            assert lead > 0
        # rref is idempotent
        reduced, pivots = m.rref()
        again, pivots2 = reduced.rref()
        assert again == reduced
        assert pivots2 == pivots
        assert list(pivots) == sorted(pivots)


def test_entry_count_validated():
    with pytest.raises(ValueError, match="expected 2 rows"):
        ExactMatrix(2, 2, ({0: Fraction(1)},))
    for row in ({5: 1}, {2: 1}, {-1: 1}, {1: 1, 0: 2, 7: 3}):
        with pytest.raises(ValueError, match="not all in"):
            ExactMatrix(1, 2, (row,))
    with pytest.raises(ValueError, match="ragged"):
        M([[1, 2], [3]])
    # No zero is stored and columns come out increasing, so == agrees with from_rows.
    m = ExactMatrix(2, 3, ({2: 1, 0: Fraction(4, 2), 1: 0}, {1: Fraction(0)}))
    assert m == M([[2, 0, 1], [0, 0, 0]])
    assert [list(row.items()) for row in m.sparse] == [[(0, 2), (2, 1)], []]
    assert type(m.sparse[0][0]) is int
    assert list(ExactMatrix(1, 3, ({2: 1, 0: 2},)).sparse[0].items()) == [(0, 2), (2, 1)]
    # A row already in that form is kept as it is, Fractions included.
    row = {0: 1, 2: Fraction(1, 3)}
    assert ExactMatrix(1, 3, (row,)).sparse[0] is row
