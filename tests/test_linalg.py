"""`ExactMatrix`, which no command builds: its input checks, and its rank, RREF and kernel.

The class stays only for the four names the benchmark's tracer wraps
(`perfbench/spans.py`). Its rank, RREF and canonical kernel are checked
against the independent oracles on golden cases and a fixed set of
seeded matrices; the eliminations the commands run are checked in
`test_linalg_properties.py`.
"""

import random
from fractions import Fraction

import pytest

import ivhs
from ivhs.cli import run_command
from ivhs.linalg import ExactMatrix

from oracles import (dense_rows, gauss_eliminate, gauss_kernel, gauss_rank, identity_rows,
                     mat_vec, primitive)


def M(rows, cols=None):
    return ExactMatrix.from_rows(rows, cols=cols)


def test_exact_matrix_is_not_library_api():
    assert "ExactMatrix" not in ivhs.__all__
    with pytest.raises(AttributeError, match="ExactMatrix"):
        ivhs.ExactMatrix


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
    assert dense_rows(reduced) == identity_rows(3)
    assert pivots == (0, 1, 2)


def test_rref_permutation():
    reduced, pivots = M([[0, 1], [1, 0]]).rref()
    assert dense_rows(reduced) == identity_rows(2)
    assert pivots == (0, 1)


def test_fraction_entries():
    m = M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]])
    assert m.rank() == 2
    reduced, _ = m.rref()
    assert dense_rows(reduced) == identity_rows(2)


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
        # the kernel is the oracle's, each vector made primitive with a positive first entry
        assert kernel == [primitive(v) for v in gauss_kernel(rows, m.cols)]
        assert all(e == 0 for v in kernel for e in mat_vec(rows, v))
        # the rref is the oracle's, and idempotent
        reduced, pivots = m.rref()
        assert (dense_rows(reduced), list(pivots)) == gauss_eliminate(rows)
        again, pivots2 = reduced.rref()
        assert dense_rows(again) == dense_rows(reduced)
        assert pivots2 == pivots


def test_entry_count_validated():
    with pytest.raises(ValueError, match="expected 2 rows"):
        ExactMatrix(2, 2, ({0: Fraction(1)},))
    for row in ({5: 1}, {2: 1}, {-1: 1}, {1: 1, 0: 2, 7: 3}):
        with pytest.raises(ValueError, match="not all in"):
            ExactMatrix(1, 2, (row,))
    with pytest.raises(ValueError, match="ragged"):
        M([[1, 2], [3]])
    # No zero is stored and columns come out increasing, as from_rows stores them.
    m = ExactMatrix(2, 3, ({2: 1, 0: Fraction(4, 2), 1: 0}, {1: Fraction(0)}))
    assert m.sparse == M([[2, 0, 1], [0, 0, 0]]).sparse
    assert [list(row.items()) for row in m.sparse] == [[(0, 2), (2, 1)], []]
    assert type(m.sparse[0][0]) is int
    assert list(ExactMatrix(1, 3, ({2: 1, 0: 2},)).sparse[0].items()) == [(0, 2), (2, 1)]
    # A Fraction with a denominator stays a Fraction.
    assert ExactMatrix(1, 3, ({0: 1, 2: Fraction(1, 3)},)).sparse == ({0: 1, 2: Fraction(1, 3)},)


def test_entries_are_int_unless_a_denominator_exists():
    m = M([[Fraction(4, 2), Fraction(1, 3)], [True, 5]])
    assert [type(e) for row in dense_rows(m) for e in row] == [int, Fraction, int, int]
    assert dense_rows(m) == [[2, Fraction(1, 3)], [1, 5]]


# One command per mu model and per route of the cup product.
COMMANDS = {
    "rational_sextic": ["mu", "plane", "--poly", "x^6+y^6+z^6+3/7*x*y^5"],
    "ci": ["mu", "ci", "--q", "x0*x1-x2*x3", "--c", "x0^3+x1^3+x2^3+x3^3"],
    "hyperelliptic": ["mu", "hyperelliptic", "--genus", "6"],
    "xi": ["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^2*y*z+x*y^2*z+x*y*z^2"],
    "rational_xi": ["jacobian", "--poly", "x^5+y^5+z^5+x*y^4", "--xi=x^3*y*z-2/3*x*y^2*z^2"],
    "budget": ["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "200"],
    "xi_and_budget": ["jacobian", "--poly", "x^4+y^4+z^4", "--xi", "x^3*y", "--budget", "50"],
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("name", COMMANDS)
def test_no_command_builds_an_exact_matrix(name, json_flag, monkeypatch):
    # mu reads its kernel off the ideal's multiples, and xi's matrices are ranked in
    # D-scaled integers; both report sparse rows.
    built = []
    init = ExactMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExactMatrix, "__init__", counted)
    code, out = run_command([*COMMANDS[name], *json_flag])
    assert code == 0, out
    assert built == []
    # The counter sees a construction.
    M([[1, 0]])
    assert built == [(1, 2)]
