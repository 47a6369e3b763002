"""Exact linear algebra over the rationals, computed in integers.

Storage: entries are Python ints where integral and Fractions only where
a denominator exists, so the common integer matrix never touches
`Fraction` arithmetic. `poly.Polynomial` stores its coefficients by the
same rule, through `_exact`.

Every result comes from one fraction-free elimination (`echelon`):

- Forward phase (Bareiss): each row is cleared of its denominators (row
  scaling keeps the row space) and eliminated with exact divisions by
  the previous pivot (Sylvester's identity, which also holds when
  rank-deficient columns are skipped). Pivots are the first nonzero
  entry, scanning top-to-bottom, in the leftmost unresolved column, so
  the pivot columns are the greedy ones and every output below is
  canonical. A row whose entry in the pivot column is zero would only be
  rescaled by pivot / previous pivot; that rescaling is deferred, and the
  row is brought up to date by one exact division the next time it is
  touched.
- Back substitution: with pivots p_0, ..., p_{r-1} and D = p_{r-1}, row i
  becomes, from the bottom up,
  (D*row_i - sum_{i' > i} row_i[c_{i'}] * red_{i'}) / p_i.
  Each reduced row red_i has D in its pivot column and equals D times the
  i-th row of the reduced row echelon form. D is the determinant of the
  pivot minor M, and the RREF rows are M^{-1} times the top rows, so by
  Cramer's rule D*RREF = adj(M) * (top rows) is integral: every division
  is exact.

Rank reads the forward phase alone; the RREF divides the reduced rows by
D; a kernel vector for free column f is D*e_f - sum_i red_i[f]*e_{c_i},
made primitive in integers.

Certified rank mod p (`_rank_mod_p`): sparse rows (a dict from column to
entry) are cleared of their denominators like `_integer_rows` and
eliminated over GF(PRIME). Every minor that is nonzero mod PRIME is a
nonzero integer, so for an integer matrix
rank mod PRIME <= rank over Q <= min(rows, cols). When the rank mod
PRIME reaches min(rows, cols) it is therefore the rank over Q; otherwise
the caller falls back to the exact `ExactMatrix.rank`. No answer is
probabilistic: an unlucky prime costs time, never exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Entry = int | Fraction

# Below 2**30, so a product of two residues is at most two CPython digits.
PRIME = 2**30 - 35


def _exact(e) -> Entry:
    """e as an int when integral, else as a Fraction."""
    f = Fraction(e)
    return f.numerator if f.denominator == 1 else f


def _ratio(n: Entry, d: int) -> Entry:
    """n / d as an int when integral, else as a Fraction (n an int or a Fraction)."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


@dataclass(frozen=True)
class Echelon:
    """The one elimination of a matrix: pivots and D-scaled reduced rows.

    `reduced[i][k]` is `scale` (D) times the RREF entry of row i in column
    `free[k]`; in the pivot columns reduced row i holds D at `pivots[i]`
    and 0 elsewhere.
    """

    cols: int
    pivots: tuple[int, ...]
    free: tuple[int, ...]
    scale: int
    reduced: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def rref_rows(self) -> list[list[Entry]]:
        """The nonzero rows of the reduced row echelon form."""
        out = []
        for c, red in zip(self.pivots, self.reduced):
            row: list[Entry] = [0] * self.cols
            row[c] = 1
            for f, x in zip(self.free, red):
                if x:
                    row[f] = _ratio(x, self.scale)
            out.append(row)
        return out

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """One primitive integer kernel vector per free column, lead entry positive."""
        basis = []
        columns = zip(*self.reduced) if self.reduced else [()] * len(self.free)
        for f, column in zip(self.free, columns):
            # RREF entries left of a row's pivot are 0, so the nonzeros sit at
            # pivots before f, in order, and then at f.
            entries = [(c, -x) for c, x in zip(self.pivots, column) if x]
            entries.append((f, self.scale))
            g = gcd(*[x for _, x in entries])
            if entries[0][1] < 0:
                g = -g
            v = [0] * self.cols
            for c, x in entries:
                v[c] = x // g
            basis.append(tuple(v))
        return basis


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix of exact rationals, stored row-major."""

    rows: int
    cols: int
    entries: tuple[Entry, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        entries = self.entries
        if not set(map(type, entries)) <= {int}:
            entries = (e if type(e) is int else _exact(e) for e in entries)
        object.__setattr__(self, "entries", tuple(entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]], cols: int | None = None) -> "ExactMatrix":
        """Build a matrix from an iterable of rows; `cols` disambiguates the empty case."""
        rows = list(rows)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != ncols:
                raise ValueError("cols does not match row length")
        else:
            ncols = 0 if cols is None else cols
        return cls(len(rows), ncols, tuple(chain.from_iterable(rows)))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n
        )

    def at(self, i: int, j: int) -> Entry:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Entry, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Entry]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[self.at(i, j) for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul_vector(self, v: Sequence[Entry]) -> tuple[Entry, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(
            _exact(sum(a * b for a, b in zip(self.row(i), v))) for i in range(self.rows)
        )

    def echelon(self) -> Echelon:
        """Forward elimination and integer back substitution, done once."""
        echelon, pivots = _integer_echelon(_integer_rows(self))
        return _back_substitute(echelon, pivots, self.cols)

    def rank(self) -> int:
        """Rank over the rationals, from the forward elimination alone."""
        return len(_integer_echelon(_integer_rows(self))[1])

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the (strictly increasing) pivot columns."""
        ech = self.echelon()
        reduced = ech.rref_rows()
        reduced += [[0] * self.cols for _ in range(self.rows - ech.rank)]
        return ExactMatrix.from_rows(reduced, cols=self.cols), ech.pivots

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the right null space as primitive integer vectors.

        Each vector has coprime integer entries and a positive first
        nonzero entry; the list has length cols - rank.
        """
        return self.echelon().kernel_basis()

    def __str__(self) -> str:
        return "\n".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))


def _integer_rows(m: ExactMatrix) -> list[list[int]]:
    """Rows as integer lists; rows with denominators are scaled by their lcm."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        if not set(map(type, row)) <= {int}:
            scale = lcm(*(e.denominator for e in row))
            row = [e.numerator * (scale // e.denominator) for e in row]
        out.append(list(row))
    return out


def _integer_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Bareiss elimination to row echelon form, in place.

    Returns the nonzero echelon rows and the pivot column list. `base[i]`
    is the divisor row i was last brought up to date with: its Bareiss
    value is a[i] * prev / base[i]. A row that is eliminated against pivot
    p therefore becomes (a[i] * p - head * pivot_row) / base[i], exact
    because that equals the Bareiss value.
    """
    n_rows = len(a)
    if not n_rows:
        return [], []
    n_cols = len(a[0])
    base = [1] * n_rows
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            base[r], base[pivot_row] = base[pivot_row], base[r]
        if base[r] != prev:
            a[r] = [x * prev // base[r] for x in a[r]]
        tail = a[r][c:]
        p = tail[0]
        for i in range(r + 1, n_rows):
            row = a[i]
            head = row[c]
            if head:
                b = base[i]
                row[c:] = [(x * p - head * y) // b for x, y in zip(row[c:], tail)]
                base[i] = p
        prev = p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _back_substitute(echelon: list[list[int]], pivots: list[int], cols: int) -> Echelon:
    """Integer back substitution on the free columns (see the module docstring)."""
    pivot_set = set(pivots)
    free = tuple(j for j in range(cols) if j not in pivot_set)
    scale = echelon[-1][pivots[-1]] if pivots else 1
    reduced: list[list[int]] = [[]] * len(pivots)
    for i in range(len(pivots) - 1, -1, -1):
        row = echelon[i]
        acc = [scale * row[f] for f in free]
        for j in range(i + 1, len(pivots)):
            m = row[pivots[j]]
            if m:
                acc = [x - m * y for x, y in zip(acc, reduced[j])]
        p = row[pivots[i]]
        reduced[i] = [x // p for x in acc]
    return Echelon(cols, tuple(pivots), free, scale, tuple(map(tuple, reduced)))


def _rank_mod_p(rows: Iterable[Mapping[int, Entry]]) -> int:
    """Rank over GF(PRIME) of sparse rows, a lower bound on their rank over Q.

    Each row is scaled by the lcm of its denominators first, which keeps
    the row space over Q. Each reduced row is stored monic under its
    leftmost column; an incoming row is reduced by the pivot of its
    leftmost column until it is zero or has a new leftmost column.
    """
    pivots: dict[int, list[tuple[int, int]]] = {}  # column -> the rest of a monic row
    for row in rows:
        if not set(map(type, row.values())) <= {int}:
            scale = lcm(*(e.denominator for e in row.values()))
            row = {c: e.numerator * (scale // e.denominator) for c, e in row.items()}
        r = {c: x % PRIME for c, x in row.items() if x % PRIME}
        while r:
            c = min(r)
            f = r.pop(c)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(f, -1, PRIME)
                pivots[c] = [(j, x * inv % PRIME) for j, x in r.items()]
                break
            for j, x in pivot:
                y = (r.get(j, 0) - f * x) % PRIME
                if y:
                    r[j] = y
                else:
                    del r[j]
    return len(pivots)
