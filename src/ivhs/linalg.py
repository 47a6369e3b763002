"""Exact linear algebra over the rationals, computed in integers.

Storage: entries are Python ints where integral and Fractions only where
a denominator exists, so the common integer matrix never touches
`Fraction` arithmetic. `poly.Polynomial` stores its coefficients by the
same rule, through `_exact`.

Every elimination runs on sparse integer rows, dicts from column to
nonzero int. `quotient` clears a generator's coefficients of their
denominators once, with `_integer_rows` (scaling a row by the lcm of its
denominators keeps the row space), so the rows it builds are integer.
`quotient` and `jacobian` hand their integer rows to `_echelon` and
`_certified_rank` (the ξ matrix as its D-scaled columns). `ExactMatrix`
is not library API, and no command builds one.

The exact elimination (`_echelon`, on integer rows), once per matrix:

- Echelon basis: rows are inserted one at a time. A row is reduced by
  the basis row of its leading column and divided by the gcd of its
  entries, until it is zero or leads in a column with no basis row,
  where it is kept. The leading columns of any echelon basis of a row
  space are the pivot columns of its reduced row echelon form, whatever
  the row order, so the pivots are the canonical greedy ones and every
  output below is canonical. The rank is the size of the basis. The
  rows are read, never written.
- Back substitution, bottom-up over the pivots: basis row i is cleared
  at every pivot column j to the right of its own in one step. The
  reduced row of j is p_j at j, 0 at the other pivot columns and nonzero
  elsewhere only at free columns, so with x_j the entry of row i at j
  and L the lcm over those j of p_j / gcd(p_j, x_j), L times row i minus
  (L x_j / p_j) times each reduced row j vanishes there. It is divided
  by the gcd of its entries once. The row then vanishes at every pivot
  column but its own, so it is the primitive multiple, up to sign, of
  the i-th RREF row (which is unique), whatever the steps were. With D
  the lcm of the pivot entries of the reduced rows, row i scaled by
  D / its pivot entry is D times the i-th RREF row. Every division is by
  a gcd or by a divisor of D, so every step is exact in integers.
  Gauss-Jordan during insertion (a dead end: 1.4-3.4x slower) clears the
  basis rows at each new pivot, and rows inserted later put entries back
  at pivot columns already cleared; here every row subtracted is already
  reduced, so no entry at a pivot column comes back.

`Echelon.reduced` keeps each scaled row sparse, as its nonzero entries
on the free columns. The RREF divides them by D; a kernel vector for
free column f is D*e_f - sum_i red_i[f]*e_{c_i}, made primitive in
integers by `_primitive`, which `quotient.ideal_relations` shares.

Certified rank (`_certified_rank`, behind `quotient.ideal_degree_dim`
and `jacobian.ivhs_matrix`): the integer rows are
first ranked over GF(PRIME) (`_rank_mod_p`) by fraction-free elimination
(Bareiss 1968): a row r with entry f under a pivot of lead a becomes
a*r - f*pivot, and a is a unit mod PRIME, so the rank is that of
elimination by monic pivots, with no modular inverse. Every minor that
is nonzero mod PRIME is a nonzero integer, so rank mod PRIME <= rank over
Q <= any upper bound on it. When the rank mod PRIME reaches such a bound
it is therefore the rank over Q, and no later row can raise it: the
modular pass stops there and reads no further rows. A caller that holds
its rows (`jacobian`) passes `_rank_bound`, the
least of the number of rows, the number of nonzero rows and the number
of nonzero columns (a zero row or column is in no nonzero minor). A
caller that builds its rows as they are read (`quotient`: Macaulay's
rows first, the likeliest to be independent, last one first, which takes
fewer reductions) passes a closed-form bound known before the first
row, min(row count, columns), and the rows after the pass reaches it are
never built. A pass that falls short has read every row; its rank is
certified when it reaches `_rank_bound` of them all, and otherwise the
exact echelon basis of the same rows, in the same order, decides.
There is one modular pass per rank. A caller that knows s independent
dependencies among the rows passes a bound of at most rows - s. A pass
that falls short of it has rank < rows - s, so its rank is below
`_rank_bound` of the rows exactly when it is below the same minimum
taken with rows - s rows, and the fallback test needs no s. No answer
is probabilistic: an unlucky prime costs time, never exactness. The
bound alone, with no elimination, also tells `jacobian.ivhs_max_rank`
which candidates cannot win.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import tee
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class Echelon(NamedTuple):
    """The one elimination of a matrix: pivots and D-scaled reduced rows.

    `reduced[i]` holds the nonzero entries of reduced row i off its pivot
    as (k, x) pairs, k increasing: x is `scale` (D) times the RREF entry
    of row i in column `free[k]`. In the pivot columns reduced row i holds
    D at `pivots[i]` and 0 elsewhere.
    """

    pivots: tuple[int, ...]
    free: tuple[int, ...]
    scale: int
    reduced: tuple[tuple[tuple[int, int], ...], ...]


class ExactMatrix:
    """Matrix of exact rationals, stored as its sparse rows.

    `sparse[i]` maps column to nonzero entry, columns increasing. No command
    builds one: the class stays only for the four names the benchmark's
    tracer wraps (`from_rows`, `rank`, `rref`, `kernel_basis`).
    """

    __slots__ = ("rows", "cols", "sparse")

    def __init__(self, rows: int, cols: int, sparse: Sequence[Mapping[int, Entry]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(sparse) != rows:
            raise ValueError(f"expected {rows} rows, got {len(sparse)}")
        self.rows, self.cols = rows, cols
        self.sparse = tuple(_normal_row(r, cols) for r in sparse)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]], cols: int | None = None) -> "ExactMatrix":
        """Build a matrix from an iterable of dense rows; `cols` disambiguates the empty case."""
        rows = list(rows)
        ncols = len(rows[0]) if rows else cols or 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError("cols does not match row length")
        return cls(len(rows), ncols, tuple({j: e for j, e in enumerate(r) if e} for r in rows))

    def rank(self) -> int:
        """Rank over the rationals: certified mod PRIME, else the echelon basis alone."""
        rows = _integer_rows(self.sparse)
        return _certified_rank(rows, _rank_bound(rows))

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the (strictly increasing) pivot columns."""
        ech = _echelon(_integer_rows(self.sparse), self.cols)
        # A reduced row is 1 at its pivot and nonzero elsewhere only at free columns to its right.
        reduced = [{c: 1, **{ech.free[k]: _ratio(x, ech.scale) for k, x in red}}
                   for c, red in zip(ech.pivots, ech.reduced)]
        reduced += [{} for _ in range(self.rows - len(reduced))]
        return ExactMatrix(self.rows, self.cols, tuple(reduced)), ech.pivots

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Basis of the right null space as primitive integer vectors.

        Each vector has coprime integer entries and a positive first
        nonzero entry; the list has length cols - rank.
        """
        ech = _echelon(_integer_rows(self.sparse), self.cols)
        # RREF entries left of a row's pivot are 0, so the nonzeros of the
        # vector of free column f sit at pivots before f, in order, and then at f.
        columns: list[list[tuple[int, int]]] = [[] for _ in ech.free]
        for c, red in zip(ech.pivots, ech.reduced):
            for k, x in red:
                columns[k].append((c, -x))
        basis = []
        for f, entries in zip(ech.free, columns):
            entries.append((f, ech.scale))
            v = [0] * self.cols
            for c, x in _primitive(entries):
                v[c] = x
            basis.append(tuple(v))
        return basis


def _primitive(entries: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """(position, value) pairs divided by the gcd of the values, the first value made positive."""
    g = gcd(*(x for _, x in entries))
    if entries[0][1] < 0:
        g = -g
    return tuple((p, x // g) for p, x in entries)


def _normal_row(row: Mapping[int, Entry], cols: int) -> dict[int, Entry]:
    """A copy of the row with columns increasing and nonzero `_exact` entries."""
    row = {c: _exact(x) for c, x in sorted(row.items()) if x}
    keys = list(row)
    if keys and not 0 <= keys[0] <= keys[-1] < cols:
        raise ValueError(f"columns {keys[0]} to {keys[-1]} are not all in [0, {cols})")
    return row


def _integer_rows(rows: Iterable[Mapping[int, Entry]]) -> list[Mapping[int, int]]:
    """Sparse rows with int entries; a row with denominators is scaled by their lcm."""
    out = []
    for row in rows:
        if not set(map(type, row.values())) <= {int}:
            scale = lcm(*(e.denominator for e in row.values()))
            row = {c: e.numerator * (scale // e.denominator) for c, e in row.items()}
        out.append(row)
    return out


def _eliminate(row: Mapping[int, int], pivot: Mapping[int, int], c: int) -> dict[int, int]:
    """The primitive combination of row and pivot that vanishes in column c."""
    g = gcd(pivot[c], row[c])
    a, b = pivot[c] // g, row[c] // g
    out = {j: a * x for j, x in row.items()}
    for j, y in pivot.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _echelon_basis(rows: Iterable[Mapping[int, int]]) -> dict[int, Mapping[int, int]]:
    """An echelon basis of the row space of integer rows: leading column -> row."""
    basis: dict[int, Mapping[int, int]] = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = basis.get(c)
            if pivot is None:
                g = gcd(*row.values())
                basis[c] = {j: x // g for j, x in row.items()} if g > 1 else row
                break
            row = _eliminate(row, pivot, c)
    return basis


def _echelon(rows: Iterable[Mapping[int, int]], cols: int) -> Echelon:
    """Echelon basis and bottom-up back substitution of integer rows (see the module docstring)."""
    reduced = _echelon_basis(rows)
    pivots = sorted(reduced)
    for c in reversed(pivots):
        row = reduced[c]
        # Every other pivot in this row lies to its right, so its row is already reduced.
        hits = [(j, reduced[j]) for j in row if j in reduced and j != c]
        if not hits:
            continue
        m = 1
        for j, pivot in hits:
            m = lcm(m, pivot[j] // gcd(pivot[j], row[j]))
        out = {j: m * x for j, x in row.items()}
        for j, pivot in hits:
            f = m * row[j] // pivot[j]  # exact: pivot[j] / gcd(pivot[j], row[j]) divides m
            # The reduced row is nonzero only at j, which this clears, and at free columns.
            for k, y in pivot.items():
                if z := out.get(k, 0) - f * y:
                    out[k] = z
                else:
                    del out[k]
        g = gcd(*out.values())
        reduced[c] = {j: x // g for j, x in out.items()} if g > 1 else out
    scale = lcm(*(reduced[c][c] for c in pivots))
    free = tuple(j for j in range(cols) if j not in reduced)
    position = {f: k for k, f in enumerate(free)}
    scaled = []
    for c in pivots:
        row, m = reduced[c], scale // reduced[c][c]
        # Back substitution left the row nonzero only at c and at free columns.
        scaled.append(tuple(sorted((position[j], m * x) for j, x in row.items() if j != c)))
    return Echelon(tuple(pivots), free, scale, tuple(scaled))


def _rank_bound(rows: Sequence[Mapping[int, Entry]]) -> int:
    """min(rows, nonzero rows, nonzero columns), a bound on the rank over Q."""
    nonzero = [row for row in rows if row]
    return min(len(rows), len(nonzero), len(set().union(*nonzero)))


def _certified_rank(rows: Iterable[Mapping[int, int]], bound: int) -> int:
    """Rank over Q of integer sparse rows, `bound` an upper bound on it (see the module docstring).

    One modular pass reads the rows until its rank reaches `bound`, so a
    lazy iterable builds no row after that one. A pass that falls short
    has read every row; its rank is certified when it reaches
    `_rank_bound` of them all, and otherwise their exact echelon basis
    decides.
    """
    rows, kept = tee(rows)
    rank = _rank_mod_p(rows, bound)
    if rank < bound:
        kept = list(kept)
        if rank < _rank_bound(kept):
            return len(_echelon_basis(kept))
    return rank


def _rank_mod_p(rows: Iterable[Mapping[int, int]], bound: int | None = None) -> int:
    """Rank over GF(PRIME) of integer sparse rows, a lower bound on their rank over Q.

    A pivot is kept as its lead a and its other entries, never made monic. A
    copy r of each row read, with entry f in the column of a pivot, becomes
    a*r - f*pivot mod PRIME, leftmost column first, until it is zero or
    leads in a new column (a lead 0 mod PRIME is dropped). `bound`, an upper
    bound on the rank over Q such as `_rank_bound`, stops the pass once the
    rank reaches it: later rows cannot raise it, so the rows after are not read.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}  # column -> (lead, the other entries)
    for row in rows:
        r = dict(row)
        while r:
            c = min(r)
            f = r.pop(c) % PRIME
            if not f:
                continue
            pivot = pivots.get(c)
            if pivot is None:
                pivots[c] = f, r
                if len(pivots) == bound:
                    return bound
                break
            a, rest = pivot
            for j in r:
                r[j] = r[j] * a % PRIME
            for j, x in rest.items():
                y = (r.get(j, 0) - f * x) % PRIME
                if y:
                    r[j] = y
                elif j in r:
                    del r[j]
    return len(pivots)
