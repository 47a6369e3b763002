"""Independent brute-force oracles used by the tests.

Everything here is deliberately separate from the package: plain
fraction-based Gaussian elimination and dense enumeration, no shared
code with the exact elimination or the quotient machinery it checks.
`coordinates` alone calls the package: it sums the sparse classes
`GradedQuotientContext.reduce` gives for a form's monomials into the
dense vector the oracles give.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm


def gauss_eliminate(rows):
    """Row-reduce a list of Fraction rows; returns (reduced rows, pivot cols)."""
    m = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [e / m[r][c] for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def gauss_rank(rows):
    """Rank of a list of rows over the rationals, by forward elimination over Fractions.

    Only the entries below each pivot are cleared, and only from its
    column on: every row left to reduce is zero to the left of it.
    """
    m = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank][c:]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / top[0]
                m[i][c:] = [a - f * b for a, b in zip(m[i][c:], top)]
        rank += 1
    return rank


def gauss_kernel(rows, ncols):
    """Kernel basis of the row span, one vector per free column (unnormalized)."""
    reduced, pivots = gauss_eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(v)
    return basis


def primitive(v):
    """The rational vector v scaled to coprime integers with a positive first nonzero entry."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * scale) for x in v]
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def pair_incidence(sections, targets):
    """Dense matrix of monomial multiplication on the pairs (i <= j) of sections, index-lex.

    `sections` and `targets` are lists of exponent tuples; entry (r, k) is 1
    when the k-th pair multiplies to targets[r], and 0 otherwise.
    """
    pairs = [(a, b) for i, a in enumerate(sections) for b in sections[i:]]
    return [[int(tuple(x + y for x, y in zip(a, b)) == t) for a, b in pairs] for t in targets]


def mat_vec(rows, v):
    """The product of a list of rows with a vector, as Fractions."""
    if any(len(row) != len(v) for row in rows):
        raise ValueError("vector length does not match row length")
    return [sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in rows]


def quadric_terms(section_exponents, pairs, v):
    """The quadratic form sum v_k m_i m_j over pairs[k] = (i, j) as {exponents: coefficient}.

    `section_exponents[i]` is the exponent tuple of the monomial m_i;
    zero coefficients are dropped.
    """
    terms = {}
    for c, (i, j) in zip(v, pairs):
        e = tuple(a + b for a, b in zip(section_exponents[i], section_exponents[j]))
        terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


def dense_monomials(nvars, k):
    """All exponent tuples of total degree k, any fixed order."""
    return [e for e in product(range(k + 1), repeat=nvars) if sum(e) == k]


def graded_exponents(nvars, k):
    """All exponent tuples of total degree k, in graded-lex order (lexicographic, descending)."""
    return sorted(dense_monomials(nvars, k), reverse=True)


def rank_mod_p_oracle(rows, ncols, prime):
    """Rank over GF(prime) of sparse integer rows (dicts from column to entry), by dense
    Gauss-Jordan elimination with monic pivots."""
    m = [[row.get(j, 0) % prime for j in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][c], -1, prime)
        m[rank] = [x * inverse % prime for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % prime for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def macaulay_rows_oracle(gens_terms, nvars, k):
    """The integer rows of the degree-k monomial multiples of the generators, in Macaulay's order.

    Each item of `gens_terms` maps the exponent tuples of one homogeneous
    generator g_i to its coefficients; a generator with denominators is
    scaled by their lcm. A row maps the index of a monomial in
    `graded_exponents(nvars, k)` to its entry. With g_i matched to variable
    i, the multiple s * g_i (shifts s in graded-lex order) is one of
    Macaulay's rows when i < nvars and s_j < deg g_j for every j < i. Listed
    generator by generator, those rows come first, last one first, and then
    the others, generator by generator.
    """
    index = {e: i for i, e in enumerate(graded_exponents(nvars, k))}
    degrees = [sum(next(iter(terms))) for terms in gens_terms]
    firsts, rests = [], []
    for i, terms in enumerate(gens_terms):
        if degrees[i] > k:
            continue
        scale = lcm(*(Fraction(c).denominator for c in terms.values()))
        for s in graded_exponents(nvars, k - degrees[i]):
            row = {index[tuple(a + b for a, b in zip(e, s))]: int(Fraction(c) * scale)
                   for e, c in terms.items()}
            macaulay = i < nvars and all(s[j] < degrees[j] for j in range(i))
            (firsts if macaulay else rests).append(row)
    return firsts[::-1] + rests


def quotient_class_oracle(gens_terms, nvars, k, f_terms):
    """The monomial basis of the degree-k quotient and the coordinates of the class of f.

    Each item of `gens_terms` maps the exponent tuples of one homogeneous
    generator to its coefficients, and `f_terms` those of a degree-k form.
    The columns are `graded_exponents(nvars, k)`; the ideal's multiples are
    row-reduced over dense Fractions, the basis is the non-pivot columns,
    and f's vector minus its entry at each pivot times that pivot's reduced
    row gives its coordinates on them.
    """
    columns = graded_exponents(nvars, k)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    for terms in gens_terms:
        degree = sum(next(iter(terms)))
        for shift in dense_monomials(nvars, k - degree) if degree <= k else ():
            row = [Fraction(0)] * len(columns)
            for e, c in terms.items():
                row[index[tuple(a + b for a, b in zip(e, shift))]] += Fraction(c)
            rows.append(row)
    reduced, pivots = gauss_eliminate(rows)
    v = [Fraction(0)] * len(columns)
    for e, c in f_terms.items():
        v[index[e]] += Fraction(c)
    for row, c in zip(reduced, pivots):
        v = [x - v[c] * y for x, y in zip(v, row)]
    free = [j for j in range(len(columns)) if j not in pivots]
    return [columns[j] for j in free], [v[j] for j in free]


def coordinates(ctx, f):
    """The coordinates of the class of the polynomial f in `ctx.basis`, as a dense tuple.

    `ctx.reduce` gives D (`ctx.scale`) times the class of each monomial of f
    as sparse (position, value) pairs; they are summed here, each times its
    coefficient and divided by D.
    """
    v = [Fraction(0)] * len(ctx.basis)
    for c, entries in zip(f.terms.values(), ctx.reduce(list(f.terms))):
        for k, x in entries:
            v[k] += c * Fraction(x, ctx.scale)
    return tuple(v)


def quotient_dim_oracle(gen_terms, nvars, gen_degree, k):
    """dim S_k minus the rank of all monomial multiples of one generator.

    `gen_terms` maps exponent tuples to coefficients.
    """
    columns = dense_monomials(nvars, k)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    if gen_degree <= k:
        for shift in dense_monomials(nvars, k - gen_degree):
            row = [Fraction(0)] * len(columns)
            for e, c in gen_terms.items():
                total = tuple(a + b for a, b in zip(e, shift))
                row[index[total]] += Fraction(c)
            rows.append(row)
    return len(columns) - gauss_rank(rows)


def ideal_rank_oracle(gens_terms, nvars, k):
    """Rank of every degree-k monomial multiple of several generators, over dense Fractions.

    Each item of `gens_terms` maps the exponent tuples of one homogeneous
    generator to its coefficients.
    """
    columns = dense_monomials(nvars, k)
    index = {e: i for i, e in enumerate(columns)}
    rows = []
    for terms in gens_terms:
        degree = sum(next(iter(terms)))
        if degree > k:
            continue
        for shift in dense_monomials(nvars, k - degree):
            row = [Fraction(0)] * len(columns)
            for e, c in terms.items():
                row[index[tuple(a + b for a, b in zip(e, shift))]] += Fraction(c)
            rows.append(row)
    return gauss_rank(rows)


def cup_rank_oracle(curve_terms, xi_terms, d):
    """Rank of xi * S_{d-3} in (S/J)_{2d-3}, J the ideal of the partials of a plane curve.

    `curve_terms` (degree d) and `xi_terms` (degree d, possibly empty) map
    exponent triples to coefficients. The rank is rank(J_{2d-3} multiples
    + xi * S_{d-3} rows) - rank(J_{2d-3} multiples), over dense Fractions.
    """
    columns = dense_monomials(3, 2 * d - 3)
    index = {e: i for i, e in enumerate(columns)}

    def row(terms, shift):
        r = [Fraction(0)] * len(columns)
        for e, c in terms.items():
            r[index[tuple(a + b for a, b in zip(e, shift))]] += Fraction(c)
        return r

    partials = []
    for v in range(3):
        p = {}
        for e, c in curve_terms.items():
            if e[v]:
                lowered = tuple(x - (i == v) for i, x in enumerate(e))
                p[lowered] = p.get(lowered, 0) + c * e[v]
        partials.append(p)
    ideal = [row(p, s) for p in partials for s in dense_monomials(3, d - 2)]
    products = [row(xi_terms, s) for s in dense_monomials(3, d - 3)]
    return gauss_rank(ideal + products) - gauss_rank(ideal)


def identity_rows(n):
    """The n x n identity matrix as dense rows."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_rows(matrix):
    """The rows of a matrix as dense lists, read from its sparse rows (`sparse`, `cols`)."""
    return [[row.get(j, 0) for j in range(matrix.cols)] for row in matrix.sparse]


def scaled(p, c):
    """c * p, built from p's terms (a dict from exponent tuple to coefficient)."""
    return type(p)(p.variables, {e: c * x for e, x in p.terms.items()})


def added(p, q):
    """p + q over one variable set, built from the two term dicts."""
    assert p.variables == q.variables
    return type(p)(p.variables, {e: p.terms.get(e, 0) + q.terms.get(e, 0)
                                 for e in p.terms.keys() | q.terms.keys()})


def times_monomial(p, e):
    """x^e * p, built from p's terms by adding e to every exponent tuple."""
    return type(p)(p.variables, {tuple(a + b for a, b in zip(m, e)): x
                                 for m, x in p.terms.items()})
