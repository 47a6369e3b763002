"""Each matrix is eliminated once; dimension-only checks stop at the rank."""

import json

import pytest

import ivhs.jacobian
import ivhs.linalg
import ivhs.quotient
from ivhs import (
    PLANE_VARS,
    SPACE_VARS,
    InvariantError,
    ci_mu,
    ivhs_matrix,
    ivhs_max_rank,
    hyperelliptic_mu,
    ideal_degree_dim,
    jacobian_context,
    graded_monomials,
    monomial_count,
    parse_polynomial,
    plane_mu,
    quotient_context,
)
from ivhs.cli import run_command
from ivhs.linalg import _certified_rank, _rank_bound
from oracles import cup_rank_oracle, macaulay_rows_oracle

QUINTIC = parse_polynomial("x^5+y^5+z^5+x*y^4+3*x^2*z^3", PLANE_VARS)
SEXTIC = parse_polynomial("x^6+y^6+z^6+3/7*x*y^5", PLANE_VARS)
KLEIN = parse_polynomial("x^3*y+y^3*z+z^3*x", PLANE_VARS)
NODAL_QUINTIC = "x^5+5*x^4*z+10*x^3*z^2+11*x^2*z^3+7*x*z^4+y^5+y^2*z^3+2*z^5"
CI_CUBIC = parse_polynomial("x0^3+x1^3+x2^3+x3^3", SPACE_VARS)


@pytest.fixture
def counts(monkeypatch):
    """Counts of exact echelon-basis builds, back substitutions and ranks mod p."""
    seen = {"forward": 0, "back": 0, "modular": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            seen[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(ivhs.linalg, "_echelon_basis", "forward")
    counted(ivhs.linalg, "_echelon", "back")
    counted(ivhs.quotient, "_echelon", "back")  # imported by name there
    counted(ivhs.linalg, "_rank_mod_p", "modular")
    return seen


@pytest.fixture
def rows_read(monkeypatch):
    """The number of rows each modular rank pass reads, one entry per pass."""
    read = []
    original = ivhs.linalg._rank_mod_p

    def counted(rows, bound=None):
        read.append(0)

        def counting():
            for row in rows:
                read[-1] += 1
                yield row

        return original(counting(), bound)

    monkeypatch.setattr(ivhs.linalg, "_rank_mod_p", counted)
    return read


@pytest.mark.parametrize("argv, calls", [
    (["mu", "plane", "--poly", "x^4+y^4+z^4"], 1),
    (["mu", "plane", "--poly", "x^6+y^6+z^6+3/7*x*y^5"], 1),
    (["mu", "ci", "--q", "x0^3+x1^3+x2^3+x3^3", "--c", "x0^4+2*x1^4+3*x2^4+5*x3^4"], 2),
], ids=["plane_d4", "plane_d6", "ci_3_4"])
def test_a_mu_command_checks_its_generators_once_per_piece(argv, calls, monkeypatch):
    # The target context is the one description of its piece: ideal_relations
    # reads it, so only quotient_context and ideal_degree_dim check generators.
    checked = []
    original = ivhs.quotient._validated

    def counted(generators, k):
        checked.append(k)
        return original(generators, k)

    monkeypatch.setattr(ivhs.quotient, "_validated", counted)
    code, out = run_command(argv)
    assert code == 0, out
    assert len(checked) == calls


def test_free_target_plane_mu_eliminates_nothing(counts):
    plane_mu(QUINTIC)
    # 2d-6 = 4 < d: F has no multiple in degree 4, so the target is all of
    # S_4 and every product is a unit vector; nothing is eliminated.
    assert counts == {"forward": 0, "back": 0, "modular": 0}


def test_plane_mu_eliminates_each_matrix_once(counts, monkeypatch):
    reduced = []
    real = ivhs.quotient.GradedQuotientContext.reduce

    def recorded(self, forms):
        forms = list(forms)
        reduced.append(len(forms))
        return real(self, forms)

    monkeypatch.setattr(ivhs.quotient.GradedQuotientContext, "reduce", recorded)
    rep = plane_mu(SEXTIC)
    # 2d-6 = 6 = d: the degree-6 quotient by F, then the matrix of the
    # distinct products, whose 28 columns are read in one reduce call.
    assert counts == {"forward": 2, "back": 2, "modular": 0}
    assert reduced == [28]
    assert (rep.source_dim, rep.target_dim, rep.rank) == (55, 27, 27)


@pytest.fixture
def eliminations(monkeypatch):
    """(columns, `_eliminate` calls) for each exact echelon that `quotient` runs, in order."""
    seen = []
    eliminate, echelon = ivhs.linalg._eliminate, ivhs.quotient._echelon

    def counted(*args):
        seen[-1][1] += 1
        return eliminate(*args)

    def recorded(rows, cols):
        seen.append([cols, 0])
        return echelon(rows, cols)

    monkeypatch.setattr(ivhs.linalg, "_eliminate", counted)
    monkeypatch.setattr(ivhs.quotient, "_echelon", recorded)
    return seen


def test_targets_piece_eliminates_only_while_building_its_echelon_basis(eliminations):
    jacobian_context(QUINTIC).targets
    # The 30 multiples of the partials in the 36 monomials of degree 7 take
    # 17 row reductions to an echelon basis. Back substitution clears all
    # pivot columns of a row in one step, with no `_eliminate`.
    assert eliminations == [[36, 17]]


def test_ci_degree_six_piece_eliminates_only_while_building_its_echelon_bases(eliminations):
    q = parse_polynomial("x0^3+x1^3+x2^3+x3^3+9*x0*x1^2", SPACE_VARS)
    c = parse_polynomial("x0^4+8*x1^4+8*x2^4+6*x3^4", SPACE_VARS)
    ci_mu(q, c)
    # The one multiple of q in degree 3 is its own echelon basis. In degree 6
    # the 30 multiples of q and c in 84 columns are eliminated twice, for the
    # quotient and for the relations among the products' classes (columns
    # renumbered); back substitution runs no `_eliminate` in either.
    assert eliminations == [[20, 0], [84, 22], [84, 16]]


def test_exact_echelons_read_the_multiples_in_reverse_macaulay_order(monkeypatch):
    seen = []
    echelon = ivhs.quotient._echelon

    def recorded(rows, cols):
        seen.append(rows := list(rows))
        return echelon(rows, cols)

    monkeypatch.setattr(ivhs.quotient, "_echelon", recorded)
    partials = [QUINTIC.partial(i) for i in range(3)]
    # The shifts have degree 3, below the partials' degree 4, so every multiple
    # is one of Macaulay's rows: read last-first, the multiples are reversed.
    forward = [row for generator in partials
               for row in macaulay_rows_oracle([generator.terms], 3, 7)[::-1]]
    assert list(ivhs.quotient._multiple_rows(partials, [4, 4, 4], 7)) == forward[::-1]
    target = quotient_context(partials, 7)
    # The relations' columns are the other monomials in order, then these reversed.
    chosen = list(target.monomials[::3])
    order = [m for m in target.monomials if m not in chosen] + chosen[::-1]
    number = [order.index(m) for m in target.monomials]
    ivhs.quotient.ideal_relations(target, chosen)
    assert seen == [forward[::-1], [{number[c]: x for c, x in row.items()}
                                    for row in reversed(forward)]]


def test_free_piece_builds_no_row(counts, monkeypatch):
    built = []
    real = ivhs.quotient._multiple_rows

    def recorded(gens, degrees, k):
        built.append(k)
        return real(gens, degrees, k)

    monkeypatch.setattr(ivhs.quotient, "_multiple_rows", recorded)
    partials = [QUINTIC.partial(i) for i in range(3)]
    free = quotient_context(partials, 3)
    # The partials have degree 4, so degree 3 is free: every monomial is
    # its own class, with no row built and nothing eliminated.
    assert built == [] and counts == {"forward": 0, "back": 0, "modular": 0}
    assert (free.basis, free.scale) == (tuple(graded_monomials(PLANE_VARS, 3)), 1)
    assert [free.classes[m] for m in free.basis] == [((k, 1),) for k in range(10)]
    # One degree up the partials are rows, each read once by one elimination.
    assert quotient_context(partials, 4).dim == 12
    assert built == [4] and counts == {"forward": 1, "back": 1, "modular": 0}


def test_hyperelliptic_mu_eliminates_nothing(counts, monkeypatch):
    widths = []
    echelon = ivhs.linalg._echelon

    def recorded(rows, cols):
        widths.append(cols)
        return echelon(rows, cols)

    monkeypatch.setattr(ivhs.linalg, "_echelon", recorded)
    rep = hyperelliptic_mu(30)
    # 465 pairs, but only the 59 exponents 0..58, each a unit vector of
    # the free target: no elimination at all.
    assert counts == {"forward": 0, "back": 0, "modular": 0}
    assert widths == []
    assert (rep.source_dim, rep.rank, rep.matrix[0].length) == (465, 59, 465)


def test_ci_mu_certifies_the_syzygy_degree_mod_p(counts):
    rep = ci_mu(parse_polynomial("x0*x1-x2*x3", SPACE_VARS), CI_CUBIC)
    # Degree 1 has no multiple, so that piece is free; the quotient in
    # degree 2 and the distinct products are eliminated exactly. The
    # degree-5 check is one rank mod p: the Koszul syzygy c*q - q*c bounds
    # the rank by rows - 1, which it reaches.
    assert counts == {"forward": 2, "back": 2, "modular": 1}
    assert (rep.rank, rep.kernel_relations) == (9, ("x0*x1 - x2*x3",))


def test_unlucky_prime_ci_check_falls_back_to_the_exact_rank(counts):
    p = ivhs.linalg.PRIME
    rep = ci_mu(parse_polynomial(f"{p}*x0*x1-{p}*x2*x3", SPACE_VARS), CI_CUBIC)
    # Every multiple of q vanishes mod p, so the modular rank falls short of
    # rows - 1 and the degree-5 check runs the exact echelon basis. The
    # degree-1 piece is free, as above.
    assert counts == {"forward": 3, "back": 2, "modular": 1}
    # The ideal is the one of q = x0*x1 - x2*x3, so the report is too.
    assert (rep.rank, rep.kernel_relations) == (9, ("x0*x1 - x2*x3",))
    assert rep == ci_mu(parse_polynomial("x0*x1-x2*x3", SPACE_VARS), CI_CUBIC)


def test_jacobian_context_certifies_smoothness_mod_p(counts):
    jacobian_context(QUINTIC)
    # Smoothness in degree 3d-5 is one certified rank mod p, with no exact
    # elimination: it stops once Macaulay's square matrix reaches full rank.
    # No graded piece is built until it is read.
    assert counts == {"forward": 0, "back": 0, "modular": 1}


@pytest.fixture
def pieces_built(monkeypatch):
    """The degree of each graded piece the Jacobian model builds, in order."""
    built = []
    real = ivhs.jacobian.quotient_context

    def recorded(generators, k):
        built.append(k)
        return real(generators, k)

    monkeypatch.setattr(ivhs.jacobian, "quotient_context", recorded)
    return built


def test_dims_only_command_builds_no_piece(counts, pieces_built):
    code, out = run_command(["jacobian", "--poly", "x^5+y^5+z^5+x*y^4+3*x^2*z^3", "--json"])
    assert code == 0
    assert json.loads(out)["payload"]["dims"] == {"sections": 6, "deformations": 12,
                                                  "targets": 6}
    # Smoothness is the one certified rank mod p; the dimensions are read
    # from the Hilbert series of the regular sequence of partials.
    assert pieces_built == []
    assert counts == {"forward": 0, "back": 0, "modular": 1}


def test_xi_builds_the_sections_and_targets_only(counts, pieces_built):
    code, _ = run_command(["jacobian", "--poly", "x^5+y^5+z^5+x*y^4+3*x^2*z^3",
                           "--xi=x^3*y*z-2/3*x*y^2*z^2"])
    assert code == 0
    # Degree d-3 = 2 is below the partials' degree d-1, so that piece is
    # free; degree 2d-3 = 7 is eliminated exactly. Smoothness and the rank
    # of xi's matrix are certified mod p.
    assert sorted(pieces_built) == [2, 7]
    assert counts == {"forward": 1, "back": 1, "modular": 2}


def test_budget_builds_the_pieces_its_search_reads(pieces_built):
    # The first candidates are the 28 monomials of degree 6, which need no
    # quotient basis of the degree-d piece.
    assert run_command(["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "5"])[0] == 0
    assert sorted(pieces_built) == [3, 9]
    pieces_built.clear()
    # Past them, sums of basis monomials of the degree-d piece are tried.
    assert run_command(["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "200"])[0] == 0
    assert sorted(pieces_built) == [3, 6, 9]


@pytest.mark.parametrize("text", [
    *(f"x^{d}+y^{d}+z^{d}+x*y^{d - 1}+3*x^2*z^{d - 2}" for d in range(4, 10)),
    "x^3*y+y^3*z+z^3*x",        # Klein: Macaulay's square matrix is singular
    "x^4+y^4+1073741789*z^4",   # the z-partial vanishes mod p
])
def test_dims_agree_between_the_rank_and_the_context_route(text):
    ctx = jacobian_context(parse_polynomial(text, PLANE_VARS))
    # The closed form, read before any piece is built, is each built piece's dimension.
    closed = ctx.dims
    pieces = (ctx.sections, ctx.deformations, ctx.targets)
    assert closed == ctx.dims == tuple(piece.dim for piece in pieces)


def test_smoothness_pass_reads_only_macaulays_square_matrix(rows_read):
    jacobian_context(QUINTIC)
    # Degree 10 has 66 monomials and 84 multiples of the partials. The row
    # of each monomial in Macaulay's matrix comes first, and those 66 rows
    # are independent mod p, so the other 18 are never read.
    assert rows_read == [66]


@pytest.mark.parametrize("text,read", [
    # The seed-0 curves of the benchmark's jacobian_rings workload, d = 6, 7, 8.
    ("x^6+y^6+z^6-9*x*y^5+9*x^2*z^4", [105]),
    ("x^7+y^7+z^7+5*x*y^6-9*x^2*z^5", [153]),
    ("x^8+y^8+z^8-9*x*y^7+1*x^2*z^6", [210]),
])
def test_dims_command_reads_the_square_part_and_no_row_more(counts, rows_read, text, read):
    assert run_command(["jacobian", "--poly", text, "--json"])[0] == 0
    # Smoothness reads only Macaulay's square matrix in degree 3d-5, its
    # C(3d-3, 2) rows, in the one modular pass; the dimensions are the
    # Hilbert series, and nothing is eliminated exactly.
    assert rows_read == read
    assert counts == {"forward": 0, "back": 0, "modular": 1}


def test_klein_quartic_is_certified_past_its_singular_square_matrix(rows_read):
    ctx = jacobian_context(KLEIN)
    # The partials have no pure powers, so Macaulay's 36 x 36 matrix in
    # degree 7 is singular; the remaining multiples lift the rank mod p to
    # 36 at the 44th of the 45 rows.
    assert rows_read == [44]
    assert (ctx.sections.dim, ctx.deformations.dim, ctx.targets.dim) == (3, 6, 3)


def test_nodal_quintic_is_refused_by_the_exact_fallback(monkeypatch, rows_read):
    kept = []
    echelon_basis = ivhs.linalg._echelon_basis

    def recorded(rows):
        kept.append(len(rows))
        return echelon_basis(rows)

    monkeypatch.setattr(ivhs.linalg, "_echelon_basis", recorded)
    code, out = run_command(["jacobian", "--poly", NODAL_QUINTIC])
    assert code == 2
    assert out == ("error: --poly: the partial derivatives do not cut out a finite-length "
                   "quotient (nonzero piece in degree 10); the curve is singular\n")
    # The node is at [-1:0:1], off the coordinate vertices, so no column of the
    # 84 multiples in degree 10 is zero and `_rank_bound` of them is the 66
    # columns. The rank mod p is 65 after all 84 rows, and only the exact
    # echelon basis of all of them shows that the rank over Q is 65 too.
    assert rows_read == [84] and kept == [84]


def test_graded_piece_dim_is_a_rank(counts):
    ctx = jacobian_context(QUINTIC)
    counts.update(forward=0, back=0, modular=0)
    # Hilbert function of three quartics in general position: (1+t+t^2+t^3)^3.
    dims = [monomial_count(3, k) - ideal_degree_dim(ctx.partials, k) if k >= 0 else 0
            for k in range(-1, 11)]
    assert dims == [0, 1, 3, 6, 10, 12, 12, 10, 6, 3, 1, 0]
    # Degrees 4..10 are ranked mod p (below 4 there are no rows). In degrees
    # 8 and 9 the Koszul syzygies keep the rank below min(rows, cols), so
    # only those two fall back to an exact forward elimination.
    assert counts == {"forward": 2, "back": 0, "modular": 7}


def test_unlucky_prime_falls_back_to_the_exact_rank(counts):
    x, y = (parse_polynomial(v, PLANE_VARS) for v in ("x", f"{ivhs.linalg.PRIME}*y"))
    # The second row vanishes mod p: rank 1 there, 2 over Q.
    assert ideal_degree_dim([x, y], 1) == 2
    assert counts == {"forward": 1, "back": 0, "modular": 1}


def _held_rank(dense):
    """The certified rank of dense rows held in full, as `jacobian` ranks its xi matrices."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in dense]
    return _certified_rank(rows, _rank_bound(rows))


def test_held_rows_are_ranked_mod_p_first(counts):
    # The second row vanishes mod p, so the modular rank 1 cannot certify.
    assert _held_rank([[1, 0], [0, ivhs.linalg.PRIME]]) == 2
    assert counts == {"forward": 1, "back": 0, "modular": 1}


def test_unlucky_prime_xi_falls_back_to_the_exact_rank(counts):
    ctx = jacobian_context(parse_polynomial("x^4+y^4+z^4", PLANE_VARS))
    ctx.sections, ctx.targets
    counts.update(forward=0, back=0, modular=0)
    xi = parse_polynomial(f"x^2*y*z+{ivhs.linalg.PRIME}*x*y^2*z+x*y*z^2", PLANE_VARS)
    rep = ivhs_matrix(ctx, xi)
    # The determinant is -2p, so the rank is 2 mod p; one exact forward pass certifies 3.
    assert [row.dense() for row in rep.matrix] == [[ivhs.linalg.PRIME, 1, 0], [1, 0, 1],
                                                   [0, 1, ivhs.linalg.PRIME]]
    assert rep.rank == 3 == cup_rank_oracle(ctx.curve.terms, xi.terms, ctx.degree)
    assert rep.is_max
    assert counts == {"forward": 1, "back": 0, "modular": 1}


@pytest.mark.parametrize("rows,counted", [
    # A zero row and a zero column bound the rank by 2, which the modular pass reaches.
    ([[1, 0, 0], [0, 2, 0], [0, 0, 0]], {"forward": 0, "back": 0, "modular": 1}),
    # The second row vanishes mod p (an unlucky prime), so the exact rank decides.
    ([[1, 0, 0], [0, ivhs.linalg.PRIME, 0], [0, 0, 0]], {"forward": 1, "back": 0, "modular": 1}),
])
def test_zero_rows_and_columns_lower_the_certification_bound(counts, rows, counted):
    assert _held_rank(rows) == 2
    assert counts == counted


def test_max_rank_search_ranks_only_candidates_that_can_win(counts, monkeypatch):
    ctx = jacobian_context(parse_polynomial("x^6+y^6+z^6", PLANE_VARS))
    counts.update(forward=0, back=0, modular=0)
    summed = []
    real = ivhs.jacobian._summed

    def recorded(terms, sections):
        summed.append(len(terms))
        return real(terms, sections)

    monkeypatch.setattr(ivhs.jacobian, "_summed", recorded)
    ivhs_max_rank(ctx, 200)
    # 200 candidates; only those whose support masks beat the best rank so far
    # are summed, and of those only the ones whose rank bound does are ranked.
    assert len(summed) <= 10
    assert counts["modular"] <= 10


def _lopsided(monkeypatch):
    """Make the degree-2d-3 = 7 piece answer with the larger degree-6 piece."""
    real = ivhs.jacobian.quotient_context
    monkeypatch.setattr(ivhs.jacobian, "quotient_context",
                        lambda first, k: real(first, 6 if k == 7 else k))


DUALITY = ("^the degree-7 piece has dimension 10, but the Hilbert series of a smooth "
           "curve's Jacobian ring gives 6$")


def test_broken_duality_raises_a_named_error(monkeypatch):
    # Dimensions alone come from the Hilbert series; building the piece checks it.
    _lopsided(monkeypatch)
    ctx = jacobian_context(QUINTIC)
    assert ctx.dims == (6, 12, 6)
    with pytest.raises(InvariantError, match=DUALITY):
        ctx.targets


def test_broken_duality_of_built_pieces_raises_a_named_error(monkeypatch):
    # A cup product builds the targets piece; the lopsided one is not kept,
    # so every later read raises again.
    _lopsided(monkeypatch)
    ctx = jacobian_context(QUINTIC)
    xi = parse_polynomial("x^3*y*z-2/3*x*y^2*z^2", PLANE_VARS)
    for _ in range(2):
        with pytest.raises(InvariantError, match=DUALITY):
            ivhs_matrix(ctx, xi)
    assert "targets" not in vars(ctx)


def test_empty_search_raises_a_named_error(monkeypatch):
    ctx = jacobian_context(QUINTIC)
    monkeypatch.setattr(ivhs.jacobian, "_candidates", lambda ctx: iter(()))
    with pytest.raises(InvariantError, match="candidate"):
        ivhs_max_rank(ctx, 5)
