"""Genus and delta-invariant calculus, canonical dimension counts, Petri classes.

Everything here is closed-form integer arithmetic. The singularity
catalog covers the standard planar types; `ordinary:m` and `A:k` extend
the four named kinds consistently (node = A:1 = ordinary:2, cusp = A:2,
tacnode = A:3).
"""

from __future__ import annotations

from typing import NamedTuple

UNDOCUMENTED = "undocumented"

PETRI_CLASSES = (
    "petri_general_nonhyperelliptic",
    "hyperelliptic",
    "trigonal",
    "plane_quintic",
)


class InvariantError(ValueError):
    """An identity a model guarantees did not hold (a defect, not bad input)."""


class SingularityRecord(NamedTuple):
    """Catalog entry for a declared planar curve singularity."""

    kind: str
    delta: int
    branches: int


def singularity(kind: str) -> SingularityRecord:
    """Resolve a kind string (node, cusp, tacnode, ordinary:m, A:k, smooth)."""
    kind = kind.strip()
    if kind == "node":
        return SingularityRecord("node", 1, 2)
    if kind == "cusp":
        return SingularityRecord("cusp", 1, 1)
    if kind == "tacnode":
        return SingularityRecord("tacnode", 2, 2)
    if kind == "smooth":
        return SingularityRecord("smooth", 0, 1)
    if kind.startswith("ordinary:"):
        m = _int_param(kind)
        if m < 2:
            raise ValueError(f"ordinary point needs multiplicity >= 2, got {m}")
        return SingularityRecord(f"ordinary:{m}", m * (m - 1) // 2, m)
    if kind.startswith("A:"):
        k = _int_param(kind)
        if k < 1:
            raise ValueError(f"A-type singularity needs index >= 1, got {k}")
        return SingularityRecord(f"A:{k}", (k + 1) // 2, 2 if k % 2 else 1)
    raise ValueError(f"unknown singularity kind {kind!r}")


def _int_param(kind: str) -> int:
    """The index after the colon: ASCII digits only, as in the polynomial grammar."""
    digits = kind.split(":", 1)[1]
    if not digits or not all("0" <= ch <= "9" for ch in digits):
        raise ValueError(f"malformed singularity kind {kind!r}")
    return int(digits)


class CurveInvariants(NamedTuple):
    """The split p_a = g~ + delta of a singular curve.

    p_a is also the maximal rank of an equisingular family, normalization
    genus plus delta. The weight-graded pieces of H^1 of the curve have
    dimensions gr_w1 = 2 g~ and gr_w2 = delta.
    """

    arithmetic_genus: int
    geometric_genus: int
    total_delta: int
    singularities: tuple[SingularityRecord, ...]

    @property
    def gr_w1(self) -> int:
        return 2 * self.geometric_genus

    @property
    def gr_w2(self) -> int:
        return self.total_delta


def plane_pa(d: int) -> int:
    """Arithmetic genus (d-1)(d-2)/2 of a degree-d plane curve."""
    if d < 1:
        raise ValueError("degree must be positive")
    return (d - 1) * (d - 2) // 2


def ci_genus(a: int, b: int) -> int:
    """Genus 1 + ab(a+b-4)/2 of a type-(a,b) complete intersection curve in 3-space."""
    if a < 1 or b < 1:
        raise ValueError("degrees must be positive")
    return 1 + a * b * (a + b - 4) // 2  # even: a+b-4 is even when a and b are odd


def curve_invariants(pa: int, singularities: list[SingularityRecord]) -> CurveInvariants:
    """Split p_a into the normalization genus and the delta contribution."""
    if pa < 0:
        raise ValueError(f"arithmetic genus must be nonnegative, got {pa}")
    sings = tuple(singularities)
    delta = sum(s.delta for s in sings)
    if delta > pa:
        raise ValueError(f"total delta {delta} exceeds arithmetic genus {pa}")
    return CurveInvariants(pa, pa - delta, delta, sings)


def bicanonical_dim(g: int) -> int:
    """h^0 of the square of the dualizing sheaf: 3g-3 for genus g >= 2."""
    if g < 2:
        raise ValueError("genus must be at least 2")
    return 3 * g - 3


def sym2_dim(g: int) -> int:
    """Dimension g(g+1)/2 of the symmetric square of a g-dimensional space."""
    if g < 1:
        raise ValueError("genus must be positive")
    return g * (g + 1) // 2


class ClassMuReport(NamedTuple):
    """Dimension counts for the canonical multiplication map of a curve class."""

    genus: int
    petri_class: str
    sym2: int
    target: int
    mu_rank: int
    mu_kernel: int
    max_ivhs_rank: int | str


def _known_class(petri_class: str) -> str:
    """`petri_class`, or a ValueError when it is not one of PETRI_CLASSES."""
    if petri_class not in PETRI_CLASSES:
        raise ValueError(f"unknown curve class {petri_class!r}")
    return petri_class


def class_mu_report(g: int, petri_class: str) -> ClassMuReport:
    """Multiplication rank/kernel counts and the documented maximal IVHS rank.

    The maximal IVHS rank is reported as the string "undocumented" outside
    the cases with a known value; no formula is guessed.
    """
    _known_class(petri_class)
    if g < 2:
        raise ValueError("genus must be at least 2")
    sym2 = sym2_dim(g)
    target = bicanonical_dim(g)
    max_rank: int | str
    if petri_class == "petri_general_nonhyperelliptic":
        kernel = (g - 2) * (g - 3) // 2
        max_rank = g
    elif petri_class == "hyperelliptic":
        kernel = sym2 - (2 * g - 1)
        max_rank = 2 if g == 3 else UNDOCUMENTED
    elif petri_class == "trigonal":
        if g < 4:
            raise ValueError("trigonal class requires genus >= 4")
        if g == 5:
            kernel = 3
            max_rank = 4
        else:
            kernel = (g - 2) * (g - 3) // 2
            max_rank = UNDOCUMENTED
    else:  # plane_quintic
        if g != 6:
            raise ValueError("plane quintic class requires genus 6")
        kernel = 6
        max_rank = UNDOCUMENTED
    return ClassMuReport(g, petri_class, sym2, target, sym2 - kernel, kernel, max_rank)
