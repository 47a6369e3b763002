"""Multivariate homogeneous polynomials with exact rational coefficients.

A coefficient is stored by the `linalg` rule: an int unless there is a
denominator. The one global ordering convention: monomials are compared
graded-lex, ties broken by exponent vector with the first variable
heaviest. Every basis list in the package (and therefore every matrix)
inherits its ordering from `graded_monomials`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Iterator, Mapping

from .linalg import Entry, _exact


class PolynomialSyntaxError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable sets."""


class VariableSet:
    """Ordered, fixed list of distinct variable names; equal and hashed by the names."""

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]):
        self.names = names = tuple(names)
        if not names:
            raise ValueError("variable set must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not name or not name[0].isalpha() or not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")

    def __eq__(self, other):
        if type(other) is not VariableSet:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)


PLANE_VARS = VariableSet(("x", "y", "z"))
SPACE_VARS = VariableSet(("x0", "x1", "x2", "x3"))


def _monomial_text(e: tuple[int, ...], variables: VariableSet) -> str:
    """The monomial x^e written over the variable names, "1" for the constant."""
    parts = [name if k == 1 else f"{name}^{k}" for name, k in zip(variables.names, e) if k]
    return "*".join(parts) or "1"


def graded_monomials(variables: VariableSet, k: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all degree-k monomials in graded-lex order; count is C(k+n-1, n-1)."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return _exponents(len(variables), k)


def _exponents(n: int, k: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the degree-k monomials in n variables, in `graded_monomials` order.

    Built from the last variable forward, with no recursion: `tails[j]`
    lists the degree-j vectors of the trailing variables, each built once.
    """
    if n == 1:
        return [(k,)]
    tails = [[(j,)] for j in range(k + 1)]
    for _ in range(n - 2):
        tails = [_prepend(tails, j) for j in range(k + 1)]
    return _prepend(tails, k)


def _prepend(tails: list[list[tuple[int, ...]]], j: int) -> list[tuple[int, ...]]:
    """The degree-j vectors with one more leading variable, its exponent descending."""
    return [(e,) + t for e in range(j, -1, -1) for t in tails[j - e]]


def monomial_count(nvars: int, k: int) -> int:
    """dim of the degree-k piece of a polynomial ring in `nvars` variables."""
    if k < 0:
        return 0
    return comb(k + nvars - 1, nvars - 1)


class Polynomial:
    """Sparse polynomial: a map from monomial to nonzero coefficient.

    A monomial is the tuple of its exponents, one nonnegative int per
    variable; a coefficient is an int unless there is a denominator (`linalg`).
    Polynomials over the same variables with the same terms compare `==`.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: VariableSet, terms: Mapping[tuple[int, ...], Entry]):
        n = len(variables)
        clean = {}
        for m, c in terms.items():
            if type(m) is not tuple:
                raise ValueError(f"monomial {m!r} is not a tuple of exponents")
            if len(m) != n:
                raise VariableMismatchError("monomial arity does not match variable set")
            if not set(map(type, m)) <= {int} or min(m) < 0:
                raise ValueError(f"exponents {m!r} are not nonnegative ints")
            c = c if type(c) is int else _exact(c)
            if c:
                clean[m] = c
        self.variables, self.terms = variables, clean

    def __eq__(self, other):
        if type(other) is not Polynomial:
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    @classmethod
    def zero(cls, variables: VariableSet) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def from_monomial(cls, variables: VariableSet, m: tuple[int, ...],
                      coeff: Entry = 1) -> "Polynomial":
        return cls(variables, {m: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; None for the zero polynomial.

        Raises ValueError when the terms have mixed degrees.
        """
        degrees = set(map(sum, self.terms))
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous (degrees {sorted(degrees)})")
        return degrees.pop()

    def _check_compatible(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise VariableMismatchError("polynomials over different variable sets")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.variables, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out: dict[tuple[int, ...], Entry] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(self.variables, out)

    def partial(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to the var-th variable."""
        if not 0 <= var < len(self.variables):
            raise ValueError("variable index out of range")
        out: dict[tuple[int, ...], Entry] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            mm = (*m[:var], e - 1, *m[var + 1:])
            out[mm] = out.get(mm, 0) + c * e
        return Polynomial(self.variables, out)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Entry]]:
        """Terms with the leading (grlex-largest) monomial first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = _monomial_text(m, self.variables)
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if i == 0:
                chunks.append(piece if sign == "+" else f"-{piece}")
            else:
                chunks.append(f" {sign} {piece}")
        return "".join(chunks)


# --- parsing ------------------------------------------------------------

_OPS = "+-*^/"


def _tokenize(text: str, variables: VariableSet) -> list[tuple[str, object, int]]:
    """Tokens: ('op', char, pos) | ('int', value, pos) | ('var', index, pos).

    Runs of identifier characters are split greedily into declared
    variable names, so juxtaposed variables ("xy", "x0x1") work without
    an explicit '*'.
    """
    tokens: list[tuple[str, object, int]] = []
    by_length = sorted(variables.names, key=len, reverse=True)
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            run = text[i:j]
            pos = i
            while run:
                name = next((n for n in by_length if run.startswith(n)), None)
                if name is None:
                    raise PolynomialSyntaxError(f"unknown variable {run!r}", pos)
                tokens.append(("var", variables.names.index(name), pos))
                pos += len(name)
                run = run[len(name):]
            i = j
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    return tokens


def parse_polynomial(text: str, variables: VariableSet) -> Polynomial:
    """Parse polynomial text over the given variables.

    Grammar: terms joined by '+'/'-'; a term is an optional integer (or
    integer/integer) coefficient followed by variable powers `v^e`.  '*'
    may be omitted between variable factors but is required after a
    number, so "x0*x1", "xy" and "3*x^2" parse while "2x" does not.
    """
    tokens = _tokenize(text, variables)
    n = len(tokens)
    k = 0

    def peek():
        return tokens[k] if k < n else ("end", None, len(text))

    def take():
        nonlocal k
        tok = peek()
        k += 1
        return tok

    def parse_exponent(pos: int) -> int:
        kind, value, p = take()
        if kind == "op" and value == "-":
            raise PolynomialSyntaxError("negative exponent", p)
        if kind != "int":
            raise PolynomialSyntaxError("expected exponent after '^'", pos)
        return int(value)  # type: ignore[arg-type]

    def parse_term() -> tuple[tuple[int, ...], Entry]:
        coeff: Entry = 1
        exponents = [0] * len(variables)
        saw_factor = False
        kind, value, pos = peek()
        if kind == "int":
            take()
            coeff = int(value)  # type: ignore[arg-type]
            saw_factor = True
            kind, value, pos = peek()
            if kind == "op" and value == "/":
                take()
                dkind, dvalue, dpos = take()
                if dkind != "int" or int(dvalue) == 0:  # type: ignore[arg-type]
                    raise PolynomialSyntaxError("expected nonzero integer denominator", dpos)
                coeff = Fraction(coeff, int(dvalue))  # type: ignore[arg-type]
                kind, value, pos = peek()
            if kind == "var":
                raise PolynomialSyntaxError("missing '*' between number and variable", pos)
        while True:
            kind, value, pos = peek()
            if kind == "op" and value == "*":
                take()
                kind, value, pos = peek()
                if kind != "var":
                    raise PolynomialSyntaxError("expected variable after '*'", pos)
            if kind != "var":
                break
            take()
            var = int(value)  # type: ignore[arg-type]
            e = 1
            nkind, nvalue, npos = peek()
            if nkind == "op" and nvalue == "^":
                take()
                e = parse_exponent(npos)
            exponents[var] += e
            saw_factor = True
        if not saw_factor:
            raise PolynomialSyntaxError("expected a term", peek()[2])
        return tuple(exponents), coeff

    # Signed coefficients summed in one dict. A term that cancels leaves it
    # and re-enters at the end: the term order `Polynomial.__add__` gives.
    acc: dict[tuple[int, ...], Entry] = {}
    sign = 1
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        take()
        sign = -1 if value == "-" else 1
    elif kind == "end":
        raise PolynomialSyntaxError("empty input", pos)
    while True:
        exponents, coeff = parse_term()
        total = acc.get(exponents, 0) + sign * coeff
        if total:
            acc[exponents] = total
        else:
            acc.pop(exponents, None)
        kind, value, pos = peek()
        if kind == "end":
            return Polynomial(variables, acc)
        if kind == "op" and value in "+-":
            take()
            sign = -1 if value == "-" else 1
            continue
        raise PolynomialSyntaxError("expected '+' or '-'", pos)
