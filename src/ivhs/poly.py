"""Multivariate homogeneous polynomials with exact rational coefficients.

A coefficient is stored by the `linalg` rule: an int unless there is a
denominator. The one global ordering convention: monomials are compared
graded-lex, ties broken by exponent vector with the first variable
heaviest. Every basis list in the package (and therefore every matrix)
inherits its ordering from `graded_monomials`.

`parse_polynomial` cuts text into tokens with one regular expression and
sums the terms in one loop over the token list.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Any, Callable, Iterable, Mapping

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
        for name in names:  # text spells a name only if \w matches each of its characters
            if not (name and name[0].isalpha() and name.isidentifier()
                    and all(ch.isalnum() or ch == "_" for ch in name)):
                raise ValueError(f"invalid variable name {name!r}")

    def __eq__(self, other):
        if type(other) is not VariableSet:
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __len__(self) -> int:
        return len(self.names)


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
    return list(_exponents(len(variables), k))


@lru_cache(maxsize=64)
def _exponents(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the degree-k monomials in n variables, in `graded_monomials` order.

    Built from the last variable forward, with no recursion: `tails[j]`
    lists the degree-j vectors of the trailing variables, each built once.
    Cached: a command may read one degree's list twice (`jacobian.ivhs_max_rank`
    runs over the columns of its degree-d quotient), and bounded: a process
    may read many degrees.
    """
    if n == 1:
        return ((k,),)
    tails = [[(j,)] for j in range(k + 1)]
    for _ in range(n - 2):
        tails = [_prepend(tails, j) for j in range(k + 1)]
    return tuple(_prepend(tails, k))


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

    def __str__(self) -> str:
        """The terms with the leading (grlex-largest) monomial first, "0" if there is none."""
        leading_first = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return _signed_sum(leading_first, lambda m: _monomial_text(m, self.variables)) or "0"


def _signed_sum(terms: Iterable[tuple[Any, Entry]], text: Callable[[Any], str]) -> str:
    """The sum of c * text(key) over (key, c) terms, as "a - 2*b + c"; a text "1" shows |c|."""
    chunks = []
    for key, c in terms:
        body = text(key)
        if chunks:
            chunks.append(" - " if c < 0 else " + ")
        elif c < 0:
            chunks.append("-")
        mag = abs(c)
        chunks.append(str(mag) if body == "1" else body if mag == 1 else f"{mag}*{body}")
    return "".join(chunks)


# --- parsing ------------------------------------------------------------

# One token per match: an operator, an ASCII digit run, an identifier run,
# or a character no token starts with. Whitespace matches none, so
# `finditer` skips it between tokens.
_TOKEN = re.compile(r"([-+*^/])|([0-9]+)|(\w+)|(\S)")
_SIGNS = {"+": 1, "-": -1}


@lru_cache(maxsize=64)
def _names(variables: VariableSet) -> re.Pattern:
    """A pattern matching the longest declared variable name at a position."""
    return re.compile("|".join(map(re.escape, sorted(variables.names, key=len, reverse=True))))


def _tokenize(text: str, variables: VariableSet) -> list[tuple[str, object, int]]:
    """Tokens (kind, value, pos): (operator, None), ('int', value) or ('var', index).

    One ('end', None) at position len(text) closes the list. Identifier
    runs are split greedily into declared variable names, so juxtaposed
    variables ("xy", "x0x1") work without an explicit '*'.
    """
    names = _names(variables)
    tokens: list[tuple[str, object, int]] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        pos, end = m.span()
        if kind == 1:
            tokens.append((text[pos], None, pos))
        elif kind == 2:
            tokens.append(("int", int(m.group()), pos))
        elif kind == 3 and (text[pos].isalpha() or text[pos] == "_"):
            while pos < end:
                name = names.match(text, pos, end)
                if name is None:
                    raise PolynomialSyntaxError(f"unknown variable {text[pos:end]!r}", pos)
                tokens.append(("var", variables.names.index(name.group()), pos))
                pos = name.end()
        else:
            raise PolynomialSyntaxError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", None, len(text)))
    return tokens


def parse_polynomial(text: str, variables: VariableSet) -> Polynomial:
    """Parse polynomial text over the given variables.

    Grammar: terms joined by '+'/'-'; a term is an optional integer (or
    integer/integer) coefficient followed by variable powers `v^e`.  '*'
    may be omitted between variable factors but is required after a
    number, so "x0*x1", "xy" and "3*x^2" parse while "2x" does not.
    """
    tokens = _tokenize(text, variables)
    kind, _, pos = tokens[0]
    if kind == "end":
        raise PolynomialSyntaxError("empty input", pos)
    sign = _SIGNS.get(kind, 1)
    k = 1 if kind in _SIGNS else 0
    # Signed coefficients summed in one dict. A term that cancels leaves it
    # and re-enters at the end, as it would in a sum of polynomials.
    acc: dict[tuple[int, ...], Entry] = {}
    while True:  # one term per pass, from tokens[k]
        kind, value, pos = tokens[k]
        if kind not in ("int", "var"):
            raise PolynomialSyntaxError("expected a term", pos)
        coeff: Entry = 1
        exponents = [0] * len(variables)
        if kind == "int":
            coeff = value
            k += 1
            kind, value, pos = tokens[k]
            if kind == "/":
                dkind, dvalue, dpos = tokens[k + 1]
                if dkind != "int" or not dvalue:
                    raise PolynomialSyntaxError("expected nonzero integer denominator", dpos)
                coeff = Fraction(coeff, dvalue)
                k += 2
                kind, value, pos = tokens[k]
            if kind == "var":
                raise PolynomialSyntaxError("missing '*' between number and variable", pos)
        while kind == "var" or kind == "*":
            if kind == "*":
                k += 1
                kind, value, pos = tokens[k]
                if kind != "var":
                    raise PolynomialSyntaxError("expected variable after '*'", pos)
            k += 1
            e = 1
            if tokens[k][0] == "^":
                ekind, e, epos = tokens[k + 1]
                if ekind == "-":
                    raise PolynomialSyntaxError("negative exponent", epos)
                if ekind != "int":
                    raise PolynomialSyntaxError("expected exponent after '^'", tokens[k][2])
                k += 2
            exponents[value] += e
            kind, value, pos = tokens[k]
        exponents = tuple(exponents)
        total = acc.get(exponents, 0) + sign * coeff
        if total:
            acc[exponents] = total
        else:
            acc.pop(exponents, None)
        if kind == "end":
            return Polynomial(variables, acc)
        if kind not in _SIGNS:
            raise PolynomialSyntaxError("expected '+' or '-'", pos)
        sign = _SIGNS[kind]
        k += 1
