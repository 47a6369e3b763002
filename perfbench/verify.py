"""Output checks for benchmark commands, written without importing `ivhs`.

`check(argv, code, output)` returns a list of problems (empty when the
output is right). It checks exit codes and closed forms that hold for
every seed:

* mu: rank + kernel_dim == source_dim; plane and complete-intersection
  curves are canonical and non-hyperelliptic, so Sym^2 surjects and
  rank == target_dim == 3g - 3; hyperelliptic rank == 2g - 1; kernel
  vectors are primitive, independent (distinct last nonzero index) and
  each satisfies A*v == 0 in integers, A read from the output;
* jacobian: dims are the coefficients of t^k in ((1 - t^(d-1))/(1 - t))^3
  at k = d-3, d, 2d-3, the socle degree is 3(d-2), and a printed xi
  matrix has the printed rank (recomputed here by exact elimination);
* class, invariants, degenerate: the genus and delta-invariant formulas;
* fixtures: every fixture passes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm


def option(argv: list[str], flag: str) -> list[str]:
    """Every value given for `flag`, as "--flag value" or "--flag=value"."""
    values = []
    for i, arg in enumerate(argv):
        if arg == flag and i + 1 < len(argv):
            values.append(argv[i + 1])
        elif arg.startswith(flag + "="):
            values.append(arg[len(flag) + 1:])
    return values


def first_term_degree(poly: str) -> int:
    """Total degree of the leading term of a generated polynomial ("x^8+..." -> 8)."""
    term = re.split(r"[+-]", poly.lstrip("+-"))[0]
    return sum(int(f.split("^")[1]) if "^" in f else 1
               for f in term.split("*") if f[:1].isalpha())


def delta(kind: str) -> int:
    if kind in ("node", "cusp"):
        return 1
    if kind == "tacnode":
        return 2
    if kind == "smooth":
        return 0
    name, value = kind.split(":")
    m = int(value)
    return m * (m - 1) // 2 if name == "ordinary" else (m + 1) // 2


def branches(kind: str) -> int:
    if kind in ("node", "tacnode"):
        return 2
    if kind in ("cusp", "smooth"):
        return 1
    name, value = kind.split(":")
    m = int(value)
    return m if name == "ordinary" else (2 if m % 2 else 1)


def jacobian_dims(d: int) -> dict[str, int]:
    """Coefficients of (1 + t + ... + t^(d-2))^3 at d-3, d and 2d-3."""
    series = [1]
    for _ in range(3):
        out = [0] * (len(series) + d - 2)
        for i, c in enumerate(series):
            for j in range(d - 1):
                out[i + j] += c
        series = out
    return {"sections": series[d - 3], "deformations": series[d],
            "targets": series[2 * d - 3]}


def exact_rank(grid: list[list[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions (shares no code with ivhs).

    run.py also times it on a fixed matrix as its host-speed reference.
    """
    rows = [row[:] for row in grid]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / p
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction(entry) -> Fraction:
    return Fraction(entry) if isinstance(entry, int) else Fraction(str(entry))


def _integer_rows(grid) -> list[list[int]]:
    out = []
    for row in grid:
        fr = [_fraction(e) for e in row]
        scale = lcm(*(e.denominator for e in fr)) if fr else 1
        out.append([int(e * scale) for e in fr])
    return out


def _check_kernel(matrix, kernel: list[list[int]], cols: int) -> list[str]:
    last = -1
    for v in kernel:
        if len(v) != cols:
            return [f"kernel vector of length {len(v)}, expected {cols}"]
        nz = [i for i, x in enumerate(v) if x]
        if not nz or gcd(*v) != 1 or v[nz[0]] < 0:
            return ["kernel vector is not primitive with positive leading entry"]
        if nz[-1] <= last:
            return ["kernel vectors are not in echelon order (not independent)"]
        last = nz[-1]
    rows = _integer_rows(matrix)
    for v in kernel:
        support = [(j, x) for j, x in enumerate(v) if x]
        if any(sum(row[j] * x for j, x in support) for row in rows):
            return ["a kernel vector does not satisfy A*v == 0"]
    return []


def _text_fields(output: str) -> dict[str, str]:
    fields = {}
    for line in output.splitlines():
        if not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def _text_block(output: str, header: str) -> list[str]:
    lines = output.splitlines()
    start = lines.index(header) + 1
    block = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        block.append(line.strip())
    return block


def _text_grid(block: list[str]) -> list[list[Fraction]]:
    if block in (["(empty)"], []):
        return []
    return [[Fraction(e) for e in line.split()] for line in block]


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def _check_mu(argv: list[str], output: str) -> list[str]:
    problems: list[str] = []
    model = argv[1]
    if "--json" in argv:
        data = json.loads(output)
        kind, p = data["kind"], data["payload"]
        source, target = p["source_dim"], p["target_dim"]
        rank, kdim = p["rank"], p["kernel_dim"]
        matrix = p["matrix"]
        _expect(problems, "kernel basis size", len(p["kernel_basis"]), kdim)
        _expect(problems, "kernel relation count", len(p["kernel_relations"]), kdim)
        problems += _check_kernel(matrix, p["kernel_basis"], source)
    else:
        f = _text_fields(output)
        kind = f["kind"]
        source, target = int(f["source_dim"]), int(f["target_dim"])
        rank, kdim = int(f["rank"]), int(f["kernel_dim"])
        matrix = _text_grid(_text_block(output, "matrix:"))
        relations = _text_block(output, "kernel:")
        _expect(problems, "kernel relation count",
                0 if relations == ["(trivial)"] else len(relations), kdim)
        _expect(problems, "recomputed rank", exact_rank(matrix), rank)
    _expect(problems, "kind", kind, f"{model}_mu")
    _expect(problems, "matrix shape", (len(matrix), len(matrix[0]) if matrix else source),
            (target, source))
    _expect(problems, "rank + kernel_dim", rank + kdim, source)
    if model == "plane":
        d = first_term_degree(option(argv, "--poly")[0])
        g = (d - 1) * (d - 2) // 2
    elif model == "ci":
        a = first_term_degree(option(argv, "--q")[0])
        b = first_term_degree(option(argv, "--c")[0])
        g = 1 + a * b * (a + b - 4) // 2
    else:
        g = int(option(argv, "--genus")[0])
    _expect(problems, "source_dim", source, g * (g + 1) // 2)
    want_target = 2 * g - 1 if model == "hyperelliptic" else 3 * g - 3
    _expect(problems, "target_dim", target, want_target)
    _expect(problems, "rank", rank, want_target)
    return problems


def _check_jacobian(argv: list[str], output: str) -> list[str]:
    problems: list[str] = []
    d = first_term_degree(option(argv, "--poly")[0])
    want = jacobian_dims(d)
    if "--json" in argv:
        data = json.loads(output)
        kind, p = data["kind"], data["payload"]
        degree, socle, dims = p["degree"], p["socle_degree"], p["dims"]
        has_xi, has_search = p["xi"] is not None, p["search"] is not None
    else:
        f = _text_fields(output)
        kind, degree, socle = f["kind"], int(f["degree"]), int(f["socle_degree"])
        m = re.fullmatch(r"sections (\d+), deformations (\d+), targets (\d+)", f["dims"])
        dims = dict(zip(("sections", "deformations", "targets"), map(int, m.groups())))
        has_xi, has_search = "xi" in f, "search_budget" in f
        if has_xi:
            rank_text, is_max = re.fullmatch(r"(\d+) \(max: (True|False)\)",
                                             f["xi_rank"]).groups()
            grid = _text_grid(_text_block(output, "xi_matrix:"))
            _expect(problems, "xi matrix shape",
                    (len(grid), len(grid[0]) if grid else 0),
                    (want["targets"], want["sections"]))
            _expect(problems, "recomputed xi rank", exact_rank(grid), int(rank_text))
            _expect(problems, "xi is_max", is_max == "True",
                    int(rank_text) == want["sections"])
        if has_search:
            _expect(problems, "search budget", f["search_budget"], option(argv, "--budget")[0])
            best, achieved = re.fullmatch(r"(\d+) \(achieved_max: (True|False)\)",
                                          f["best_rank"]).groups()
            if int(best) > want["sections"]:
                problems.append(f"best rank {best} exceeds {want['sections']} sections")
            _expect(problems, "achieved_max", achieved == "True",
                    int(best) == want["sections"])
    _expect(problems, "kind", kind, "jacobian_ivhs")
    _expect(problems, "degree", degree, d)
    _expect(problems, "socle degree", socle, 3 * (d - 2))
    _expect(problems, "dims", dims, want)
    _expect(problems, "xi present", has_xi, bool(option(argv, "--xi")))
    _expect(problems, "search present", has_search, bool(option(argv, "--budget")))
    return problems


def _check_class(argv: list[str], output: str) -> list[str]:
    problems: list[str] = []
    f = _text_fields(output)
    g, cls = int(option(argv, "--genus")[0]), option(argv, "--class")[0]
    sym2, target = g * (g + 1) // 2, 3 * g - 3
    rank = 2 * g - 1 if cls == "hyperelliptic" else target  # Noether's theorem
    for key, want in (("kind", "class_report"), ("genus", str(g)), ("petri_class", cls),
                      ("sym2", str(sym2)), ("target", str(target)),
                      ("mu_rank", str(rank)), ("mu_kernel", str(sym2 - rank))):
        _expect(problems, key, f.get(key), want)
    return problems


def _check_invariants(argv: list[str], output: str) -> list[str]:
    problems: list[str] = []
    f = _text_fields(output)
    pa = int(option(argv, "--pa")[0])
    kinds = option(argv, "--sing")[0].split(",") if option(argv, "--sing") else []
    total = sum(delta(k) for k in kinds)
    listed = _text_block(output, "singularities:")
    want_listed = [f"{k}: delta {delta(k)}, branches {branches(k)}" for k in kinds]
    _expect(problems, "singularities", listed, want_listed or ["(none)"])
    for key, want in (
        ("kind", "invariants"), ("arithmetic_genus", str(pa)),
        ("geometric_genus", str(pa - total)), ("total_delta", str(total)),
        ("equisingular_rank",
         f"{pa} = {pa - total} (normalization) + {total} (singularities)"),
        ("mhs", f"gr_w1 {2 * (pa - total)}, gr_w2 {total}"),
    ):
        _expect(problems, key, f.get(key), want)
    return problems


def _check_degenerate(argv: list[str], output: str) -> list[str]:
    problems: list[str] = []
    f = _text_fields(output)
    pa = int(option(argv, "--pa")[0])
    steps = []
    for text in option(argv, "--step"):
        parts = text.split(":")
        # Generated kinds have at most one ':' each, so the split is unique.
        cut = 2 if parts[0] in ("ordinary", "A") else 1
        steps.append((":".join(parts[:cut]), ":".join(parts[cut:])))
    initial = sum(delta(a) for a, _ in steps)
    target = sum(delta(b) for _, b in steps)
    _expect(problems, "steps", _text_block(output, "steps:"),
            [f"{a} -> {b}" for a, b in steps])
    for key, want in (
        ("kind", "degeneration"), ("arithmetic_genus", pa),
        ("delta_initial", initial), ("delta_target", target),
        ("rank_defect", initial - target), ("predicted_max_rank", pa - initial + target),
        ("gr_w1", 2 * (pa - initial)), ("gr_w2", initial),
        ("vanishing_cycles", initial - target),
    ):
        _expect(problems, key, f.get(key), str(want))
    return problems


def _check_fixtures(argv: list[str], output: str) -> list[str]:
    lines = output.splitlines()
    if not lines or not lines[:-1]:
        return ["fixture output is empty"]
    problems = [line for line in lines[:-1] if not line.startswith("PASS ")]
    n = len(lines) - 1
    _expect(problems, "fixture summary", lines[-1], f"passed {n}/{n}")
    return problems


_CHECKS = {"mu": _check_mu, "jacobian": _check_jacobian, "class": _check_class,
           "invariants": _check_invariants, "degenerate": _check_degenerate,
           "fixtures": _check_fixtures}


def check(argv: list[str], code: int, output: str) -> list[str]:
    """Problems with one command's result; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}: {output.strip()[:200]}"]
    try:
        return _CHECKS[argv[0]](argv, output)
    except (KeyError, ValueError, IndexError, TypeError, AttributeError) as e:
        return [f"unreadable output ({type(e).__name__}: {e})"]
