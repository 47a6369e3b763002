"""Seeded command lists for the three benchmark workloads.

Each workload is a list of argv lists for `ivhs.cli.run_command`. The
same (workload, seed) pair always gives the same strings. Nothing here
imports `ivhs`: the program under test only ever sees the strings.

Plane curves come from the family

    F_d = x^d + y^d + z^d + a*x*y^(d-1) + b*x^2*z^(d-2)

with seeded signed integers a, b (1 <= |a|, |b| <= 9). `is_smooth`
decides in closed form whether F_d is smooth, and the generator redraws
until it is, so the Jacobian commands never meet a singular curve.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

# Catalog kinds and their delta-invariants (node = A:1, cusp = A:2, tacnode = A:3).
SINGULARITY_DELTAS = {
    "node": 1, "cusp": 1, "tacnode": 2, "ordinary:3": 3, "ordinary:4": 6,
    "A:4": 2, "A:5": 3, "smooth": 0,
}
CURVE_CLASSES = ("petri_general_nonhyperelliptic", "hyperelliptic", "trigonal",
                 "plane_quintic")


def signed(k: int, factor: str) -> str:
    """Render a signed coefficient as "+k*m" or "-k*m" (the parser rejects "+-k")."""
    return f"{'+' if k > 0 else '-'}{abs(k)}*{factor}"


def plane_curve(d: int, a: int, b: int) -> str:
    return f"x^{d}+y^{d}+z^{d}{signed(a, f'x*y^{d - 1}')}{signed(b, f'x^2*z^{d - 2}')}"


def is_smooth(d: int, a: int, b: int) -> bool:
    """Whether the plane curve F_d(a, b) is smooth, for d >= 4 and a, b != 0.

    F_y = y^(d-2) (d*y + a(d-1)*x) and F_z = z^(d-3) (d*z^2 + b(d-2)*x^2),
    so a common zero of the partials has x = 1, y in {0, e} with
    e = -a(d-1)/d, and z = 0 or z^2 = c with c = -b(d-2)/d. F is singular
    exactly when F_x = d + a*y^(d-1) + 2b*z^(d-2) vanishes at one of them.
    """
    e = Fraction(-a * (d - 1), d)
    c = Fraction(-b * (d - 2), d)
    for y in (Fraction(0), e):
        base = d + a * y ** (d - 1)
        if base == 0:                      # z = 0
            return False
        if d % 2 == 0:                     # z^(d-2) = c^((d-2)/2)
            if base + 2 * b * c ** ((d - 2) // 2) == 0:
                return False
        else:                              # z^(d-2) = z c^((d-3)/2), z = +-sqrt(c)
            scale = 2 * b * c ** ((d - 3) // 2)
            if base * base == c * scale * scale:
                return False
    return True


def _coefficient(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _smooth_curve(rng: random.Random, d: int) -> str:
    while True:
        a, b = _coefficient(rng), _coefficient(rng)
        if is_smooth(d, a, b):
            return plane_curve(d, a, b)


def _monomials(d: int) -> list[str]:
    out = []
    for combo in combinations_with_replacement("xyz", d):
        parts = [f"{v}^{combo.count(v)}" if combo.count(v) > 1 else v
                 for v in "xyz" if combo.count(v)]
        out.append("*".join(parts))
    return out


def _plane_class(rng: random.Random, d: int) -> str:
    terms = rng.sample(_monomials(d), rng.randint(2, 4))
    text = "".join(signed(_coefficient(rng), m) for m in terms)
    return text[1:] if text[0] == "+" else text


def _mu_kernels(rng: random.Random) -> list[list[str]]:
    cmds = [["mu", "plane", "--poly", _smooth_curve(rng, d), "--json"] for d in (8, 9)]
    q = "x0^3+x1^3+x2^3+x3^3" + signed(_coefficient(rng), "x0*x1^2")
    # A diagonal quartic with nonzero coefficients is smooth, hence
    # irreducible, so (q, c) is a regular sequence for every draw.
    c = "x0^4" + "".join(signed(rng.randint(1, 9), f"x{i}^4") for i in (1, 2, 3))
    cmds.append(["mu", "ci", f"--q={q}", f"--c={c}", "--json"])
    cmds.append(["mu", "hyperelliptic", "--genus", "30", "--json"])
    return cmds


def _jacobian_rings(rng: random.Random) -> list[list[str]]:
    return [["jacobian", "--poly", _smooth_curve(rng, d), "--json"] for d in (6, 7, 8)]


def _singularities(rng: random.Random, pa: int) -> list[str]:
    kinds = [k for k in SINGULARITY_DELTAS if k != "smooth"]
    chosen: list[str] = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(kinds)
        if sum(SINGULARITY_DELTAS[k] for k in chosen) + SINGULARITY_DELTAS[kind] <= pa:
            chosen.append(kind)
    return chosen


def _class_command(rng: random.Random) -> list[str]:
    kind = rng.choice(CURVE_CLASSES)
    genus = {"plane_quintic": 6, "trigonal": rng.randint(4, 12)}.get(kind, rng.randint(2, 12))
    return ["class", "--genus", str(genus), "--class", kind]


def _invariants_command(rng: random.Random) -> list[str]:
    pa = rng.randint(3, 12)
    sings = _singularities(rng, pa)
    return ["invariants", "--pa", str(pa)] + ([f"--sing={','.join(sings)}"] if sings else [])


def _degenerate_command(rng: random.Random) -> list[str]:
    pa = rng.randint(3, 12)
    initial = _singularities(rng, pa) or ["node"]
    cmd = ["degenerate", "--pa", str(pa)]
    for kind in initial:
        milder = [k for k, v in SINGULARITY_DELTAS.items()
                  if v <= SINGULARITY_DELTAS[kind]]
        cmd.append(f"--step={kind}:{rng.choice(milder)}")
    return cmd


def _xi_sweep(rng: random.Random) -> list[list[str]]:
    # "--xi=<class>": argparse would read a separate value with a leading '-' as a flag.
    cmds = [["jacobian", "--poly", _smooth_curve(rng, 5), f"--xi={_plane_class(rng, 5)}"]
            for _ in range(30)]
    cmds.append(["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "200"])
    cmds += [["mu", "plane", "--poly", _smooth_curve(rng, 4 + i % 3)] for i in range(30)]
    makers = (_class_command, _invariants_command, _degenerate_command)
    cmds += [makers[i % 3](rng) for i in range(48)]
    cmds += [["fixtures"], ["fixtures"]]
    return cmds


_MAKERS = {"mu_kernels": _mu_kernels, "jacobian_rings": _jacobian_rings,
           "xi_sweep": _xi_sweep}
WORKLOADS = tuple(_MAKERS)


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one pass over `workload`, drawn from `seed`."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
