"""Rank bookkeeping for degenerating families of curves.

A degeneration is described point by point: each declared singularity of
the central fiber either keeps its analytic type (equisingular) or is
smoothed to a milder catalog type on the nearby fiber. The total drop of
the delta-invariant drives everything: the predicted maximal cup-product
rank, the vanishing-cycle count, and the weight-graded dimensions of the
first cohomology of the central fiber.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .invariants import SingularityRecord, curve_invariants, singularity


class DegenerationError(ValueError):
    """The declared family is not a degeneration (delta may not increase)."""


class SmoothingStep:
    """One singular point: its type on the central fiber and on nearby fibers."""

    __slots__ = ("initial", "target")

    def __init__(self, initial: SingularityRecord, target: SingularityRecord):
        if initial.kind == "smooth":
            raise DegenerationError(f"step smooth -> {target.kind}: 'smooth' is "
                                    "allowed only as a degeneration target")
        if target.delta > initial.delta:
            raise DegenerationError(
                f"step {initial.kind} -> {target.kind} increases delta "
                f"({initial.delta} -> {target.delta})"
            )
        self.initial, self.target = initial, target


def step(initial_kind: str, target_kind: str) -> SmoothingStep:
    """Build a smoothing step from catalog kind strings ("smooth" allowed as target)."""
    return SmoothingStep(singularity(initial_kind), singularity(target_kind))


def _parse_step(text: str) -> SmoothingStep:
    """Read the `--step` form initial:target, where kinds may themselves contain ':'.

    The text is first split into the one pair of catalog kinds it can be
    read as; the step is built from that pair, so a step that increases
    delta raises its DegenerationError.
    """
    parts = text.split(":")
    splits = []
    for i in range(1, len(parts)):
        try:
            splits.append((singularity(":".join(parts[:i])), singularity(":".join(parts[i:]))))
        except ValueError:
            continue
    if len(splits) != 1:
        raise ValueError(f"cannot read {text!r} as initial:target with catalog kinds")
    return SmoothingStep(*splits[0])


class DegenerationSpec:
    """Central-fiber arithmetic genus plus one smoothing step per singular point.

    `central` is the split p_a = g~ + delta of the central fiber.
    """

    __slots__ = ("pa", "steps", "central")

    def __init__(self, pa: int, steps: Iterable[SmoothingStep]):
        self.pa, self.steps = pa, tuple(steps)
        try:
            self.central = curve_invariants(pa, [s.initial for s in self.steps])
        except ValueError as e:
            raise DegenerationError(str(e)) from None


class DegenerationReport(NamedTuple):
    delta_initial: int
    delta_target: int
    rank_defect: int
    predicted_max_rank: int
    gr_w1_dim: int
    gr_w2_dim: int
    vanishing_cycle_dim: int


def rank_defect(spec: DegenerationSpec) -> DegenerationReport:
    """Rank defect and limiting weight-graded dimensions of a degeneration.

    The defect equals the total delta drop; the predicted maximal rank is
    p_a minus that drop, and the vanishing cycles account for exactly the
    dropped dimensions.
    """
    central = spec.central
    delta_target = sum(s.target.delta for s in spec.steps)
    drop = central.total_delta - delta_target
    return DegenerationReport(
        delta_initial=central.total_delta,
        delta_target=delta_target,
        rank_defect=drop,
        predicted_max_rank=spec.pa - drop,
        gr_w1_dim=central.gr_w1,
        gr_w2_dim=central.gr_w2,
        vanishing_cycle_dim=drop,
    )


def yukawa_defect(node_count: int) -> int:
    """Yukawa-coupling rank drop of a nodal hypersurface: one per node."""
    if node_count < 0:
        raise ValueError("node count must be nonnegative")
    return node_count
