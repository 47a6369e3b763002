"""Rank bookkeeping for degenerating families of curves.

A degeneration is described point by point: each declared singularity of
the central fiber either keeps its analytic type (equisingular) or is
smoothed to a milder catalog type on the nearby fiber. The total drop of
the delta-invariant drives everything: the predicted maximal cup-product
rank, the vanishing-cycle count, and the weight-graded dimensions of the
first cohomology of the central fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .invariants import CurveInvariants, SingularityRecord, curve_invariants, singularity


class DegenerationError(ValueError):
    """The declared family is not a degeneration (delta may not increase)."""


@dataclass(frozen=True)
class SmoothingStep:
    """One singular point: its type on the central fiber and on nearby fibers."""

    initial: SingularityRecord
    target: SingularityRecord

    def __post_init__(self):
        if self.initial.kind == "smooth":
            raise DegenerationError(f"step smooth -> {self.target.kind}: 'smooth' is "
                                    "allowed only as a degeneration target")
        if self.target.delta > self.initial.delta:
            raise DegenerationError(
                f"step {self.initial.kind} -> {self.target.kind} increases delta "
                f"({self.initial.delta} -> {self.target.delta})"
            )

    @property
    def drop(self) -> int:
        return self.initial.delta - self.target.delta


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


@dataclass(frozen=True)
class DegenerationSpec:
    """Central-fiber arithmetic genus plus one smoothing step per singular point.

    `central` is the split p_a = g~ + delta of the central fiber.
    """

    pa: int
    steps: tuple[SmoothingStep, ...]
    central: CurveInvariants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        try:
            central = curve_invariants(self.pa, [s.initial for s in self.steps])
        except ValueError as e:
            raise DegenerationError(str(e)) from None
        object.__setattr__(self, "central", central)


@dataclass(frozen=True)
class DegenerationReport:
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
