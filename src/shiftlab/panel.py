"""The bundled desk-scale system panel and its canonical point pairs.

Three systems exercise the three regimes: the Bernoulli(1/2) full 2-shift
(everything positive), the golden-mean shift with its natural Markov measure
(positive with combinatorial obstructions), and the deterministic 4-cycle
(compact, everything negative).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .entropy import default_cell_family
from .measures import MarkovMeasure
from .symbolic import CylinderUnion, EventuallyPeriodic, PointRep, Sft, full_shift

BERNOULLI = "bernoulli"
GOLDEN_MEAN = "golden_mean"
CYCLE4 = "cycle4"


@dataclass(frozen=True)
class PanelSystem:
    id: str
    sft: Sft
    measure: MarkovMeasure
    cell_family: tuple[CylinderUnion, ...]
    description: str


def bernoulli_system() -> PanelSystem:
    sft = full_shift(2)
    m = MarkovMeasure(sft, [["1/2", "1/2"], ["1/2", "1/2"]])
    return PanelSystem(
        BERNOULLI, sft, m, tuple(default_cell_family(m, 1)),
        "full 2-shift with the fair Bernoulli measure",
    )


def golden_mean_system() -> PanelSystem:
    sft = Sft(2, [[True, True], [True, False]])
    m = MarkovMeasure(sft, [["1/2", "1/2"], ["1", "0"]])
    return PanelSystem(
        GOLDEN_MEAN, sft, m, tuple(default_cell_family(m, 1)),
        "golden-mean shift (11 forbidden), stationary vector (2/3, 1/3)",
    )


def cycle4_system() -> PanelSystem:
    allowed = [[j == (i + 1) % 4 for j in range(4)] for i in range(4)]
    sft = Sft(4, allowed)
    transition = [
        ["1" if j == (i + 1) % 4 else "0" for j in range(4)] for i in range(4)
    ]
    m = MarkovMeasure(sft, transition)
    return PanelSystem(
        CYCLE4, sft, m, tuple(default_cell_family(m, 1)),
        "deterministic period-4 cycle with the uniform measure",
    )


# Panel order is report order.
_BUILDERS = {BERNOULLI: bernoulli_system, GOLDEN_MEAN: golden_mean_system, CYCLE4: cycle4_system}


def panel_systems() -> tuple[PanelSystem, ...]:
    return tuple(build() for build in _BUILDERS.values())


def get_system(system_id: str) -> PanelSystem:
    """The named panel system, built alone."""
    if system_id not in _BUILDERS:
        raise KeyError(f"unknown panel system {system_id!r}")
    return _BUILDERS[system_id]()


def periodic_point(sft: Sft, period_word) -> EventuallyPeriodic:
    """The bi-infinite repetition of the word, anchored so x_0 = word[0]."""
    return EventuallyPeriodic(sft, period_word, (), period_word)


def _panel_points(system: PanelSystem) -> list[tuple[str, PointRep]]:
    if system.id == BERNOULLI:
        words = ["0", "1", "01", "001", "011"]
    elif system.id == GOLDEN_MEAN:
        words = ["0", "01", "001", "0001", "00101"]
    elif system.id == CYCLE4:
        return [
            (f"rot{j}", periodic_point(system.sft, [(j + i) % 4 for i in range(4)]))
            for j in range(4)
        ]
    else:
        raise KeyError(system.id)
    return [(f"per({w})", periodic_point(system.sft, w)) for w in words]


def canonical_pairs(system: PanelSystem, count: int = 10) -> list[tuple[str, PointRep, PointRep]]:
    """Deterministic labeled pairs of distinct points valid in the system.

    The Bernoulli list starts with the generator pair (all zeros, all ones).
    """
    points = _panel_points(system)
    pairs = []
    for (name_x, x), (name_y, y) in itertools.permutations(points, 2):
        pairs.append((f"{name_x}|{name_y}", x, y))
        if len(pairs) == count:
            return pairs
    if len(pairs) < count:
        raise ValueError(f"only {len(pairs)} ordered pairs available")
    return pairs
