"""Classification results and tunable search parameters shared by the labs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

POSITIVE = "positive"
NEGATIVE = "negative"
INCONCLUSIVE = "inconclusive"

# Existential "there exists eps > 0" searches run over this grid; classifiers
# may augment it with exactly computed achievable values.
DEFAULT_EPS_GRID = (0.5, 0.2, 0.1, 0.05, 0.02)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a pair/function classification with its supporting evidence."""

    classification: str
    eps_certified: Optional[float] = None
    witnesses: tuple = ()
    params: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self):
        if self.classification not in (POSITIVE, NEGATIVE, INCONCLUSIVE):
            raise ValueError(f"unknown classification {self.classification!r}")
        if self.classification == POSITIVE:
            if not (self.eps_certified and self.eps_certified > 0):
                raise ValueError("positive verdicts need eps_certified > 0")
            if not self.witnesses:
                raise ValueError("positive verdicts need witnesses")

    @property
    def is_positive(self) -> bool:
        return self.classification == POSITIVE

    @property
    def is_negative(self) -> bool:
        return self.classification == NEGATIVE


@dataclass(frozen=True)
class WitnessParams:
    """Knobs for the constructive sensitivity-witness search."""

    pair_bound: int = 6          # (s, t) searched over 0 <= s < t <= pair_bound
    entry_horizon: int = 10_000  # first-entry-time search limit
    density_horizon: int = 100_000
    tail_fraction: float = 0.5
    tolerance: float = 0.02      # empirical density may fall short of eps by this
    sample_seed: int = 7


@dataclass(frozen=True)
class PairParams:
    """Knobs for the mean-sensitivity / diam pair classifiers."""

    eps_grid: Sequence[float] = DEFAULT_EPS_GRID
    witness: WitnessParams = WitnessParams()


@dataclass(frozen=True)
class InPairParams:
    """Knobs for the independence-pair classifier."""

    n_list: Sequence[int] = (4, 8, 16, 24)
    c_min: float = 0.05
    eps_grid: Sequence[float] = DEFAULT_EPS_GRID
    ra_bound: int = 5
    node_budget: int = 500_000
    extra_e_maps: tuple = ()


@dataclass(frozen=True)
class MsFunctionParams:
    """Knobs for the mean-sensitive-function test."""

    eps_grid: Sequence[float] = DEFAULT_EPS_GRID
    pair_attempts: int = 4
    density_horizon: int = 20_000
    tail_fraction: float = 0.5
    seed: int = 11


@dataclass(frozen=True)
class CrosscheckParams:
    """Knobs for the Kushnirenko-side checks."""

    separation_horizons: Sequence[int] = (16, 32, 64)
    greedy_len: int = 6
    greedy_horizon: int = 16
    entropy_increment_floor: float = 0.02

