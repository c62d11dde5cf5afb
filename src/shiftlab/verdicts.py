"""Classification results and the search parameters that callers set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    density_horizon: int = 100_000


@dataclass(frozen=True)
class InPairParams:
    """Knobs for the independence-pair classifier."""

    extra_e_maps: tuple = ()


@dataclass(frozen=True)
class MsFunctionParams:
    """Knobs for the mean-sensitive-function test."""

    pair_attempts: int = 4
    density_horizon: int = 20_000
    seed: int = 11
