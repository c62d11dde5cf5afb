"""Orbit densities and Birkhoff averages over F_n = {0, ..., n-1}, and temperedness.

Every density, Birkhoff average and d_f estimate is taken over the windows
F_n = {0, ..., n-1}. Upper and lower densities are limsup/liminf of
|S intersect F_n| / |F_n|; at desk scale these become the max/min of the
window averages over a tail of n values, except for eventually periodic
predicates, which take an exact rational path. `FolnerWindows` is a general
window rule n -> F_n, and `temperedness_constant` checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .symbolic import EventuallyPeriodic, PointRep, SetLike, Sft, constraints_meet, point_in_set, point_window

DEFAULT_TAIL_FRACTION = 0.5
DEFAULT_N_MAX = 100_000


class FolnerWindows:
    """A rule n -> finite subset of Z, as `temperedness_constant` reads it."""

    def __init__(self, rule: Callable[[int], Sequence[int]], name: str):
        self.rule = rule
        self.name = name

    @classmethod
    def canonical_windows(cls) -> "FolnerWindows":
        return cls(lambda n: range(n), "F_n = {0,...,n-1}")

    def window(self, n: int) -> list[int]:
        w = list(self.rule(n))
        if not w:
            raise ValueError(f"window F_{n} is empty")
        return w

    def __repr__(self) -> str:
        return f"FolnerWindows({self.name})"


@dataclass(frozen=True)
class DensityEstimate:
    """Tail estimates of upper/lower density; exact when the limit is known."""

    lower: float
    upper: float
    exact: Optional[Fraction] = None

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper + 1e-15):
            raise ValueError("density estimates must satisfy 0 <= lower <= upper")


@dataclass(frozen=True)
class PeriodicPredicate:
    """An eventually periodic membership predicate on Z_+.

    Values are `preperiod` on [0, len(preperiod)) and then cycle through
    `period`. Densities of such predicates are exact rational frequencies.
    """

    preperiod: tuple[bool, ...]
    period: tuple[bool, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")

    def __call__(self, s: int) -> bool:
        if s < 0:
            raise ValueError("predicate is defined on Z_+")
        if s < len(self.preperiod):
            return self.preperiod[s]
        return self.period[(s - len(self.preperiod)) % len(self.period)]

    def frequency(self) -> Fraction:
        return Fraction(sum(self.period), len(self.period))


def _periodic_and(p1: PeriodicPredicate, p2: PeriodicPredicate) -> PeriodicPredicate:
    burn = max(len(p1.preperiod), len(p2.preperiod))
    period = math.lcm(len(p1.period), len(p2.period))
    pre = tuple(p1(s) and p2(s) for s in range(burn))
    cyc = tuple(p1(burn + j) and p2(burn + j) for j in range(period))
    return PeriodicPredicate(pre, cyc)


def _visit_predicate(sft: Sft, cell: SetLike, u: SetLike) -> PeriodicPredicate:
    """Exact eventually-periodic predicate s -> [cell ∩ T^{-s} u nonempty] on block-form sets.

    While u starts inside the cell's support, `constraints_meet` (the block
    filter of the symbolic layer) decides each shift. Past it the sets meet
    iff the orbit (`Sft.orbit`) of the last symbols of the cell's last block
    reaches a first symbol of u's first block across the gap, the filter's
    own test at a free gap; so the predicate is periodic once the orbit cycles.
    """
    if cell.is_empty or u.is_empty:
        return PeriodicPredicate((), (False,))
    if not cell.blocks() or not u.blocks():
        return PeriodicPredicate((), (True,))
    c_hi, u_lo = cell.support[1], u.support[0]
    s0 = max(0, c_hi - u_lo + 1)  # the first shift whose u starts past the cell
    lasts, firsts = frozenset(w[-1] for w in cell.blocks()[-1][1]), frozenset(w[0] for w in u.blocks()[0][1])
    sets, cycle_start = sft.orbit(lasts)
    burn = s0 + max(0, cycle_start - (u_lo + s0 - c_hi))
    meets = [constraints_meet([(0, cell), (s, u)], sft) for s in range(s0)]
    for s in range(s0, burn + len(sets) - cycle_start):
        meets.append(not firsts.isdisjoint(sft.reach(lasts, u_lo + s - c_hi)))
    return PeriodicPredicate(tuple(meets[:burn]), tuple(meets[burn:]))


Predicate = Union[PeriodicPredicate, Callable[[int], bool]]


def membership_predicate(p: PointRep, s: SetLike) -> Predicate:
    """Predicate g -> [T^g p in s]; exact periodic form for periodic points."""
    if isinstance(p, EventuallyPeriodic):
        lo = min((start for start, _ in s.blocks()), default=0)
        burn = max(0, p.core_end() - lo)
        hits = orbit_indicator(p, s, 0, burn + p.tail_period()).tolist()
        return PeriodicPredicate(tuple(hits[:burn]), tuple(hits[burn:]))
    return lambda g: point_in_set(p, s, g)


def density(pred: Predicate, n_max: int = DEFAULT_N_MAX) -> DensityEstimate:
    """Upper/lower density estimates from the tail of the window averages."""
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    if isinstance(pred, PeriodicPredicate):
        freq = pred.frequency()
        return DensityEstimate(float(freq), float(freq), exact=freq)
    hits = np.fromiter((bool(pred(s)) for s in range(n_max)), dtype=bool, count=n_max)
    return density_from_indicator(hits)


def density_from_indicator(hits: np.ndarray) -> DensityEstimate:
    """Tail density of a precomputed indicator over {0, ..., len(hits) - 1}:
    the window averages for n from ceil(DEFAULT_TAIL_FRACTION * len(hits))."""
    if not len(hits):
        raise ValueError("hits must not be empty")
    start = max(1, math.ceil(DEFAULT_TAIL_FRACTION * len(hits)))
    # Only the tail's running counts are read: the head is one count.
    counts = np.cumsum(hits[start - 1 :], dtype=np.int64)
    counts += np.count_nonzero(hits[: start - 1])
    averages = counts / np.arange(start, len(hits) + 1)
    return DensityEstimate(float(averages.min()), float(averages.max()))


def temperedness_constant(windows: FolnerWindows, n_max: int) -> float:
    """max over 1 < n <= n_max of |union_{k<n} F_k^{-1} F_n| / |F_n|.

    In additive notation F^{-1} = {-f : f in F}, and the union over k
    collapses to (union_{k<n} F_k)^{-1} F_n.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    cumulative: set[int] = set(windows.window(1))
    worst = 0.0
    for n in range(2, n_max + 1):
        fn = windows.window(n)
        diffs = {g - f for f in cumulative for g in fn}
        worst = max(worst, len(diffs) / len(fn))
        cumulative.update(fn)
    return worst


def birkhoff_average(p: PointRep, f_set: SetLike, n: int) -> Fraction:
    """(1/n) sum_{0 <= s < n} 1_{f_set}(T^s p), exactly."""
    if n < 1:
        raise ValueError(f"window F_{n} is empty")
    return Fraction(int(orbit_indicator(p, f_set, 0, n).sum()), n)


def orbit_indicator(p: PointRep, s: SetLike, lo: int, hi: int) -> np.ndarray:
    """Vector of [T^g p in s] for g in [lo, hi), via one materialized window."""
    length = hi - lo
    if length <= 0:
        return np.zeros(0, dtype=bool)
    if s.is_empty:
        return np.zeros(length, dtype=bool)
    blocks = s.blocks()
    if not blocks:
        return np.ones(length, dtype=bool)
    span_lo = min(start for start, _ in blocks)
    span_hi = max(start + len(ws[0]) - 1 for start, ws in blocks)
    arr = point_window(p, lo + span_lo, hi - 1 + span_hi)
    result = np.ones(length, dtype=bool)
    for start, words in blocks:
        width = len(words[0])
        offset = start - span_lo
        block_ok = np.zeros(length, dtype=bool)
        for w in words:
            match = np.ones(length, dtype=bool)
            for j, sym in enumerate(w):
                match &= arr[offset + j : offset + j + length] == sym
            block_ok |= match
        result &= block_ok
    return result
