"""Mean-sensitivity and diam-mean-sensitivity pairs, the constructive witness
procedure, the pigeonhole lemma, and the panel-wide equivalence cross-check.

The MS pair classifier certifies from exact gap measures and samples
nothing. Sampling lives in the constructive procedure
`find_sensitivity_witnesses`: it samples a generic point z, enters
s^{-1}A ∩ t^{-1}A at the first time e >= 0, takes p = T^{s+e} z,
q = T^{t+e} z, and estimates the visit density of (U_x, U_y) along the pair
orbit against the exact target mu(s^{-1}U_x ∩ t^{-1}U_y).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .entropy import check_cell_family, separation_counts, separation_growing
from .errors import EntryTimeNotFoundError
from .folner import PeriodicPredicate, density_from_indicator, orbit_indicator
from .independence import (
    InPairParams,
    TableE,
    classify_in_pair,
    neighbourhood_levels,
    point_neighborhood,
    random_table_e,
    separating_depth,
)
from .measures import (
    MarkovMeasure,
    _gap_nums,
    measure_of,
    sample_point,
)
from .symbolic import (
    CylinderUnion,
    PointRep,
    SetLike,
    Sft,
    constraints_meet,
    shift_point,
)
from .verdicts import (
    DEFAULT_EPS_GRID,
    INCONCLUSIVE,
    NEGATIVE,
    POSITIVE,
    Verdict,
    WitnessParams,
)


# ---------------------------------------------------------------------------
# Pigeonhole lemma
# ---------------------------------------------------------------------------


def pigeonhole_bound(a: Union[Fraction, float, str]) -> int:
    """Smallest N forcing two of any N sets of measure >= a to intersect positively."""
    a = Fraction(a)
    if not (0 < a <= 1):
        raise ValueError("a must lie in (0, 1]")
    return int(1 / a) + 1


def _mask_measure(mask: int, weights: Sequence[int], total: int) -> Fraction:
    acc = 0
    i = 0
    while mask:
        if mask & 1:
            acc += weights[i]
        mask >>= 1
        i += 1
    return Fraction(acc, total)


def pigeonhole_oracle(trials: int, space_size: int, a, seed: int) -> bool:
    """Brute-force check of the pigeonhole bound on random finite spaces.

    Every trial draws positive weights and pigeonhole_bound(a) random subsets
    of measure >= a; the oracle passes iff some two subsets always intersect
    with positive measure.
    """
    a = Fraction(a)
    if space_size > 20:
        raise ValueError("space_size capped at 20")
    n_sets = pigeonhole_bound(a)
    rng = random.Random(seed)
    full = (1 << space_size) - 1
    for _ in range(trials):
        weights = [rng.randrange(1, 10) for _ in range(space_size)]
        total = sum(weights)
        masks = []
        for _ in range(n_sets):
            mask = rng.getrandbits(space_size)
            while _mask_measure(mask, weights, total) < a:
                mask |= 1 << rng.randrange(space_size)
            masks.append(mask & full)
        if not any(
            masks[i] & masks[j]
            for i in range(n_sets)
            for j in range(i + 1, n_sets)
        ):
            return False
    return True


def disjoint_family_counterexample(a) -> tuple[list[int], list[int]]:
    """For integer 1/a: pigeonhole_bound(a) - 1 disjoint sets of measure exactly a.

    Returns (weights, masks) over a (1/a)-point space; witnesses minimality
    of the bound.
    """
    a = Fraction(a)
    q = 1 / a
    if q.denominator != 1:
        raise ValueError("1/a must be an integer for the disjoint family")
    q = int(q)
    weights = [1] * q
    masks = [1 << i for i in range(q)]
    return weights, masks


# ---------------------------------------------------------------------------
# Best shift pair and sensitivity witnesses
# ---------------------------------------------------------------------------


def _best_gap(
    m: MarkovMeasure, a: SetLike, ux: SetLike, uy: SetLike, bound: int
) -> Optional[tuple[int, Fraction]]:
    """The first gap 0 < g <= bound with mu(A ∩ T^{-g}A) > 0 maximizing
    mu(Ux ∩ T^{-g}Uy), with that measure, or None. By shift invariance the
    measures of (s, t) depend on t - s only, so (0, g) is the first best pair
    of the search over 0 <= s < t <= bound in (s, t) order. Gap measures are
    compared as integer cross-products."""
    admissible = _gap_nums(m, a, a, bound + 1)
    targets = _gap_nums(m, ux, uy, bound + 1)
    best = None
    for g in range(1, bound + 1):
        n, d = targets[g]
        if admissible[g][0] and (best is None or n * targets[best][1] > targets[best][0] * d):
            best = g
    return None if best is None else (best, Fraction(*targets[best]))


PAIR_BOUND = 6  # shift pairs (s, t) are searched over 0 <= s < t <= PAIR_BOUND
ENTRY_HORIZON = 10_000  # steps scanned for the first entry into s^-1 A ∩ t^-1 A
WITNESS_TOLERANCE = 0.02  # the witness density may fall short of eps by this much


@dataclass(frozen=True)
class SensitivityWitness:
    """One (p, q) orbit pair with its shift pair, exact target, and estimate."""

    s: int
    t: int
    entry_time: int
    target: Fraction
    empirical_upper: float
    p: PointRep
    q: PointRep


def find_sensitivity_witnesses(
    sft: Sft,
    m: MarkovMeasure,
    a: SetLike,
    ux: CylinderUnion,
    uy: CylinderUnion,
    eps: Union[float, Fraction],
    seed: int,
    params: WitnessParams = WitnessParams(),
) -> Verdict:
    """Constructive witnesses p, q in A whose orbits visit (Ux, Uy) with density >= eps.

    Negative when no shift pair within the bound reaches eps; raises
    EntryTimeNotFoundError when the sampled point misses the entry set for
    the whole entry horizon (reported, never silently retried).
    """
    if measure_of(m, a) == 0:
        raise ValueError("A must have positive measure")
    if ux.is_empty or uy.is_empty:
        raise ValueError("neighbourhoods must be nonempty")
    eps_frac = Fraction(eps)

    best = _best_gap(m, a, ux, uy, PAIR_BOUND)
    if best is None or best[1] < eps_frac:
        return Verdict(
            NEGATIVE,
            note=(
                f"no (s, t) with s < t <= {PAIR_BOUND} reaches "
                f"mu(s^-1 Ux ∩ t^-1 Uy) >= {eps_frac}"
            ),
        )
    t, target = best

    spans = [blk for setlike in (a, ux, uy) for blk in setlike.blocks()]
    lo_margin = min([start for start, _ in spans] + [0]) - 1
    hi_margin = max(
        [start + len(ws[0]) - 1 for start, ws in spans] + [0]
    ) + 1
    lo = lo_margin
    hi = params.density_horizon + ENTRY_HORIZON + t + hi_margin
    z = sample_point(m, lo, hi, seed)

    in_a = orbit_indicator(z, a, 0, ENTRY_HORIZON + t + 1)
    hits = np.nonzero(in_a[:ENTRY_HORIZON] & in_a[t : t + ENTRY_HORIZON])[0]
    if len(hits) == 0:
        raise EntryTimeNotFoundError(
            f"no entry into s^-1 A ∩ t^-1 A within {ENTRY_HORIZON} steps"
        )
    e = int(hits[0])
    p = shift_point(z, e)
    q = shift_point(z, t + e)

    visits = orbit_indicator(p, ux, 0, params.density_horizon) & orbit_indicator(
        q, uy, 0, params.density_horizon
    )
    est = density_from_indicator(visits)
    witness = SensitivityWitness(
        s=0, t=t, entry_time=e, target=target, empirical_upper=est.upper, p=p, q=q
    )
    if est.upper >= float(eps_frac) - WITNESS_TOLERANCE:
        return Verdict(POSITIVE, eps_certified=float(eps_frac), witnesses=(witness,))
    return Verdict(
        INCONCLUSIVE,
        witnesses=(witness,),
        note=(
            f"witness density {est.upper:.4f} fell short of eps - tol "
            f"= {float(eps_frac) - WITNESS_TOLERANCE:.4f}"
        ),
    )


def classify_ms_pair(
    sft: Sft,
    m: MarkovMeasure,
    x: PointRep,
    y: PointRep,
    depth: int,
    cell_family: Sequence[CylinderUnion],
) -> Verdict:
    """Mean-sensitivity pair verdict over nested canonical neighbourhoods.

    Per level and cell, `_best_gap` finds the gap t with mu(A ∩ T^{-t}A) > 0
    maximizing the target mu(Ux ∩ T^{-t}Uy). A zero target is NEGATIVE. A
    positive one is a proof: by Birkhoff, mu-a.e. z in A ∩ T^{-t}A gives
    p = z and q = T^t z in A whose pair orbit visits (Ux, Uy) with density
    exactly the target, so nothing is sampled. Each cell certifies the
    largest grid eps at or below its target, else the target itself (deep
    levels certify tiny exact targets the fixed grid cannot express).
    """
    levels = neighbourhood_levels(x, y, depth)
    check_cell_family(m, cell_family)
    level_epses: list[float] = []
    witnesses = []
    for d, ux, uy in levels:
        cell_epses: list[float] = []
        for cell in cell_family:
            best = _best_gap(m, cell, ux, uy, PAIR_BOUND)
            if best is None or best[1] == 0:
                return Verdict(
                    NEGATIVE,
                    note=(
                        f"level {d}, cell {cell!r}: every admissible (s, t) has "
                        f"mu(s^-1 Ux ∩ t^-1 Uy) = 0"
                    ),
                )
            t, target = best
            cell_epses.append(max(
                (g for g in DEFAULT_EPS_GRID if Fraction(str(g)) <= target),
                default=float(target),
            ))
            witnesses.append({"level": d, "cell": repr(cell), "s": 0, "t": t, "target": target})
        level_epses.append(min(cell_epses))
    return Verdict(POSITIVE, eps_certified=min(level_epses), witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# Diam-mean sensitivity
# ---------------------------------------------------------------------------


def diam_mean_profile(sft: Sft, a: CylinderUnion) -> Fraction:
    """lim (1/n) sum_{s < n} diam(T^s a), exact.

    Past the support, coordinate n of T^s a reads the orbit of a's last
    symbols at step n + s - hi. Once that orbit cycles, diam(T^s a) = 2^-d
    with d the circular distance from the phase of step s - hi to the
    nearest cycle set of two or more symbols, so the limit is the mean of
    2^-d over the cycle's phases, and 0 when no cycle set has two symbols.
    """
    if a.is_empty:
        raise ValueError("diam profile of the empty set")
    sets, start = sft.orbit(frozenset(w[-1] for w in a.words))
    cycle = sets[start:]
    p = len(cycle)
    wide = [j for j, symbols in enumerate(cycle) if len(symbols) >= 2]
    if not wide:
        return Fraction(0)
    return sum(
        Fraction(1, 2 ** min(min((i - j) % p, (j - i) % p) for j in wide)) for i in range(p)
    ) / p


def _visit_predicate(sft: Sft, cell: CylinderUnion, u: CylinderUnion) -> PeriodicPredicate:
    """Exact eventually-periodic predicate s -> [cell ∩ T^{-s} u nonempty].

    Each shift is decided by `constraints_meet`, the block filter of the
    symbolic layer, without listing words. Once the translated support of u
    clears the cell the filter reads the orbit of the cell's last symbols
    (`Sft.orbit`) at the step count to u, so the predicate is periodic from
    the shift where that orbit cycles, with the orbit's period.
    """
    if u.is_empty:
        return PeriodicPredicate((), (False,))
    if cell.is_full or u.is_full:
        return PeriodicPredicate((), (True,))
    c_hi, u_lo = cell.support[1], u.support[0]
    s0 = max(0, c_hi - u_lo + 1)  # the first shift whose u starts past the cell
    sets, cycle_start = sft.orbit(frozenset(w[-1] for w in cell.words))
    burn = s0 + max(0, cycle_start - (u_lo + s0 - c_hi))
    meets = [constraints_meet([(0, cell), (s, u)], sft) for s in range(burn + len(sets) - cycle_start)]
    return PeriodicPredicate(tuple(meets[:burn]), tuple(meets[burn:]))


def classify_diam_pair(
    sft: Sft,
    m: MarkovMeasure,
    x: PointRep,
    y: PointRep,
    depth: int,
    cell_family: Sequence[CylinderUnion],
) -> Verdict:
    """Diam-mean sensitivity pair verdict.

    Per level and cell the witness shift set is S = {s : A ∩ T^{-s}Ux != 0
    and A ∩ T^{-s}Uy != 0}, decided exactly per shift (p and q may differ
    with s). A level is NEGATIVE iff its density floor over the cells is 0;
    otherwise it certifies the largest grid eps strictly below the floor,
    else the floor itself, as `classify_ms_pair` does with its targets.
    """
    levels = neighbourhood_levels(x, y, depth)
    check_cell_family(m, cell_family)
    level_epses = []
    witnesses = []
    for d, ux, uy in levels:
        densities = [
            _periodic_and(_visit_predicate(sft, cell, ux), _visit_predicate(sft, cell, uy)).frequency()
            for cell in cell_family
        ]
        witnesses += [
            {"level": d, "cell": repr(cell), "upper_density": float(dens)}
            for cell, dens in zip(cell_family, densities)
        ]
        floor = min(densities)
        if floor == 0:
            return Verdict(NEGATIVE, note=f"level {d}: qualifying-shift density floor 0")
        level_epses.append(max(
            (g for g in DEFAULT_EPS_GRID if Fraction(str(g)) < floor), default=float(floor)
        ))
    return Verdict(POSITIVE, eps_certified=min(level_epses), witnesses=tuple(witnesses))


def _periodic_and(p1: PeriodicPredicate, p2: PeriodicPredicate) -> PeriodicPredicate:
    burn = max(len(p1.preperiod), len(p2.preperiod))
    period = math.lcm(len(p1.period), len(p2.period))
    pre = tuple(p1(s) and p2(s) for s in range(burn))
    cyc = tuple(p1(burn + j) and p2(burn + j) for j in range(period))
    return PeriodicPredicate(pre, cyc)


# ---------------------------------------------------------------------------
# Panel-wide equivalence cross-check
# ---------------------------------------------------------------------------


EXTRA_TABLE_E_SEED = 900  # seed of the crosscheck's first extra TableE adversary


def extra_table_e(m: MarkovMeasure, count: int, eps: Union[float, Fraction]) -> tuple[TableE, ...]:
    """The `count` extra TableE adversaries the crosscheck adds to the IN
    family: the j-th is random_table_e(m, eps) at seed EXTRA_TABLE_E_SEED + j."""
    return tuple(random_table_e(m, eps, seed=EXTRA_TABLE_E_SEED + j) for j in range(count))


@dataclass(frozen=True)
class CrosscheckRow:
    system_id: str
    pair_label: str
    in_verdict: Verdict
    ms_verdict: Verdict
    diam_verdict: Verdict
    kush_counts: Optional[tuple[int, ...]]

    @property
    def in_positive(self) -> bool:
        return self.in_verdict.is_positive

    @property
    def ms_positive(self) -> bool:
        return self.ms_verdict.is_positive

    @property
    def diam_positive(self) -> bool:
        return self.diam_verdict.is_positive

    @property
    def kush_positive(self) -> Optional[bool]:
        return None if self.kush_counts is None else separation_growing(self.kush_counts)

    @property
    def in_eq_ms(self) -> bool:
        return self.in_positive == self.ms_positive

    @property
    def ms_implies_diam(self) -> bool:
        return (not self.ms_positive) or self.diam_positive


def equivalence_crosscheck(
    system,
    pairs: Sequence[tuple[str, PointRep, PointRep]],
    depth: int = 1,
    in_params: InPairParams = InPairParams(),
    include_kush: bool = True,
) -> list[CrosscheckRow]:
    """Verdict rows of one panel system's (label, x, y) pairs: IN, MS, DIAM,
    and the Kushnirenko signal, the separation counts of x's separating
    neighbourhood.

    Disagreement rows stay in the result with their full verdicts; nothing
    is suppressed.
    """
    sft, m, cells = system.sft, system.measure, system.cell_family
    rows = []
    for label, x, y in pairs:
        in_v = classify_in_pair(sft, m, x, y, depth, in_params)
        ms_v = classify_ms_pair(sft, m, x, y, depth, cells)
        diam_v = classify_diam_pair(sft, m, x, y, depth, cells)
        kush = None
        if include_kush:
            kush = separation_counts(m, point_neighborhood(x, separating_depth(x, y, depth)))
        rows.append(CrosscheckRow(system.id, label, in_v, ms_v, diam_v, kush))
    return rows
