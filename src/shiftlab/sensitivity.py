"""Mean-sensitivity and diam-mean-sensitivity pairs, the constructive witness
procedure, the pigeonhole lemma, and the panel-wide equivalence cross-check.

The witness construction mirrors the ergodic argument: find a shift pair
(s, t) for which the shifted neighbourhoods intersect with measure >= eps
while the shifted copies of the cell A also intersect positively, sample a
generic point z, enter s^{-1}A ∩ t^{-1}A at the first time e >= 0, and take
p = T^{s+e} z, q = T^{t+e} z. The visit density of (U_x, U_y) along the pair
orbit then targets the exact value mu(s^{-1}U_x ∩ t^{-1}U_y).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .entropy import (
    CrosscheckParams,
    HmsHapReport,
    crosscheck_hms_hap,
)
from .errors import EntryTimeNotFoundError
from .folner import (
    FolnerWindows,
    PeriodicPredicate,
    density,
    density_from_indicator,
    orbit_indicator,
)
from .independence import (
    InPairParams,
    classify_in_pair,
    point_neighborhood,
    separating_depth,
)
from .measures import (
    MarkovMeasure,
    _gap_measures,
    measure_of,
    mix_seed,
    sample_point,
)
from .symbolic import (
    CylinderUnion,
    PointRep,
    SetLike,
    Sft,
    diam_of_set,
    resolve_constraints,
    shift_point,
)
from .verdicts import (
    INCONCLUSIVE,
    NEGATIVE,
    POSITIVE,
    PairParams,
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
# R_A search and sensitivity witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RAPair:
    """A shift pair whose pulled-back copies of A overlap positively."""

    s: int
    t: int
    intersection_measure: Fraction

    def __post_init__(self):
        if self.intersection_measure <= 0:
            raise ValueError("RAPair requires positive intersection measure")


def ra_search(m: MarkovMeasure, a: SetLike, bound: int) -> list[RAPair]:
    """All 0 <= s < t <= bound with mu(s^{-1}A ∩ t^{-1}A) > 0, sorted by (s, t)."""
    if measure_of(m, a) == 0:
        raise ValueError("A must have positive measure")
    # By shift invariance mu(s^{-1}A ∩ t^{-1}A) = mu(A ∩ T^{-(t-s)}A).
    by_gap = _gap_measures(m, a, a, bound + 1)
    return [
        RAPair(s, t, by_gap[t - s])
        for s in range(bound + 1)
        for t in range(s + 1, bound + 1)
        if by_gap[t - s] > 0
    ]


def _best_gap(
    m: MarkovMeasure, a: SetLike, ux: SetLike, uy: SetLike, bound: int
) -> Optional[tuple[int, Fraction]]:
    """The first gap 0 < g <= bound with mu(A ∩ T^{-g}A) > 0 maximizing
    mu(Ux ∩ T^{-g}Uy), with that measure, or None. By shift invariance the
    measures of (s, t) depend on t - s only, so (0, g) is the first best pair
    of the search over 0 <= s < t <= bound in (s, t) order."""
    admissible = _gap_measures(m, a, a, bound + 1)
    targets = _gap_measures(m, ux, uy, bound + 1)
    best = None
    for g in range(1, bound + 1):
        if admissible[g] and (best is None or targets[g] > best[1]):
            best = (g, targets[g])
    return best


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

    best = _best_gap(m, a, ux, uy, params.pair_bound)
    if best is None or best[1] < eps_frac:
        return Verdict(
            NEGATIVE,
            note=(
                f"no (s, t) with s < t <= {params.pair_bound} reaches "
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
    hi = params.density_horizon + params.entry_horizon + t + hi_margin
    z = sample_point(m, lo, hi, seed)

    entry_scan = params.entry_horizon + t + 1
    in_a = orbit_indicator(z, a, 0, entry_scan)
    hits = np.nonzero(in_a[: params.entry_horizon] & in_a[t : t + params.entry_horizon])[0]
    if len(hits) == 0:
        raise EntryTimeNotFoundError(
            f"no entry into s^-1 A ∩ t^-1 A within {params.entry_horizon} steps"
        )
    e = int(hits[0])
    p = shift_point(z, e)
    q = shift_point(z, t + e)

    visits = orbit_indicator(p, ux, 0, params.density_horizon) & orbit_indicator(
        q, uy, 0, params.density_horizon
    )
    est = density_from_indicator(visits, tail_fraction=params.tail_fraction)
    witness = SensitivityWitness(
        s=0, t=t, entry_time=e, target=target, empirical_upper=est.upper, p=p, q=q
    )
    if est.upper >= float(eps_frac) - params.tolerance:
        return Verdict(
            POSITIVE,
            eps_certified=float(eps_frac),
            witnesses=(witness,),
            params={"pair_bound": params.pair_bound, "horizon": params.density_horizon},
        )
    return Verdict(
        INCONCLUSIVE,
        witnesses=(witness,),
        note=(
            f"witness density {est.upper:.4f} fell short of eps - tol "
            f"= {float(eps_frac) - params.tolerance:.4f}"
        ),
    )


def classify_ms_pair(
    sft: Sft,
    m: MarkovMeasure,
    x: PointRep,
    y: PointRep,
    depth: int,
    cell_family: Sequence[CylinderUnion],
    params: PairParams = PairParams(),
) -> Verdict:
    """Mean-sensitivity pair verdict over nested canonical neighbourhoods.

    Per level every positive-measure cell must produce witnesses for some
    eps > 0; the candidate eps values are the grid plus the exactly
    achievable intersection measures (deep levels certify tiny exact
    targets the fixed grid cannot express).
    """
    if separating_depth(x, y, depth) is None:
        raise ValueError(f"points agree on [-{depth}, {depth}]; pairs need x != y")
    if not cell_family:
        raise ValueError("cell family must be nonempty")
    for cell in cell_family:
        if measure_of(m, cell) == 0:
            raise ValueError(f"cell {cell!r} has measure zero")

    level_epses: list[float] = []
    witnesses = []
    inconclusive_notes = []
    for d in range(depth + 1):
        ux = point_neighborhood(x, d)
        uy = point_neighborhood(y, d)
        cell_epses: list[float] = []
        for idx, cell in enumerate(cell_family):
            best = _best_gap(m, cell, ux, uy, params.witness.pair_bound)
            best_target = Fraction(0) if best is None else best[1]
            if best_target == 0:
                return Verdict(
                    NEGATIVE,
                    note=(
                        f"level {d}, cell {cell!r}: every admissible (s, t) has "
                        f"mu(s^-1 Ux ∩ t^-1 Uy) = 0"
                    ),
                    params={"depth": depth},
                )
            grid_eps = max(
                (g for g in params.eps_grid if Fraction(g) <= best_target),
                default=None,
            )
            eps_candidate: Union[float, Fraction] = (
                best_target if grid_eps is None else Fraction(grid_eps)
            )
            try:
                verdict = find_sensitivity_witnesses(
                    sft, m, cell, ux, uy, eps_candidate, mix_seed(params.witness.sample_seed, d, idx), params.witness
                )
            except EntryTimeNotFoundError as err:
                inconclusive_notes.append(f"level {d}, cell {cell!r}: {err}")
                continue
            if verdict.classification == NEGATIVE:
                return Verdict(
                    NEGATIVE,
                    note=f"level {d}, cell {cell!r}: {verdict.note}",
                    params={"depth": depth},
                )
            if verdict.classification == INCONCLUSIVE:
                inconclusive_notes.append(f"level {d}, cell {cell!r}: {verdict.note}")
                continue
            cell_epses.append(float(eps_candidate))
            witnesses.extend(
                {"level": d, "cell": repr(cell), "witness": w} for w in verdict.witnesses
            )
        if inconclusive_notes:
            return Verdict(INCONCLUSIVE, note="; ".join(inconclusive_notes))
        level_epses.append(min(cell_epses))
    return Verdict(
        POSITIVE,
        eps_certified=min(level_epses),
        witnesses=tuple(witnesses),
        params={"depth": depth, "eps_grid": tuple(params.eps_grid)},
    )


# ---------------------------------------------------------------------------
# Diam-mean sensitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiamMeanProfile:
    """Limsup average of diam(T^s A); exact when the diameters settle into a cycle."""

    value: float
    exact: Optional[Fraction]
    burn_in: int

    def __float__(self) -> float:
        return self.value


def diam_mean_profile(
    sft: Sft,
    m: MarkovMeasure,
    a: CylinderUnion,
    windows: FolnerWindows,
    n_max: int,
    *,
    metric_horizon: int = 32,
    scan_cap: int = 512,
) -> DiamMeanProfile:
    """Tail estimate of limsup (1/|F_n|) sum_{s in F_n} diam(T^s a).

    diam(T^s a) is exact per shift and eventually periodic in s, so once a
    cycle is detected the limit equals the exact cycle mean; otherwise a
    tail-max estimate over the computed prefix is returned.
    """
    if a.is_empty:
        raise ValueError("diam profile of the empty set")
    count = min(n_max, scan_cap)
    values = [diam_of_set(a.translate(-s), sft, metric_horizon).value for s in range(count)]
    tail_start = count // 2
    for period in range(1, 17):
        if count - tail_start < 2 * period:
            break
        if all(
            values[i] == values[i + period] for i in range(tail_start, count - period)
        ):
            cycle = values[tail_start : tail_start + period]
            exact = sum(Fraction(v) for v in cycle) / period
            return DiamMeanProfile(float(exact), exact, tail_start)
    averages = np.cumsum(values) / np.arange(1, count + 1)
    return DiamMeanProfile(float(averages[tail_start:].max()), None, tail_start)


def _visit_predicate(sft: Sft, cell: CylinderUnion, u: CylinderUnion) -> PeriodicPredicate:
    """Exact eventually-periodic predicate s -> [cell ∩ T^{-s} u nonempty].

    Small shifts are resolved directly; once the translated support of u
    clears the cell the question reduces to exact-step reachability between
    boundary symbol sets, whose subset dynamics cycle.
    """
    if u.is_empty:
        return PeriodicPredicate((), (False,))
    if cell.is_full or u.is_full:
        return PeriodicPredicate((), (True,))
    _c_lo, c_hi = cell.support
    u_lo, _u_hi = u.support
    s0 = max(0, c_hi - u_lo + 1)
    pre = [
        not resolve_constraints([(0, cell), (s, u)], sft).is_empty for s in range(s0)
    ]

    # states[i] = symbols reachable from the cell's end symbols in i+1 steps.
    starts = frozenset(w[0] for w in u.words)
    index_of: dict[frozenset[int], int] = {}
    states: list[frozenset[int]] = []
    current = frozenset(w[-1] for w in cell.words)
    while True:
        current = sft.step_forward(current)
        if current in index_of:
            cycle_start = index_of[current]
            break
        index_of[current] = len(states)
        states.append(current)
    period_len = len(states) - cycle_start

    def hit(steps: int) -> bool:
        idx = steps - 1
        if idx >= len(states):
            idx = cycle_start + (idx - cycle_start) % period_len
        return bool(states[idx] & starts)

    # Shift s >= s0 corresponds to exactly (u_lo + s - c_hi) steps.
    steps_at_s0 = u_lo + s0 - c_hi
    burn = s0 + max(0, cycle_start + 1 - steps_at_s0)
    pre += [hit(steps_at_s0 + (s - s0)) for s in range(s0, burn)]
    cyc = [hit(steps_at_s0 + (burn - s0) + j) for j in range(period_len)]
    return PeriodicPredicate(tuple(pre), tuple(cyc))


def classify_diam_pair(
    sft: Sft,
    m: MarkovMeasure,
    x: PointRep,
    y: PointRep,
    depth: int,
    cell_family: Sequence[CylinderUnion],
    params: PairParams = PairParams(),
) -> Verdict:
    """Diam-mean sensitivity pair verdict.

    Per level and cell the witness shift set is S = {s : A ∩ T^{-s}Ux != 0
    and A ∩ T^{-s}Uy != 0}, decided exactly per shift (p and q may differ
    with s); positive needs the upper density of S above some grid eps at
    every level for every cell.
    """
    if separating_depth(x, y, depth) is None:
        raise ValueError(f"points agree on [-{depth}, {depth}]; pairs need x != y")
    if not cell_family:
        raise ValueError("cell family must be nonempty")
    windows = FolnerWindows.canonical_windows()
    level_epses = []
    witnesses = []
    for d in range(depth + 1):
        ux = point_neighborhood(x, d)
        uy = point_neighborhood(y, d)
        floor: Optional[Fraction] = None
        for cell in cell_family:
            if measure_of(m, cell) == 0:
                raise ValueError(f"cell {cell!r} has measure zero")
            px = _visit_predicate(sft, cell, ux)
            py = _visit_predicate(sft, cell, uy)
            combined = _periodic_and(px, py)
            est = density(combined, windows, n_max=params.diam_horizon)
            dens = est.exact
            assert dens is not None  # periodic predicates take the exact path
            if floor is None or dens < floor:
                floor = dens
            witnesses.append(
                {"level": d, "cell": repr(cell), "upper_density": float(dens)}
            )
        level_eps = max((g for g in params.eps_grid if floor > Fraction(g)), default=None)
        if level_eps is None:
            return Verdict(
                NEGATIVE,
                note=f"level {d}: qualifying-shift density floor {floor} below the grid",
                params={"depth": depth},
            )
        level_epses.append(level_eps)
    return Verdict(
        POSITIVE,
        eps_certified=min(level_epses),
        witnesses=tuple(witnesses),
        params={"depth": depth, "eps_grid": tuple(params.eps_grid)},
    )


def _periodic_and(p1: PeriodicPredicate, p2: PeriodicPredicate) -> PeriodicPredicate:
    burn = max(len(p1.preperiod), len(p2.preperiod))
    period = math.lcm(len(p1.period), len(p2.period))
    pre = tuple(p1(s) and p2(s) for s in range(burn))
    cyc = tuple(p1(burn + j) and p2(burn + j) for j in range(period))
    return PeriodicPredicate(pre, cyc)


# ---------------------------------------------------------------------------
# Panel-wide equivalence cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceParams:
    depth: int = 1
    in_params: InPairParams = InPairParams()
    pair_params: PairParams = PairParams(
        witness=WitnessParams(density_horizon=30_000)
    )
    kush_params: CrosscheckParams = CrosscheckParams(greedy_horizon=12)
    include_kush: bool = True
    include_diam: bool = True


@dataclass(frozen=True)
class CrosscheckRow:
    system_id: str
    pair_label: str
    in_verdict: Verdict
    ms_verdict: Verdict
    diam_verdict: Optional[Verdict]
    kush_report: Optional[HmsHapReport]

    @property
    def in_positive(self) -> bool:
        return self.in_verdict.is_positive

    @property
    def ms_positive(self) -> bool:
        return self.ms_verdict.is_positive

    @property
    def diam_positive(self) -> Optional[bool]:
        return None if self.diam_verdict is None else self.diam_verdict.is_positive

    @property
    def kush_positive(self) -> Optional[bool]:
        return None if self.kush_report is None else self.kush_report.separation_growing

    @property
    def in_eq_ms(self) -> bool:
        return self.in_positive == self.ms_positive

    @property
    def ms_implies_diam(self) -> bool:
        if self.diam_positive is None:
            return True
        return (not self.ms_positive) or self.diam_positive


@dataclass(frozen=True)
class CrosscheckReport:
    rows: tuple[CrosscheckRow, ...]

    @property
    def all_in_eq_ms(self) -> bool:
        return all(r.in_eq_ms for r in self.rows)

    @property
    def all_ms_imply_diam(self) -> bool:
        return all(r.ms_implies_diam for r in self.rows)

    def disagreements(self) -> list[CrosscheckRow]:
        return [r for r in self.rows if not (r.in_eq_ms and r.ms_implies_diam)]


def equivalence_crosscheck(
    systems: Sequence,
    pairs: Mapping[str, Sequence[tuple[str, PointRep, PointRep]]],
    params: EquivalenceParams = EquivalenceParams(),
) -> CrosscheckReport:
    """Verdict matrix over (system, pair) rows: IN, MS, DIAM, and the
    Kushnirenko compactness signal on the separating two-set partition.

    Disagreement rows stay in the report with their full verdicts; nothing
    is suppressed.
    """
    rows = []
    for system in systems:
        for label, x, y in pairs[system.id]:
            in_v = classify_in_pair(
                system.sft, system.measure, x, y, params.depth, params.in_params
            )
            ms_v = classify_ms_pair(
                system.sft,
                system.measure,
                x,
                y,
                params.depth,
                system.cell_family,
                params.pair_params,
            )
            diam_v = None
            if params.include_diam:
                diam_v = classify_diam_pair(
                    system.sft,
                    system.measure,
                    x,
                    y,
                    params.depth,
                    system.cell_family,
                    params.pair_params,
                )
            kush = None
            if params.include_kush:
                d_star = separating_depth(x, y, params.depth)
                base = point_neighborhood(x, d_star)
                kush = crosscheck_hms_hap(
                    system.measure,
                    base,
                    params.kush_params,
                    cell_family=system.cell_family,
                )
            rows.append(
                CrosscheckRow(
                    system_id=system.id,
                    pair_label=label,
                    in_verdict=in_v,
                    ms_verdict=ms_v,
                    diam_verdict=diam_v,
                    kush_report=kush,
                )
            )
    return CrosscheckReport(tuple(rows))
