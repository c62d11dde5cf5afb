"""Shannon and sequence entropy, L2 separation counts, and mean-sensitive functions.

Entropies are reported in nats from exact rational measures; the only floats
are the logarithms themselves. The "limsup along a sequence" objects are
returned as profiles over prefix lengths; interpretation thresholds belong to
the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import CapExceededError
from .folner import FolnerWindows, density_from_indicator, orbit_indicator
from .measures import MarkovMeasure, measure_of, mix_seed, sample_point_in
from .measures import _carry, _collapse, _exact_sum, _gap_measures, _spread
from .symbolic import (
    _EMPTY,
    _FULL,
    ConstraintAutomaton,
    CylinderUnion,
    PointRep,
    SetLike,
    Sft,
    _atoms_of,
    cylinder,
    resolve_constraints,
    whole_space,
)
from .verdicts import (
    NEGATIVE,
    POSITIVE,
    CrosscheckParams,
    MsFunctionParams,
    Verdict,
)

JOIN_ASSIGNMENT_CAP = 1 << 14  # |atoms|^|S| refusal point (14 for 2-atom partitions)


class Partition:
    """A finite measurable partition whose atoms are cylinder-union sets."""

    def __init__(self, atoms: Sequence[SetLike]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("partition needs at least one atom")
        self.atoms = atoms

    def validate_under(self, m: MarkovMeasure) -> None:
        """Exact checks: no empty atom, pairwise disjoint, measures sum to 1."""
        for a in self.atoms:
            if a.is_empty:
                raise ValueError("partition contains an empty atom")
        for i, a in enumerate(self.atoms):
            for b in self.atoms[i + 1 :]:
                meet = resolve_constraints([(0, a), (0, b)], m.sft)
                if not meet.is_empty:
                    raise ValueError("partition atoms are not pairwise disjoint")
        total = sum((measure_of(m, a) for a in self.atoms), Fraction(0))
        if total != 1:
            raise ValueError(f"atom measures sum to {total}, not 1")

    def __len__(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        return f"Partition({len(self.atoms)} atoms)"


def generator_partition(sft: Sft) -> Partition:
    """The time-zero partition into single-symbol cylinders."""
    return Partition([cylinder(sft, 0, [a]) for a in range(sft.alphabet_size)])


def two_set_partition(u: CylinderUnion) -> Partition:
    """{U, U^c}, dropping an empty side (U = X or U = empty)."""
    comp = u.complement()
    atoms = [a for a in (u, comp) if not a.is_empty]
    return Partition(atoms)


def validate_sequence(s: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(int(v) for v in s)
    if any(v < 0 for v in seq):
        raise ValueError("sequence entries must be nonnegative")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError("sequence must be strictly increasing")
    if not seq:
        raise ValueError("sequence must be nonempty")
    return seq


def _log(fr: Fraction) -> float:
    return math.log(fr.numerator) - math.log(fr.denominator)


def entropy_from_measures(measures: Sequence[Fraction]) -> float:
    """H = -sum mu log mu in nats, with 0 log 0 = 0."""
    return -math.fsum(float(mu) * _log(mu) for mu in measures if mu > 0)


def shannon_entropy(m: MarkovMeasure, p: Partition) -> float:
    return entropy_from_measures([measure_of(m, a) for a in p.atoms])


def _join_profile(
    m: MarkovMeasure, p: Partition, seq: Sequence[int]
) -> list[list[Fraction]]:
    """Positive measures of the join atoms after every prefix of seq, in one pass.

    Higher-block recoding (Lind & Marcus, §1.4 and §2.3): every atom becomes
    a set of legal words over the partition's common support [lo, hi] (width
    w; whole-space atoms do not widen it), and each live assignment carries
    one exact vector v with v[u] = mu(assignment and word u on [t+lo, t+hi])
    at the last sequence coordinate t. The window at t holds every
    coordinate a later window shares with earlier ones, so extending by a
    gap g never revisits the constraints: for g >= w the vector collapses to
    its last symbol and crosses the free coordinates by P^(g-w+1); for g < w
    it steps the overlapping window g symbols forward. Restricting to an
    atom keeps its words, and zero-measure assignments are dropped.
    """
    sft = m.sft
    blocks = [_atoms_of(atom) for atom in p.atoms]
    spans = [
        (start, start + len(words[0]) - 1)
        for b in blocks
        if isinstance(b, list)
        for start, words in b
    ]
    lo = min((s for s, _ in spans), default=0)
    width = max((e for _, e in spans), default=0) - lo + 1
    words = tuple(sft.legal_words(width))
    index = {u: i for i, u in enumerate(words)}
    inner = [m._inner_weight(u) for u in words]
    # Per atom, the (index, first symbol, inner weight) of its words that can
    # carry mass; an empty atom has none and never goes live. A weight of
    # None stands for 1 (every width-1 word), saving a Fraction product.
    atoms = []
    for b in blocks:
        if b is _EMPTY:
            members = ()
        elif b is _FULL:
            members = words
        else:
            members = ConstraintAutomaton(sft, b, lo, lo + width - 1).words()
        table = []
        for u in members:
            i = index[u]
            if inner[i]:
                table.append((i, u[0], None if inner[i] == 1 else inner[i]))
        atoms.append(table)
    member_sets = [frozenset(i for i, _a, _wt in atom) for atom in atoms]
    last = [u[-1] for u in words]
    P = m.transition
    # One-symbol moves of the window: (index of the shifted word, P entry).
    step = [
        [(index[u[1:] + (b,)], P[u[-1]][b]) for b in sft.successors(u[-1]) if P[u[-1]][b]]
        for u in words
    ]

    profile: list[list[Fraction]] = []
    live: list[dict[int, Fraction]] = []
    for n, t in enumerate(seq):
        if n == 0:
            nxt = [_spread(m.stationary, atom) for atom in atoms]
        else:
            gap = t - seq[n - 1]
            if gap >= width:
                power = m.matrix_power(gap - width + 1)
            nxt = []
            for v in live:
                if gap >= width:
                    entry = _carry(_collapse(v, last), power)
                    nxt.extend(_spread(entry, atom) for atom in atoms)
                else:
                    for _ in range(gap):
                        moved: dict[int, Fraction] = {}
                        for i, x in v.items():
                            for j, pr in step[i]:
                                y = x * pr
                                moved[j] = moved[j] + y if j in moved else y
                        v = moved
                    nxt.extend(
                        {i: x for i, x in v.items() if i in members} for members in member_sets
                    )
        live = [v for v in nxt if v]
        if len(live) > JOIN_ASSIGNMENT_CAP:
            raise CapExceededError(
                f"join refinement exceeds {JOIN_ASSIGNMENT_CAP} live atoms"
            )
        profile.append([_exact_sum(v.values()) for v in live])
    return profile


@dataclass(frozen=True)
class EntropyProfile:
    """(n, H_n, H_n / n) rows along the prefixes of a sequence."""

    rows: tuple[tuple[int, float, float], ...]

    @property
    def final_increment(self) -> float:
        if len(self.rows) == 1:
            return self.rows[0][1]
        return self.rows[-1][1] - self.rows[-2][1]


def sequence_entropy_profile(
    m: MarkovMeasure, p: Partition, s: Sequence[int]
) -> EntropyProfile:
    """H_n of the join along each prefix of s (in nats), plus H_n / n."""
    seq = validate_sequence(s)
    rows = []
    for n, measures in enumerate(_join_profile(m, p, seq), start=1):
        h = entropy_from_measures(measures)
        rows.append((n, h, h / n))
    return EntropyProfile(tuple(rows))


# ---------------------------------------------------------------------------
# L2 separation and the d_f pseudometric
# ---------------------------------------------------------------------------


def separation_count(
    m: MarkovMeasure,
    base: SetLike,
    horizon: int,
    eps: Optional[Union[float, Fraction]] = None,
    *,
    eps_sq: Optional[Fraction] = None,
) -> int:
    """Size of the greedy eps-separated subset of {1_{T^{-s} base} : 0 <= s < horizon}.

    Separation is strict (L2 distance > eps) and decided exactly: distances
    are compared as squared rationals. `eps_sq` overrides `eps` when the
    threshold itself is irrational (e.g. sqrt of a rational).
    """
    if eps_sq is None:
        if eps is None or eps <= 0:
            raise ValueError("eps must be positive")
        eps_sq = Fraction(eps) ** 2
    mu_base = measure_of(m, base)
    separated = [2 * mu_base - 2 * mu > eps_sq for mu in _gap_measures(m, base, base, horizon)]
    reps: list[int] = []
    for s in range(horizon):
        if all(separated[s - r] for r in reps):
            reps.append(s)
    return len(reps)


def df_estimate(
    x: PointRep,
    y: PointRep,
    b: SetLike,
    windows: FolnerWindows,
    n_max: int,
    tail_fraction: float = 0.5,
) -> float:
    """Tail-max estimate of d_f(x, y) for f = 1_b.

    d_f(x,y) = limsup ((1/|F_n|) sum_s |f(sx) - f(sy)|^2)^{1/2}; the indicator
    difference is 1 exactly when the orbits disagree about membership.
    """
    if windows.canonical:
        disagreement = orbit_indicator(x, b, 0, n_max) ^ orbit_indicator(y, b, 0, n_max)
        est = density_from_indicator(disagreement, tail_fraction=tail_fraction)
        return math.sqrt(est.upper)
    averages = []
    for n in range(max(1, math.ceil(tail_fraction * n_max)), n_max + 1):
        w = windows.window(n)
        count = sum(1 for s in w if b.contains_point(x, s) != b.contains_point(y, s))
        averages.append(count / len(w))
    return math.sqrt(max(averages))


# ---------------------------------------------------------------------------
# Mean-sensitive indicator functions
# ---------------------------------------------------------------------------


def ms_function_test(
    m: MarkovMeasure,
    b: CylinderUnion,
    cell_family: Sequence[CylinderUnion],
    params: MsFunctionParams = MsFunctionParams(),
) -> Verdict:
    """Search every cell for a sampled pair whose orbits split b with positive density.

    The function 1_b is mean sensitive iff some eps > 0 works for every
    positive-measure cell; the verdict certifies the largest grid eps beaten
    by every cell, or is negative naming the first failing cell.
    """
    if not cell_family:
        raise ValueError("cell family must be nonempty")
    for cell in cell_family:
        if measure_of(m, cell) == 0:
            raise ValueError(f"cell {cell!r} has measure zero")
    if b.is_empty or b.is_full:
        return Verdict(NEGATIVE, note="indicator is a.e. constant")

    horizon = params.density_horizon
    b_lo, b_hi = b.support
    comp = b.complement()
    per_cell: list[tuple[CylinderUnion, float, dict]] = []
    for idx, cell in enumerate(cell_family):
        c_lo, c_hi = (0, 0) if cell.is_full else cell.support
        lo = min(b_lo, c_lo, 0) - 1
        hi = horizon + max(b_hi, c_hi, 0) + 1
        best = -1.0
        best_info: dict = {}
        for attempt in range(params.pair_attempts):
            p = sample_point_in(m, cell, lo, hi, mix_seed(params.seed, idx, attempt, 0))
            q = sample_point_in(m, cell, lo, hi, mix_seed(params.seed, idx, attempt, 1))
            split = orbit_indicator(p, b, 0, horizon) & orbit_indicator(q, comp, 0, horizon)
            est = density_from_indicator(split, tail_fraction=params.tail_fraction)
            if est.upper > best:
                best = est.upper
                best_info = {"cell": repr(cell), "pair_seed_attempt": attempt, "density": est.upper}
        per_cell.append((cell, best, best_info))

    floor = min(best for _, best, _ in per_cell)
    certified = max((e for e in params.eps_grid if floor > e), default=None)
    if certified is None:
        worst = min(per_cell, key=lambda t: t[1])
        return Verdict(
            NEGATIVE,
            note=f"cell {worst[0]!r} yields density {worst[1]:.4f} below the grid",
            params={"eps_grid": tuple(params.eps_grid)},
        )
    return Verdict(
        POSITIVE,
        eps_certified=certified,
        witnesses=tuple(info for _, _, info in per_cell),
        params={"eps_grid": tuple(params.eps_grid)},
    )


@dataclass(frozen=True)
class HmsHapReport:
    """Agreement data for the mean-sensitivity / almost-periodicity dichotomy."""

    sensitive: bool
    separation_growing: bool
    entropy_growing: bool
    separation_counts: tuple[int, ...]
    entropy_profile: EntropyProfile
    greedy_sequence: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.sensitive == self.separation_growing == self.entropy_growing


def greedy_entropy_sequence(
    m: MarkovMeasure, p: Partition, length: int, horizon: int
) -> tuple[int, ...]:
    """Build S greedily: each step adds the shift maximizing the entropy increment.

    Ties go to the first (smallest) candidate shift.
    """
    if length > horizon:
        raise ValueError(f"cannot choose {length} distinct shifts below horizon {horizon}")
    chosen: list[int] = []
    for _ in range(length):
        best_s, best_h = None, None
        for s in range(horizon):
            if s in chosen:
                continue
            trial = tuple(sorted(chosen + [s]))
            h = entropy_from_measures(_join_profile(m, p, trial)[-1])
            if best_h is None or h > best_h + 1e-12:
                best_s, best_h = s, h
        chosen.append(best_s)
        chosen.sort()
    return tuple(chosen)


def crosscheck_hms_hap(
    m: MarkovMeasure,
    b: CylinderUnion,
    params: CrosscheckParams = CrosscheckParams(),
    cell_family: Optional[Sequence[CylinderUnion]] = None,
    ms_params: MsFunctionParams = MsFunctionParams(),
) -> HmsHapReport:
    """Three views of the same dichotomy, expected to agree.

    1_b mean sensitive (witness search) should coincide with unbounded
    L2 separation growth of the shifted indicators and with positive
    sequence entropy of {b, b^c} along a greedily chosen sequence.
    """
    if cell_family is None:
        cell_family = default_cell_family(m)

    if b.is_empty or b.is_full:
        sensitive = False
    else:
        sensitive = ms_function_test(m, b, cell_family, ms_params).is_positive

    mu_b = measure_of(m, b)
    eps_sq = mu_b * (1 - mu_b)
    counts = tuple(separation_count(m, b, h, eps_sq=eps_sq) for h in params.separation_horizons)
    separation_growing = counts[-1] > counts[0] and counts[-1] > counts[-2]

    partition = two_set_partition(b)
    if len(partition) < 2:
        profile = EntropyProfile(((1, 0.0, 0.0),))
        greedy = (0,)
    else:
        greedy = greedy_entropy_sequence(m, partition, params.greedy_len, params.greedy_horizon)
        profile = sequence_entropy_profile(m, partition, greedy)
    entropy_growing = profile.final_increment > params.entropy_increment_floor

    return HmsHapReport(
        sensitive=sensitive,
        separation_growing=separation_growing,
        entropy_growing=entropy_growing,
        separation_counts=counts,
        entropy_profile=profile,
        greedy_sequence=greedy,
    )


def default_cell_family(
    m: MarkovMeasure, max_word_len: int = 2
) -> list[CylinderUnion]:
    """Whole space plus every positive-measure cylinder of short word length."""
    cells: list[CylinderUnion] = [whole_space(m.sft)]
    for length in range(1, max_word_len + 1):
        for w in m.sft.legal_words(length):
            c = cylinder(m.sft, 0, w)
            if measure_of(m, c) > 0:
                cells.append(c)
    return cells
