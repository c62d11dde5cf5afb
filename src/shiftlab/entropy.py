"""Shannon and sequence entropy, L2 separation counts, and mean-sensitive functions.

Entropies are reported in nats from exact rational measures; the only floats
are the logarithms themselves. The "limsup along a sequence" objects are
returned as profiles over prefix lengths; interpretation thresholds belong to
the caller.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import CapExceededError
from .folner import density_from_indicator, orbit_indicator
from .measures import MarkovMeasure, measure_of, mix_seed, sample_point_in
from .measures import _carry, _collapse, _gap_nums, _spread
from .symbolic import (
    ConstraintAutomaton,
    CylinderUnion,
    PointRep,
    SetLike,
    Sft,
    constraints_meet,
    cylinder,
    whole_space,
)
from .verdicts import DEFAULT_EPS_GRID, NEGATIVE, POSITIVE, MsFunctionParams, Verdict

JOIN_ASSIGNMENT_CAP = 1 << 14  # join atoms, counted with multiplicity, before refusal (14 terms of a 2-atom partition)


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
                if constraints_meet([(0, a), (0, b)], m.sft):
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


def _entropy(terms) -> float:
    """-sum k (n/d) log(n/d) in nats over (n, d, k): reduced (n, d) pairs of
    positive measures, each counted k times.

    Bit for bit -math.fsum over the k-fold expanded terms: k times a term is
    summed exactly as the term doubled once per binary digit of k (doubling
    a float is exact), and fsum rounds the exact sum once.
    """
    parts = []
    for n, d, k in terms:
        t = (n / d) * (math.log(n) - math.log(d))
        while k:
            if k & 1:
                parts.append(t)
            t *= 2.0
            k >>= 1
    return -math.fsum(parts)


def entropy_from_measures(measures: Sequence[Fraction]) -> float:
    """H = -sum mu log mu in nats, with 0 log 0 = 0."""
    return _entropy((mu.numerator, mu.denominator, 1) for mu in measures if mu > 0)


def _mass_entropy(masses, den: int) -> float:
    """entropy_from_measures of count measures mass / den per (mass, count)
    pair, each measure reduced once."""
    terms = []
    for x, k in masses:
        g = math.gcd(x, den)
        terms.append((x // g, den // g, k))
    return _entropy(terms)


def shannon_entropy(m: MarkovMeasure, p: Partition) -> float:
    return entropy_from_measures([measure_of(m, a) for a in p.atoms])


class _Join:
    """The join of a partition's shifts as a forward pass, recoded once and lumped.

    Higher-block recoding (Lind & Marcus, §1.4 and §2.3): every atom becomes
    a set of legal words over the partition's common support [lo, hi] (width
    w; whole-space atoms do not widen it), and each assignment of atoms to
    the sequence so far has one integer vector v with v[u] / den =
    mu(assignment and word u on [t+lo, t+hi]) at the last sequence
    coordinate t. The window at t holds every coordinate a later window
    shares with earlier ones, so extending by a gap g never revisits the
    constraints: for g >= w the vector collapses to its last symbol and
    crosses the free coordinates by P^(g-w+1); for g < w it steps the
    overlapping window g symbols forward. Restricting to an atom keeps its
    words, and zero-measure assignments are dropped. A pass along seq
    crosses w - 1 + (seq[-1] - seq[0]) transitions, whatever its gaps, so
    all vectors share one denominator.

    Every step is linear, so an assignment's future depends on its vector
    only through its direction (lumpability; Kemeny & Snell, §6.3). The live
    state is a list of (u, scales) pairs: u is a primitive vector (its
    entries have gcd 1), and scales maps each integer factor g to the number
    of assignments whose vector is g·u. A step works out each direction's
    children once and merges the children that share a direction, so a
    Bernoulli generator profile holds 2 directions, not 2^n vectors. A
    yielded state is never changed afterwards: greedy trials resume from it.
    """

    def __init__(self, m: MarkovMeasure, p: Partition):
        sft = m.sft
        blocks = [None if atom.is_empty else atom.blocks() for atom in p.atoms]
        spans = [(start, start + len(words[0]) - 1) for b in blocks if b for start, words in b]
        lo = min((s for s, _ in spans), default=0)
        width = max((e for _, e in spans), default=0) - lo + 1
        words = tuple(sft.legal_words(width))
        index = {u: i for i, u in enumerate(words)}
        inner = [m.inner_num(u) for u in words]
        # Per atom, the (index, first symbol, inner numerator) of its words
        # that can carry mass; an empty atom has none and never goes live.
        self.atoms = []
        for b in blocks:
            if b is None:
                members = ()
            elif not b:
                members = words
            else:
                members = ConstraintAutomaton(sft, b, lo, lo + width - 1).words()
            table = [(index[u], u[0]) for u in members]
            self.atoms.append([(i, a, inner[i]) for i, a in table if inner[i]])
        self.member_sets = [frozenset(i for i, _a, _wt in atom) for atom in self.atoms]
        self.last = [u[-1] for u in words]
        P_num = m.power_num(1)
        # One-symbol moves of the window: (index of the shifted word, P numerator).
        self.step = [
            [(index[u[1:] + (b,)], P_num[u[-1]][b]) for b in sft.successors(u[-1]) if P_num[u[-1]][b]]
            for u in words
        ]
        self.m = m
        self.width = width

    def run(self, seq: Sequence[int], live: list, start: int):
        """The lumped states after each of seq[start:], resuming from the
        state after seq[:start] (ignored when start is 0)."""
        for n in range(start, len(seq)):
            if n == 0:
                families = [([_spread(self.m.pi_num, atom) for atom in self.atoms], {1: 1})]
            else:
                families = self._advance(live, seq[n] - seq[n - 1])
            live = _lump(families)
            if sum(k for _u, scales in live for k in scales.values()) > JOIN_ASSIGNMENT_CAP:
                raise CapExceededError(
                    f"join refinement exceeds {JOIN_ASSIGNMENT_CAP} live atoms"
                )
            yield live

    def _advance(self, live: list, gap: int) -> list:
        """(children, scales) per live direction: its vector's child under
        each atom after the gap, and the scales they inherit."""
        families = []
        if gap >= self.width:
            power = self.m.power_num(gap - self.width + 1)
            for u, scales in live:
                entry = _carry(_collapse(u, self.last), power)
                families.append(([_spread(entry, atom) for atom in self.atoms], scales))
            return families
        step = self.step
        for v, scales in live:
            for _ in range(gap):
                moved: dict[int, int] = {}
                for i, x in v.items():
                    for j, pr in step[i]:
                        moved[j] = moved.get(j, 0) + x * pr
                v = moved
            children = [{i: x for i, x in v.items() if i in members} for members in self.member_sets]
            families.append((children, scales))
        return families

    def den(self, seq: Sequence[int]) -> int:
        """The common denominator of the vectors after all of seq."""
        return self.m.den(self.width - 1 + seq[-1] - seq[0])


def _lump(families) -> list:
    """The lumped state of (children, scales) families: a nonzero child c·u,
    with u primitive, of a direction with scales {g: k} stands for k
    assignments with vector (g·c)·u. Children that share u are merged."""
    live = []
    at: dict[frozenset, dict[int, int]] = {}
    for children, scales in families:
        for v in children:
            if not v:
                continue
            c = math.gcd(*v.values())
            if c > 1:
                v = {i: x // c for i, x in v.items()}
            key = frozenset(v.items())
            merged = at.get(key)
            if merged is None:
                at[key] = merged = {g * c: k for g, k in scales.items()}
                live.append((v, merged))
            else:
                for g, k in scales.items():
                    merged[g * c] = merged.get(g * c, 0) + k
    return live


def _masses(live) -> list[tuple[int, int]]:
    """(mass, count) pairs of a lumped state: count assignments of measure mass / den."""
    return [(g * total, k) for u, scales in live for total in (sum(u.values()),) for g, k in scales.items()]


def _readouts(join: _Join, seq: Sequence[int], states):
    """(lumped state, denominator) after each prefix of seq."""
    for n, live in enumerate(states, start=1):
        yield live, join.den(seq[:n])


def _join_profile(m: MarkovMeasure, p: Partition, seq: Sequence[int]):
    """_readouts after every prefix of seq, in one pass."""
    join = _Join(m, p)
    return _readouts(join, seq, join.run(seq, [], 0))


@dataclass(frozen=True)
class EntropyProfile:
    """(n, H_n, H_n / n) rows along the prefixes of a sequence, and the
    (live directions, assignments) of the lumped join after each prefix."""

    rows: tuple[tuple[int, float, float], ...]
    join_sizes: tuple[tuple[int, int], ...]

    @property
    def final_increment(self) -> float:
        if len(self.rows) == 1:
            return self.rows[0][1]
        return self.rows[-1][1] - self.rows[-2][1]


def sequence_entropy_profile(
    m: MarkovMeasure, p: Partition, s: Sequence[int]
) -> EntropyProfile:
    """H_n of the join along each prefix of s (in nats), plus H_n / n."""
    return _profile(_join_profile(m, p, validate_sequence(s)))


def _profile(readouts) -> EntropyProfile:
    rows, sizes = [], []
    for n, (live, den) in enumerate(readouts, start=1):
        masses = _masses(live)
        h = _mass_entropy(masses, den)
        rows.append((n, h, h / n))
        sizes.append((len(live), sum(k for _x, k in masses)))
    return EntropyProfile(tuple(rows), tuple(sizes))


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
    return len(_separated_reps(m, base, measure_of(m, base), horizon, Fraction(eps_sq)))


def _separated_reps(
    m: MarkovMeasure, base: SetLike, mu_base: Fraction, horizon: int, eps_sq: Fraction
) -> list[int]:
    """The greedy eps-separated shifts below the horizon, in order. The greedy
    over a shorter horizon is the prefix of this list below it.

    ||1_B - 1_{T^-g B}||^2 = 2 mu(B) - 2 mu(B ∩ T^-g B) > eps_sq is decided by
    integer cross-multiplication, and each chosen shift r forbids r + g for
    every gap g that does not separate.
    """
    n_b, d_b = mu_base.numerator, mu_base.denominator
    p, q = eps_sq.numerator, eps_sq.denominator
    nonsep = 0
    for g, (n, d) in enumerate(_gap_nums(m, base, base, horizon)):
        if 2 * q * (n_b * d - n * d_b) <= p * d_b * d:
            nonsep |= 1 << g
    reps: list[int] = []
    forbidden = 0
    for s in range(horizon):
        if not forbidden >> s & 1:
            reps.append(s)
            forbidden |= nonsep << s
    return reps


def df_estimate(x: PointRep, y: PointRep, b: SetLike, n_max: int) -> float:
    """Tail-max estimate of d_f(x, y) for f = 1_b.

    d_f(x,y) = limsup ((1/|F_n|) sum_s |f(sx) - f(sy)|^2)^{1/2}; the indicator
    difference is 1 exactly when the orbits disagree about membership.
    """
    disagreement = orbit_indicator(x, b, 0, n_max) ^ orbit_indicator(y, b, 0, n_max)
    return math.sqrt(density_from_indicator(disagreement).upper)


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
    check_cell_family(m, cell_family)
    if b.is_empty or b.is_full:
        return Verdict(NEGATIVE, note="indicator is a.e. constant")

    horizon = params.density_horizon
    b_lo, b_hi = b.support
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
            split = orbit_indicator(p, b, 0, horizon) & ~orbit_indicator(q, b, 0, horizon)
            est = density_from_indicator(split)
            if est.upper > best:
                best = est.upper
                best_info = {"cell": repr(cell), "pair_seed_attempt": attempt, "density": est.upper}
        per_cell.append((cell, best, best_info))

    floor = min(best for _, best, _ in per_cell)
    certified = max((e for e in DEFAULT_EPS_GRID if floor > e), default=None)
    if certified is None:
        worst = min(per_cell, key=lambda t: t[1])
        return Verdict(
            NEGATIVE, note=f"cell {worst[0]!r} yields density {worst[1]:.4f} below the grid"
        )
    return Verdict(
        POSITIVE, eps_certified=certified, witnesses=tuple(info for _, _, info in per_cell)
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
    return _greedy(m, p, length, horizon)[0]


def _greedy(m: MarkovMeasure, p: Partition, length: int, horizon: int):
    """The greedy sequence, its _Join and the lumped states after each of its prefixes."""
    if length > horizon:
        raise ValueError(f"cannot choose {length} distinct shifts below horizon {horizon}")
    join = _Join(m, p)
    chosen: list[int] = []
    # saved[i]: the lumped state after chosen[: i + 1]. A trial shift s
    # resumes from that of the chosen shifts below it.
    saved: list[list] = []
    for _ in range(length):
        best_h = best = None
        for s in range(horizon):
            if s in chosen:
                continue
            i = bisect(chosen, s)
            trial = chosen[:i] + [s] + chosen[i:]
            states = list(join.run(trial, saved[i - 1] if i else [], i))
            h = _mass_entropy(_masses(states[-1]), join.den(trial))
            if best_h is None or h > best_h + 1e-12:
                best_h, best = h, (i, trial, states)
        i, chosen, states = best
        saved[i:] = states
    return tuple(chosen), join, saved


SEPARATION_HORIZONS = (16, 32, 64)  # separation counts grow iff the last exceeds the others
GREEDY_LEN = 6  # shifts in the greedy entropy sequence
GREEDY_HORIZON = 16  # the greedy entropy sequence picks shifts below this
ENTROPY_INCREMENT_FLOOR = 0.02  # entropy grows iff the greedy sequence's last increment beats this


def crosscheck_hms_hap(
    m: MarkovMeasure,
    b: CylinderUnion,
    cell_family: Optional[Sequence[CylinderUnion]] = None,
    ms_params: MsFunctionParams = MsFunctionParams(),
) -> HmsHapReport:
    """Three views of the same dichotomy, expected to agree.

    1_b mean sensitive (witness search) should coincide with unbounded
    L2 separation growth of the shifted indicators and with positive
    sequence entropy of {b, b^c} along a sequence greedily chosen from the
    shifts below GREEDY_HORIZON.
    """
    if cell_family is None:
        cell_family = default_cell_family(m)

    if b.is_empty or b.is_full:
        sensitive = False
    else:
        sensitive = ms_function_test(m, b, cell_family, ms_params).is_positive

    counts = separation_counts(m, b)

    partition = two_set_partition(b)
    if len(partition) < 2:
        profile = EntropyProfile(((1, 0.0, 0.0),), ((1, 1),))
        greedy = (0,)
    else:
        greedy, join, saved = _greedy(m, partition, GREEDY_LEN, GREEDY_HORIZON)
        profile = _profile(_readouts(join, greedy, saved))
    entropy_growing = profile.final_increment > ENTROPY_INCREMENT_FLOOR

    return HmsHapReport(
        sensitive=sensitive,
        separation_growing=separation_growing(counts),
        entropy_growing=entropy_growing,
        separation_counts=counts,
        entropy_profile=profile,
        greedy_sequence=greedy,
    )


def separation_counts(m: MarkovMeasure, b: CylinderUnion) -> tuple[int, ...]:
    """b's separation counts at eps^2 = mu(b)(1 - mu(b)), one per SEPARATION_HORIZONS."""
    mu_b = measure_of(m, b)
    reps = _separated_reps(m, b, mu_b, max(SEPARATION_HORIZONS), mu_b * (1 - mu_b))
    return tuple(sum(r < h for r in reps) for h in SEPARATION_HORIZONS)


def separation_growing(counts: tuple[int, ...]) -> bool:
    """The Kushnirenko signal: the last separation count exceeds the others."""
    return counts[-1] > counts[0] and counts[-1] > counts[-2]


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


def check_cell_family(m: MarkovMeasure, cell_family: Sequence[CylinderUnion]) -> None:
    """Refuse an empty cell family or a cell of measure zero: the MS tests
    quantify over positive-measure cells."""
    if not cell_family:
        raise ValueError("cell family must be nonempty")
    for cell in cell_family:
        if measure_of(m, cell) == 0:
            raise ValueError(f"cell {cell!r} has measure zero")
