"""Combinatorial independence: independence sets relative to constraint maps,
maximum independence subsets, density profiles, and independence-pair verdicts.

An independence set I for the target pair (A1, A2) relative to E demands that
for every assignment sigma: I -> {1, 2} the intersection of E(s) and the
shifted targets T^{-s} A_{sigma(s)} over s in I is nonempty. E(s) enters the
intersection unshifted, exactly as the definition displays it.

One exact checker implements that test for every target: a segment
decomposition, valid because the SFT is a topological Markov chain, so
feasibility factors through symbol states at the boundaries of constrained
segments. A target enters as its constraint atoms, shifted per element of I;
a whole-space target imposes nothing and drops out. Each segment is solved by
one coordinate sweep from its entry symbols, all assignments at once, every
atom (E's and the targets') stepped through one transition rule. The checker
is incremental over sorted prefixes: searches extend saved states, and each
search (a pair classification, a density profile) shares one memo of
translation-relative segment sweeps, greedy chains and gap predicates; the SFT
keeps compiled atoms. It is property-tested against the 2^|I| word-enumeration oracle.

A threshold test only decides |I| / |F| >= threshold, so its greedy chain
stops at ceil(threshold * |F|) chosen shifts, and one greedy over nested
windows decides them all. The chain it saves is a prefix of the full
greedy, which later tests resume.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .folner import PeriodicPredicate, _periodic_and, _visit_predicate
from .measures import MarkovMeasure, _gap_nums, measure_of
from .symbolic import (
    CylinderUnion,
    PointRep,
    SetLike,
    Sft,
    Word,
    cylinder,
    resolve_constraints,
    step,
    whole_space,
)
from .verdicts import (
    DEFAULT_EPS_GRID,
    NEGATIVE,
    POSITIVE,
    InPairParams,
    Verdict,
)


# ---------------------------------------------------------------------------
# Constraint maps E
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableE:
    """E(s) from a finite override table on top of a default set.

    With no overrides it is the constant map E(s) = default, the reduction
    the ergodic abelian case allows.
    """

    default: CylinderUnion
    overrides: tuple[tuple[int, CylinderUnion], ...] = ()

    def at(self, s: int) -> CylinderUnion:
        for shift, value in self.overrides:
            if shift == s:
                return value
        return self.default

    def referenced(self, shifts: Sequence[int]) -> tuple[CylinderUnion, ...]:
        wanted = set(shifts)
        return (self.default,) + tuple(v for s, v in self.overrides if s in wanted)

    def describe(self) -> str:
        return f"TableE({len(self.overrides)} overrides)"


def full_e(sft: Sft) -> TableE:
    return TableE(whole_space(sft))


def e_min_measure(e: TableE, m: MarkovMeasure, shifts: Sequence[int]) -> Fraction:
    """Smallest measure among the sets E references on the given shifts."""
    values = e.referenced(shifts)
    if not values:
        return Fraction(1)
    return min(measure_of(m, v) for v in values)


# ---------------------------------------------------------------------------
# is_independence_set
# ---------------------------------------------------------------------------


def _target_atoms(target: SetLike) -> Optional[tuple[tuple[int, tuple[Word, ...]], ...]]:
    """The target's constraint atoms (start, words): () for the whole space, None if empty."""
    return None if target.is_empty else target.blocks()


def is_independence_set(
    sft: Sft,
    a1: SetLike,
    a2: SetLike,
    i_set: Sequence[int],
    e: TableE,
    *,
    _memo: Optional[dict] = None,
) -> bool:
    """True iff every assignment over i_set resolves nonempty (exact)."""
    shifts = sorted(set(int(s) for s in i_set))
    checker = _Checker(sft, (_target_atoms(a1), _target_atoms(a2)), e, _memo)
    return checker.extend(checker.empty, *shifts) is not None


class _Prefix(NamedTuple):
    """Checker state of a sorted shift prefix; never mutated, so searches backtrack freely.

    `frontier`: the segment DP over the closed segments, the last ending at
    `prev_hi`: the distinct sets of last symbols that the assignments over
    those segments leave feasible. `open`: the last segment (lo, hi, shifts,
    E atoms); `tip`: the frontier with it folded in, once solved.
    `e_atoms`: the distinct atoms of the E values reached, as (start, atom
    id) sorted by start; the first `merged` are folded.
    """

    shifts: tuple
    e_atoms: tuple
    merged: int
    frontier: frozenset
    prev_hi: Optional[int]
    open: Optional[tuple]
    tip: Optional[frozenset]


class _Checker:
    """Exact for-all-assignments feasibility, incremental over sorted shift prefixes.

    Each shift s is a placement whose options are the targets' atoms shifted
    by s; the whole-space option is dropped, since the other target is always
    the harder choice. Constrained intervals (placements plus E atoms) split
    into connected segments separated by free coordinates. Each segment is
    solved by one `_sweep` per distinct set of entry symbols, memoized up to
    translation; a subset-tracking DP over segments decides whether any
    global assignment chain dies.
    """

    def __init__(self, sft: Sft, targets, e: TableE, memo: Optional[dict]):
        self.sft, self.e = sft, e
        self.memo = {} if memo is None else memo
        if "atoms" not in self.memo:
            self.memo["atoms"] = _Atoms(sft)
        self.atoms = self.memo["atoms"]
        self.dead = None in targets
        t1, t2 = targets
        choices = () if self.dead else tuple(t for t in ((t1,) if t1 == t2 else (t1, t2)) if t)
        self.lo = min((start for t in choices for start, _ in t), default=0)
        self.hi = max((start + len(ws[0]) - 1 for t in choices for start, ws in t), default=0)
        # Atoms are (start, atom id) from here on; the memo key holds the targets' id.
        self.choices = tuple(tuple([(s, self.atoms.id(ws)) for s, ws in t]) for t in choices)
        self.targets = self.atoms.targets.setdefault(self.choices, len(self.atoms.targets))
        self.alphabet = frozenset(range(sft.alphabet_size))
        self.empty = _Prefix((), (), 0, frozenset({self.alphabet}), None, None, None)

    def extend(self, state: _Prefix, *new: int) -> Optional[_Prefix]:
        """The prefix's state plus the sorted shifts `new` above it, or None if not independent."""
        values = [self.e.at(s) for s in new]
        if (self.dead and new) or any(v.is_empty for v in values):
            return None
        fresh = {(start, self.atoms.id(ws)) for v in values for start, ws in v.blocks()}
        fresh.difference_update(state.e_atoms)
        shifts = new
        if fresh:  # E enters unshifted: its new atoms may land in closed segments, so refold
            shifts = state.shifts + shifts
            state = _Prefix((), tuple(sorted([*state.e_atoms, *fresh])), 0, *self.empty[3:])
        for shift in shifts:
            state = state and self._place(state, shift)
        return state and self._settle(state)

    def _place(self, state: _Prefix, s: int) -> Optional[_Prefix]:
        """Append placement s after the E atoms that start before it; None if a segment dies."""
        state = self._merge(_Prefix(state.shifts + (s,), *state[1:]), s + self.lo)
        if state is None or not self.choices:
            return state
        return self._add(state, s + self.lo, s + self.hi, s)

    def _merge(self, state: _Prefix, until: float) -> Optional[_Prefix]:
        """Fold the unmerged E atoms that start before `until`."""
        while state and state.merged < len(state.e_atoms):
            start, atom = state.e_atoms[state.merged]
            if start >= until:
                break
            state = self._add(state, start, start + len(self.atoms.words[atom][0]) - 1, None)
        return state

    def _settle(self, state: _Prefix) -> Optional[_Prefix]:
        """The state, its open segment solved, if the prefix is independent; else None."""
        tail = self._merge(state, float("inf"))  # on a copy: later placements may join these atoms
        tip = tail and self._tip(tail)
        if tip is None:
            return None
        return _Prefix(*state[:6], tip) if tail is state else state

    def _add(self, state: _Prefix, lo: int, hi: int, pin: Optional[int]) -> Optional[_Prefix]:
        """Fold in [lo, hi]: the placement of shift `pin`, or if pin is None the next E atom."""
        frontier, prev_hi = state.frontier, state.prev_hi
        if state.open is not None and lo <= state.open[1]:
            seg_lo, seg_hi, pins, atoms = state.open
            seg_hi = max(seg_hi, hi)
        else:
            if state.open is not None:
                frontier, prev_hi = self._tip(state), state.open[1]
                if frontier is None:
                    return None
            seg_lo, seg_hi, pins, atoms = lo, hi, (), ()
        merged = state.merged
        if pin is not None:
            pins += (pin,)
        else:
            atoms += (state.e_atoms[merged],)
            merged += 1
        seg = (seg_lo, seg_hi, pins, atoms)
        return _Prefix(state.shifts, state.e_atoms, merged, frontier, prev_hi, seg, None)

    def _tip(self, state: _Prefix) -> Optional[frozenset]:
        """The frontier with the open segment folded in, or None if an assignment dies."""
        if state.open is None or state.tip is not None:
            return state.tip or state.frontier
        seg_lo, seg_hi, pins, atoms = state.open
        gap = 0 if state.prev_hi is None else seg_lo - state.prev_hi  # first segment: any symbol
        # The SFT is shift-invariant, so a segment's sweep depends only on its
        # constraints relative to its first coordinate: the memo key holds the
        # targets' id, the pins and the E atoms' ids relative to it.
        span = seg_hi - seg_lo
        rel_pins = tuple([p - seg_lo for p in pins])
        rel_atoms = tuple([(start - seg_lo, atom) for start, atom in atoms])
        tip: set = set()
        for firsts in {self.sft.reach(lasts, gap) for lasts in state.frontier}:
            key = (self.targets, span, rel_pins, rel_atoms, firsts)
            if key not in self.memo:
                placements = [
                    (p + self.lo, [tuple([(a + p, atom) for a, atom in t]) for t in self.choices])
                    for p in rel_pins
                ] + [(start, [((start, atom),)]) for start, atom in rel_atoms]
                self.memo[key] = _sweep(self.sft, self.atoms, placements, span, firsts)
            ends = self.memo[key]
            if ends is None:
                return None
            tip |= ends
        return frozenset(tip)


class _Atoms:
    """A search's atoms: each word list interned to an integer id, its rows read off `Sft.atom_rows`.

    Lookups go by id(words), and the table holds every word list it has
    looked up, so no id() is reused while the search memo that owns it
    lives. Equal lists that are distinct objects share one atom id, and
    equal target choices one target id.
    """

    def __init__(self, sft: Sft):
        self.sft = sft
        self.seen: dict[int, tuple] = {}  # id(words) -> (words, atom id)
        self.ids: dict = {}  # words -> atom id
        self.words: list = []  # atom id -> words, and their compiled rows
        self.rows: list = []
        self.targets: dict = {}  # target choices in atom ids -> target id

    def id(self, words) -> int:
        hit = self.seen.get(id(words))
        if hit is None:
            atom = self.ids.setdefault(words, len(self.ids))
            if atom == len(self.words):
                self.words.append(words)
                self.rows.append(self.sft.atom_rows(words))
            hit = self.seen[id(words)] = (words, atom)
        return hit[1]


def _sweep(sft, atoms: _Atoms, placements, span, firsts) -> Optional[frozenset]:
    """Universal feasibility of one segment over [0, span], entered at `firsts`.

    Coordinates are relative to the segment's first one, and atoms are
    (start, atom id); placements are (first coordinate, options), an E atom
    being a placement with one option. A belief pairs the atoms the
    assignment has opened and not yet passed (in opening order) with the set
    of feasible frontier configurations: previous symbol, then the residual
    state of every such atom. Assignment choices split beliefs at each
    placement's first coordinate, where the opened atoms enter in state 0;
    existential symbol choices evolve configurations by :func:`step` through
    the open atoms that cover the coordinate (from `firsts` at coordinate 0),
    and an atom's slot is dropped after its last coordinate. A belief groups
    the assignment paths with equal configuration sets, so its last symbols
    are theirs. Returns the set of last-symbol sets, one per belief at
    coordinate span, or None when some assignment path empties.
    """
    starts_at: dict[int, list] = {}
    for first, options in placements:
        starts_at.setdefault(first, []).append([(option, (0,) * len(option)) for option in options])

    # A belief: (open atoms, frozenset of (prev symbol, states)).
    beliefs: set = {((), frozenset({(None, ())}))}
    for c in range(span + 1):
        # Adversary choices for placements opening at c.
        for options in starts_at.get(c, ()):
            beliefs = {
                (opened + option, frozenset([(prev, states + blank) for prev, states in configs]))
                for opened, configs in beliefs
                for option, blank in options
            }
        nxt: set = set()
        for opened, configs in beliefs:
            active = []  # (slot, rows) of the open atoms that cover c
            keep = []  # the slots still open after c
            for slot, (start, atom) in enumerate(opened):
                if start <= c:
                    active.append((slot, atoms.rows[atom]))
                if c < start + len(atoms.words[atom][0]) - 1:
                    keep.append(slot)
            new_configs = {
                moved for prev, states in configs for moved in step(sft, prev, states, active, firsts)
            }
            if not new_configs:
                return None
            if len(keep) < len(opened):  # atoms complete at c are back in state 0: drop them
                new_configs = {(sym, tuple([s[i] for i in keep])) for sym, s in new_configs}
                opened = tuple([opened[i] for i in keep])
            nxt.add((opened, frozenset(new_configs)))
        beliefs = nxt
    return frozenset([frozenset([sym for sym, _ in configs]) for _, configs in beliefs])


# ---------------------------------------------------------------------------
# Maximum independence subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceReport:
    """Best independence subset found inside a window, with provenance."""

    window: tuple[int, ...]
    best: tuple[int, ...]
    ratio: Fraction
    exhaustive: bool

    def __post_init__(self):
        if not set(self.best) <= set(self.window):
            raise ValueError("best subset must lie inside the window")


EXHAUSTIVE_WINDOW_CAP = 24  # widest window searched exactly; wider ones get the greedy subset
NODE_BUDGET = 500_000  # branch-and-bound nodes a search visits before it falls back to greedy


def _gap_predicate(sft: Sft, a1: SetLike, a2: SetLike, memo: dict) -> PeriodicPredicate:
    """g -> [{0, g} is an independence set of the nonempty (a1, a2) with E ignored], kept in the
    memo: A_i ∩ T^{-g} A_j meets for every ordered pair of targets other than the whole space."""
    key = ("gaps", _target_atoms(a1), _target_atoms(a2))
    if key not in memo:
        sets = list({a.blocks(): a for a in (a1, a2) if a.blocks()}.values())
        pairs = [_visit_predicate(sft, a, b) for a in sets for b in sets]
        memo[key] = functools.reduce(_periodic_and, pairs, PeriodicPredicate((), (True,)))
    return memo[key]


def _gap_dp_max(compatible, f_sorted, solved: dict) -> tuple[int, ...]:
    """Exact maximum via pairwise-gap DP when placements cannot overlap.

    Valid for single-word targets when every gap smaller than the placement
    span is incompatible: any independence set then has all its placements
    disjoint, and joint realizability of every assignment factors through
    consecutive pairs (Markov chaining across determined words). With union
    targets pairwise-compatible pairs can need different words at a shared
    placement, so callers keep unions out and check the precondition.
    `compatible(g)` says whether {0, g} is an independence set with E ignored.
    `solved` keeps the tables of the widest contiguous window solved: by
    translation a contiguous window of n shifts has the tables of its last n.
    """
    n = len(f_sorted)
    contiguous = f_sorted[-1] - f_sorted[0] == n - 1
    best, compat = solved.get("table", ((), None))
    if not contiguous or len(best) < n:
        compat = {g: compatible(g) for g in {b - a for a in f_sorted for b in f_sorted if b > a}}
        best = _suffix_table(compat, f_sorted)
        if contiguous:
            solved["table"] = (best, compat)
    best = best[len(best) - n :]
    remaining = max(best)
    chosen: list[int] = []
    prev: Optional[int] = None
    for i in range(n):
        if best[i] < remaining:
            continue
        if prev is not None and not compat[f_sorted[i] - prev]:
            continue
        chosen.append(f_sorted[i])
        prev = f_sorted[i]
        remaining -= 1
        if remaining == 0:
            break
    return tuple(chosen)


def _suffix_table(compat: dict, f_sorted) -> tuple[int, ...]:
    """best[i]: the most shifts from f_sorted[i] on, f_sorted[i] first, at compatible gaps."""
    n = len(f_sorted)
    best = [1] * n
    for i in range(n - 1, -1, -1):
        best[i] = max([1 + best[j] for j in range(i + 1, n) if compat[f_sorted[j] - f_sorted[i]]], default=1)
    return tuple(best)


def max_independence_subset(
    sft: Sft,
    a1: SetLike,
    a2: SetLike,
    window: Sequence[int],
    e: TableE,
    *,
    _memo: Optional[dict] = None,
) -> IndependenceReport:
    """Largest independence subset of the window.

    Single-word targets with a trivial E and non-overlapping placements go
    through an exact pairwise-gap DP over `_gap_predicate`; the rest runs include-first
    branch and bound with monotone pruning (supersets of a failing set fail)
    and a size bound, ties resolving to the lexicographically smallest
    subset. Windows beyond the exhaustive cap, or searches past the node
    budget, degrade to the greedy chain with exhaustive=False.
    """
    f_sorted = tuple(sorted(set(int(s) for s in window)))
    if not f_sorted:
        raise ValueError("window must be nonempty")

    def report(best: tuple[int, ...], exhaustive: bool) -> IndependenceReport:
        return IndependenceReport(f_sorted, best, Fraction(len(best), len(f_sorted)), exhaustive)

    targets = (_target_atoms(a1), _target_atoms(a2))
    if None in targets:
        return report((), True)
    memo = {} if _memo is None else _memo
    compatible = _gap_predicate(sft, a1, a2, memo)
    ends = [(start, start + len(ws[0])) for t in targets for start, ws in t]
    span = max((end for _, end in ends), default=1) - min((start for start, _ in ends), default=0)
    if all(len(t) == 1 and len(t[0][1]) == 1 for t in targets) and all(e.at(s).is_full for s in f_sorted):
        if not any(compatible(g) for g in range(1, span)):
            solved = memo.setdefault(("dp", targets), {})  # one DP per targets
            return report(_gap_dp_max(compatible, f_sorted, solved), True)
    # Smallest assignment-universally feasible gap ignoring E: every gap
    # inside any independence set is at least gamma, since subsets of
    # independence sets are independence sets, E only shrinks, and with E
    # ignored the check on {a, a + g} does not depend on a.
    gamma = next((g for g in range(1, span + 4 * sft.alphabet_size + 1) if compatible(g)), None)
    checker = _Checker(sft, targets, e, memo)

    if len(f_sorted) > EXHAUSTIVE_WINDOW_CAP:
        return report(_greedy_subset(f_sorted, checker, [], len(f_sorted)), False)

    best, nodes, exhausted = (), 0, False

    def remaining_cap(idx: int) -> int:
        count = len(f_sorted) - idx
        if gamma is not None and gamma > 1 and count > 0:
            count = min(count, (f_sorted[-1] - f_sorted[idx]) // gamma + 1)
        return count

    def dfs(idx: int, state: _Prefix):
        nonlocal best, nodes, exhausted
        if exhausted:
            return
        if len(state.shifts) > len(best):
            best = state.shifts
        if idx == len(f_sorted):
            return
        if len(state.shifts) + remaining_cap(idx) <= len(best):
            return
        nodes += 1
        if nodes > NODE_BUDGET:
            exhausted = True
            return
        child = checker.extend(state, f_sorted[idx])
        if child is not None:
            dfs(idx + 1, child)
        dfs(idx + 1, state)

    dfs(0, checker.empty)
    if exhausted:  # ties keep the search's subset
        best = max(best, _greedy_subset(f_sorted, checker, [], len(f_sorted)), key=len)
    return report(best, not exhausted)


def ratio_meets(
    sft: Sft,
    a1: SetLike,
    a2: SetLike,
    window: Sequence[int],
    e: TableE,
    threshold: Fraction,
    *,
    _memo: Optional[dict] = None,
) -> bool:
    """Decide best-ratio >= threshold: `_prefixes_meet` on the one window."""
    f_sorted = tuple(sorted(set(int(s) for s in window)))
    if not f_sorted:
        raise ValueError("window must be nonempty")
    return _prefixes_meet(sft, a1, a2, f_sorted, (len(f_sorted),), e, threshold, _memo)


def _prefixes_meet(sft, a1, a2, f_sorted, sizes, e: TableE, threshold, memo) -> bool:
    """Decide best-ratio >= threshold on every prefix f_sorted[:n], n in sizes.

    A ratio |I| / n meets it iff |I| >= need(n) = ceil(threshold * n). The
    greedy is a sound lower bound and on a prefix chooses the full greedy's
    shifts inside it, so one greedy stopped at the largest need decides each
    prefix where it chose need(n) shifts (need grows with n); each miss
    falls back to the exact search. The memo keeps the chain per (targets, E).
    """
    needs = [math.ceil(Fraction(threshold) * n) for n in sizes]
    targets = (_target_atoms(a1), _target_atoms(a2))
    checker = _Checker(sft, targets, e, memo)
    chain = checker.memo.setdefault(("greedy", targets, e), [])
    chosen = _greedy_subset(f_sorted[: max(sizes)], checker, chain, max(needs))
    for n, need in zip(sizes, needs):
        if sum(s <= f_sorted[n - 1] for s in chosen) >= need:
            continue
        exact = max_independence_subset(sft, a1, a2, f_sorted[:n], e, _memo=checker.memo)
        if exact.ratio < threshold:
            return False
    return True


def _greedy_subset(f_sorted, checker: _Checker, chain: list, need: int) -> tuple[int, ...]:
    """Greedy over f_sorted, stopped once it holds `need` shifts. Resumes the steps
    of `chain`, a list of (shift, state), where they agree with f_sorted, and
    leaves the new chain in it."""
    i = 0
    while i < min(len(chain), len(f_sorted)) and chain[i][0] == f_sorted[i]:
        i += 1
    del chain[i:]
    state = chain[-1][1] if chain else checker.empty
    for s in f_sorted[i:]:
        if len(state.shifts) >= need:
            break
        state = checker.extend(state, s) or state
        chain.append((s, state))
    return state.shifts


def independence_density_profile(
    sft: Sft,
    m: MarkovMeasure,
    a1: SetLike,
    a2: SetLike,
    n_list: Sequence[int],
    e_family: Sequence[TableE],
    *,
    _memo: Optional[dict] = None,
) -> list[IndependenceReport]:
    """Per window size N, the worst-case (over the E family) best ratio on {0..N-1}.

    A profile floor staying away from 0 is the desk-scale evidence for the
    positive independence density constant. Searched widest first, the
    windows share one gap DP.
    """
    if not e_family:
        raise ValueError("e_family must be nonempty")
    memo = {} if _memo is None else _memo
    worst = {}
    for n in sorted(set(n_list), reverse=True):
        reps = [max_independence_subset(sft, a1, a2, range(n), e, _memo=memo) for e in e_family]
        worst[n] = min(reps, key=lambda rep: rep.ratio)  # the first worst
    return [worst[n] for n in n_list]


# ---------------------------------------------------------------------------
# Adversarial constraint maps
# ---------------------------------------------------------------------------


def bad_constant_e(
    m: MarkovMeasure, s: int, t: int, ux: CylinderUnion, uy: CylinderUnion
) -> TableE:
    """The constant map E = (T^{-s} Ux intersect T^{-t} Uy)^c.

    Its measure is exactly 1 - mu(s^{-1}Ux ∩ t^{-1}Uy): the cheapest
    constraint map that can obstruct independence of the pair.
    """
    meet = resolve_constraints([(s, ux), (t, uy)], m.sft, gap_cap=64)
    if meet.is_empty:
        return TableE(whole_space(m.sft))
    if meet.bridged:
        raise ValueError("shifts too far apart for an exact complement")
    return TableE(meet.complement())


def random_table_e(
    m: MarkovMeasure,
    eps: Union[float, Fraction],
    seed: int,
    *,
    max_shift: int = 24,
    n_overrides: int = 4,
) -> TableE:
    """A seeded random TableE whose sets all have measure >= 1 - eps.

    Override sets are complements of thin cylinders (word length chosen so
    the cylinder measure is at most eps); when no legal word is thin enough
    the whole space is used instead.
    """
    eps = Fraction(eps)
    rng = random.Random(seed)
    sft = m.sft

    def thin_complement() -> CylinderUnion:
        for length in range(1, 13):
            words = m.thin_words(length, eps)
            if words:
                word = words[rng.randrange(len(words))]
                start = rng.randrange(-4, 5)
                return cylinder(sft, start, word).complement()
        return whole_space(sft)

    shifts = rng.sample(range(max_shift), min(n_overrides, max_shift))
    overrides = tuple((s, thin_complement()) for s in sorted(shifts))
    return TableE(default=whole_space(sft), overrides=overrides)


# ---------------------------------------------------------------------------
# IN-pair classification
# ---------------------------------------------------------------------------


def point_neighborhood(p: PointRep, radius: int) -> CylinderUnion:
    """The canonical cylinder [p_{-radius} ... p_{radius}] at start -radius."""
    word = tuple(p.eval(n) for n in range(-radius, radius + 1))
    return cylinder(p.sft, -radius, word)


def separating_depth(x: PointRep, y: PointRep, depth: int) -> Optional[int]:
    """Smallest d <= depth with x, y differing somewhere in [-d, d]."""
    for d in range(depth + 1):
        for n in (-d, d):
            if x.eval(n) != y.eval(n):
                return d
    return None


def neighbourhood_levels(
    x: PointRep, y: PointRep, depth: int
) -> Iterator[tuple[int, CylinderUnion, CylinderUnion]]:
    """The ladder every pair classifier walks: (d, U_x, U_y) for d = 0..depth,
    each level's neighbourhoods built only when it is reached.

    Refuses x and y that agree on [-depth, depth] at the call, before any
    level is built.
    """
    if separating_depth(x, y, depth) is None:
        raise ValueError(f"points agree on [-{depth}, {depth}]; pairs need x != y")
    return ((d, point_neighborhood(x, d), point_neighborhood(y, d)) for d in range(depth + 1))


N_LIST = (4, 8, 16, 24)  # window sizes N of the profiles on {0, ..., N-1}
C_MIN = Fraction(1, 20)  # independence density every level's profile floor must reach
RA_BOUND = 5  # constant complement adversaries come from 0 <= s < t <= RA_BOUND


def classify_in_pair(
    sft: Sft,
    m: MarkovMeasure,
    x: PointRep,
    y: PointRep,
    depth: int,
    params: InPairParams = InPairParams(),
) -> Verdict:
    """Independence-pair verdict over nested canonical neighbourhoods.

    Per level the adversarial family is E = X plus the constant complement
    maps built from all shift pairs up to the search bound (the constant-map
    reduction valid for ergodic abelian actions), plus any configured extras;
    only maps whose sets have measure >= 1 - eps participate at a given eps.
    They grow with eps, so the floor is checked at min(DEFAULT_EPS_GRID)
    only, and a positive verdict certifies that eps, not the largest that
    would pass. Positive needs every level's profile floor >= C_MIN there.

    By shift invariance the map of (s, t) is that of (0, t - s) translated
    by s, of measure 1 - mu(Ux ∩ T^-(t-s) Uy): one gap-kernel readout
    qualifies the gaps and one complement is built per gap. One whose meet
    is empty is E = X, whose windows repeat the base profile. The extras
    qualify once per call: nothing there depends on d.
    """
    levels = neighbourhood_levels(x, y, depth)
    memo: dict = {}  # one translation-relative sweep memo for every search of the pair
    level_eps = min(DEFAULT_EPS_GRID)
    floor = 1 - Fraction(str(level_eps))  # the grid value's decimal: Fraction(0.02) > 1/50
    window = tuple(range(max(N_LIST)))
    extras = None  # qualified once, at the first level past its base profile
    level_witnesses = []
    for d, ux, uy in levels:
        base_profile = independence_density_profile(
            sft, m, ux, uy, N_LIST, [full_e(sft)], _memo=memo
        )
        base_floor = min(rep.ratio for rep in base_profile)
        if base_floor < C_MIN:
            worst = min(base_profile, key=lambda r: r.ratio)
            return Verdict(
                NEGATIVE,
                note=(
                    f"level {d}: unconstrained profile floor {base_floor} < c_min "
                    f"(window {len(worst.window)}, best |I| = {len(worst.best)})"
                ),
            )
        if extras is None:
            extras = [e for e in params.extra_e_maps if e_min_measure(e, m, window) >= floor]
        meets = _gap_nums(m, ux, uy, RA_BOUND + 1)
        per_gap = {}
        for g in range(1, RA_BOUND + 1):
            if 1 - Fraction(*meets[g]) >= floor:
                e = bad_constant_e(m, 0, g, ux, uy)
                if not e.default.is_full:  # not just mu = 0: allowed moves can have probability 0
                    per_gap[g] = e.default
        pairs = [(s, t) for s in range(RA_BOUND + 1) for t in range(s + 1, RA_BOUND + 1)]
        qualifying = [TableE(per_gap[t - s].translate(s)) for s, t in pairs if t - s in per_gap]
        if not all(
            _prefixes_meet(sft, ux, uy, window, N_LIST, e, C_MIN, memo) for e in qualifying + extras
        ):
            return Verdict(NEGATIVE, note=f"level {d}: no eps in the grid keeps the floor above c_min")
        level_witnesses.append(
            {
                "level": d,
                "eps": level_eps,
                "floor": base_floor,
                "profile": tuple(
                    (len(rep.window), tuple(rep.best), rep.ratio) for rep in base_profile
                ),
            }
        )
    return Verdict(POSITIVE, eps_certified=level_eps, witnesses=tuple(level_witnesses))
