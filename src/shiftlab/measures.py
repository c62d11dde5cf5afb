"""Exact Markov measures on subshifts of finite type.

Measures of cylinders come from mu([w]_i) = pi_{w_0} * prod P[w_j][w_{j+1}]
(independent of i by stationarity); measures of shifted intersections use the
same chain with exact transition-matrix powers across unconstrained gaps.
Everything here is a fractions.Fraction; floats never enter set arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ShiftLabError
from .symbolic import (
    BridgedBlocks,
    Cylinder,
    CylinderUnion,
    EmptyIntersection,
    SampledWindow,
    SetLike,
    Sft,
    ShiftedConstraintSet,
    Word,
    constraint_atoms,
    _cluster_constraints,
    _graph_covers,
    _EMPTY,
    _cached_power,
)

Rational = Union[Fraction, int, str]


def as_fraction(value: Rational) -> Fraction:
    """Parse exact rationals; strings use the "p/q" form."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r}")


def stationary_vector(transition: Sequence[Sequence[Rational]]) -> tuple[Fraction, ...]:
    """The unique probability vector pi with pi P = pi, by exact elimination.

    Requires a row-stochastic matrix whose positive-entry graph is strongly
    connected; a reducible chain (non-unique pi) raises.
    """
    P = [[as_fraction(v) for v in row] for row in transition]
    k = len(P)
    if any(len(row) != k for row in P):
        raise ValueError("transition matrix must be square")
    for i, row in enumerate(P):
        if sum(row) != 1:
            raise ValueError(f"transition row {i} does not sum to 1 exactly")
        if any(v < 0 for v in row):
            raise ValueError(f"transition row {i} has a negative entry")
    succ = [[j for j in range(k) if P[i][j] > 0] for i in range(k)]
    if not _graph_covers(succ, k):
        raise ValueError("reducible chain: stationary vector is not unique")

    # Solve (P^T - I) pi = 0 with sum(pi) = 1 by Gaussian elimination.
    rows = [[P[j][i] - (1 if i == j else 0) for j in range(k)] + [Fraction(0)] for i in range(k)]
    rows.append([Fraction(1)] * k + [Fraction(1)])
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    if r < k:
        raise ValueError("reducible chain: stationary vector is not unique")
    pi = [Fraction(0)] * k
    for row, col in pivots:
        pi[col] = rows[row][k]
    if any(v < 0 for v in pi) or sum(pi) != 1:
        raise ShiftLabError("elimination produced an invalid stationary vector")
    return tuple(pi)


class MarkovMeasure:
    """A shift-invariant Markov measure compatible with an SFT.

    The stationary vector is always computed, never supplied, and the
    positive-transition graph must be irreducible so the shift measure is
    ergodic.
    """

    def __init__(self, sft: Sft, transition: Sequence[Sequence[Rational]]):
        P = tuple(tuple(as_fraction(v) for v in row) for row in transition)
        k = sft.alphabet_size
        if len(P) != k or any(len(row) != k for row in P):
            raise ValueError("transition matrix shape must match the alphabet")
        for a in range(k):
            for b in range(k):
                if P[a][b] > 0 and not sft.allowed[a][b]:
                    raise ValueError(
                        f"transition {a}->{b} has positive probability but is forbidden"
                    )
        self.sft = sft
        self.transition = P
        self.stationary = stationary_vector(P)
        identity = tuple(tuple(Fraction(int(a == b)) for b in range(k)) for a in range(k))
        self._pow_cache: dict[int, tuple[tuple[Fraction, ...], ...]] = {0: identity, 1: P}
        self._thin_cache: dict[tuple[int, Fraction], tuple[Word, ...]] = {}

    def matrix_power(self, steps: int) -> tuple[tuple[Fraction, ...], ...]:
        return _cached_power(self._pow_cache, _mat_mul, steps)

    def thin_words(self, length: int, eps: Fraction) -> tuple[Word, ...]:
        """Legal words of the length with 0 < weight <= eps, in `legal_words` order."""
        if (length, eps) not in self._thin_cache:
            self._thin_cache[length, eps] = tuple(
                w for w in self.sft.legal_words(length) if 0 < self.word_weight(w) <= eps
            )
        return self._thin_cache[length, eps]

    def word_weight(self, word: Word) -> Fraction:
        """pi at the first symbol times the transition products along the word."""
        return self.stationary[word[0]] * self._inner_weight(word)

    def _inner_weight(self, word: Word) -> Fraction:
        """The transition products along the word, reduced once at the end."""
        num = den = 1
        for a, b in zip(word, word[1:]):
            p = self.transition[a][b]
            if not p:
                return Fraction(0)
            num *= p.numerator
            den *= p.denominator
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MarkovMeasure)
            and self.sft == other.sft
            and self.transition == other.transition
        )

    def __hash__(self) -> int:
        return hash((self.sft, self.transition))

    def __repr__(self) -> str:
        return f"MarkovMeasure(k={self.sft.alphabet_size})"


def _mat_mul(x, y):
    k = len(x)
    return tuple(
        tuple(sum((x[a][c] * y[c][b] for c in range(k)), Fraction(0)) for b in range(k))
        for a in range(k)
    )


def measure_of(m: MarkovMeasure, s: SetLike) -> Fraction:
    """Exact measure of a cylinder, union, or block-form set."""
    if isinstance(s, EmptyIntersection):
        return Fraction(0)
    if isinstance(s, Cylinder):
        return Fraction(0) if s.is_empty else m.word_weight(s.word)
    if isinstance(s, CylinderUnion):
        if s.is_empty:
            return Fraction(0)
        if s.is_full:
            return Fraction(1)
        original = getattr(s, "_complement_of", None)
        if original is not None and len(original.words) < len(s.words):
            return 1 - measure_of(m, original)
        return sum((m.word_weight(w) for w in s.words), Fraction(0))
    if isinstance(s, BridgedBlocks):
        return _exact_sum(_chain(m, s.blocks(), m.stationary).values())
    raise TypeError(f"not a measurable set representation: {s!r}")


# The forward engine. A vector maps word keys to exact masses: `_spread`
# enters words from the symbol masses at their first coordinate, `_collapse`
# keeps the last symbols, `_carry` crosses free coordinates by a power of P,
# and `_chain` runs the three through disjoint blocks.

_ZERO = Fraction(0)


def _exact_sum(values: Iterable[Fraction]) -> Fraction:
    """Exact sum without a zero seed, which would cost one more normalization; 0 if empty."""
    it = iter(values)
    total = next(it, _ZERO)
    for x in it:
        total += x
    return total


def _spread(entry: Sequence[Fraction], table) -> dict[int, Fraction]:
    """entry[first] times the inner weight (None stands for 1) of each (key, first, weight)."""
    return {i: entry[a] if wt is None else entry[a] * wt for i, a, wt in table if entry[a]}


def _collapse(v: dict[int, Fraction], last: Sequence[int]) -> dict[int, Fraction]:
    """The mass of a vector per last symbol of its words."""
    ends: dict[int, Fraction] = {}
    for i, x in v.items():
        c = last[i]
        ends[c] = ends[c] + x if c in ends else x
    return ends


def _carry(ends: dict[int, Fraction], power) -> list[Fraction]:
    """Symbol masses after crossing free coordinates: last-symbol masses times P^g."""
    return [
        _exact_sum(x * power[c][a] for c, x in ends.items() if power[c][a])
        for a in range(len(power))
    ]


def _chain(m: MarkovMeasure, blocks, entry: Sequence[Fraction]) -> dict[int, Fraction]:
    """Last-symbol masses after disjoint (start, words) blocks sorted by start,
    entering the first block with the symbol masses `entry`."""
    prev_end = None
    for start, words in blocks:
        if prev_end is not None:
            entry = _carry(ends, m.matrix_power(start - prev_end))
        table = [(n, w[0], m._inner_weight(w)) for n, w in enumerate(words)]
        ends = _collapse(_spread(entry, table), [w[-1] for w in words])
        prev_end = start + len(words[0]) - 1
    return ends


def _gap_measures(m: MarkovMeasure, a: SetLike, b: SetLike, horizon: int) -> list[Fraction]:
    """[mu(a ∩ T^{-g} b) for 0 <= g < horizon] from one pass over the gaps.

    While the shifted b starts inside a's span the two cluster into one block
    chain; past it, a's last-symbol masses (one chain) are carried to b's
    first coordinate and chained through b's blocks.
    """
    atoms_a, atoms_b = (constraint_atoms([(0, s)], m.sft) for s in (a, b))
    if atoms_a is _EMPTY or atoms_b is _EMPTY or not atoms_a or not atoms_b:
        # One side is empty or the whole space, so one set contains the other.
        return [min(measure_of(m, a), measure_of(m, b))] * horizon
    blocks_a, blocks_b = (_cluster_constraints(m.sft, atoms) for atoms in (atoms_a, atoms_b))
    ends_a = _chain(m, blocks_a, m.stationary)
    a_end = blocks_a[-1][0] + len(blocks_a[-1][1][0]) - 1
    out = []
    for g in range(horizon):
        steps = g + blocks_b[0][0] - a_end
        if steps > 0:
            ends = _chain(m, blocks_b, _carry(ends_a, m.matrix_power(steps)))
        else:
            blocks = _cluster_constraints(m.sft, atoms_a + [(s + g, w) for s, w in atoms_b])
            ends = {} if isinstance(blocks, EmptyIntersection) else _chain(m, blocks, m.stationary)
        out.append(_exact_sum(ends.values()))
    return out


def measure_of_constraints(m: MarkovMeasure, constraints: ShiftedConstraintSet) -> Fraction:
    """mu of the intersection of T^{-shift}(set) without enumerating it.

    Agrees exactly with measure_of(resolve_constraints(...)) whenever the
    latter enumerates; an empty constraint list measures the whole space.
    """
    atoms = constraint_atoms(constraints, m.sft)
    if atoms is _EMPTY:
        return Fraction(0)
    if not atoms:
        return Fraction(1)
    blocks = _cluster_constraints(m.sft, atoms)
    if isinstance(blocks, EmptyIntersection):
        return Fraction(0)
    return _exact_sum(_chain(m, blocks, m.stationary).values())


def l2_distance_sq(
    m: MarkovMeasure, a: ShiftedConstraintSet, b: ShiftedConstraintSet
) -> Fraction:
    """||1_A - 1_B||_2^2 = mu(A) + mu(B) - 2 mu(A intersect B), exactly.

    A and B are given as shifted constraint sets; zero iff they agree up to
    a mu-null set.
    """
    mu_a = measure_of_constraints(m, a)
    mu_b = measure_of_constraints(m, b)
    mu_ab = measure_of_constraints(m, list(a) + list(b))
    return mu_a + mu_b - 2 * mu_ab


def mix_seed(*parts: int) -> int:
    """One sampling seed from a tuple of integers (base seed, loop indices)."""
    value = 0
    for part in parts:
        value = value * 1_000_003 + part + 1
    return value


def _draw_bounds(weights: Sequence[Fraction]) -> list[int]:
    """Integer thresholds so that a 64-bit uniform r selects the first index
    with r < ceil(cumsum * 2^64); identical to comparing Fraction(r, 2^64)
    against the exact cumulative sums."""
    bounds = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        bounds.append(math.ceil(acc * (1 << 64)))
    return bounds


# Uniforms per getrandbits call in a walk: bounds the draw buffers and the
# next-symbol table (alphabet size times this many entries) of one chunk.
_WALK_CHUNK = 1 << 14


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """n 64-bit uniforms from one getrandbits call: the little-endian words of
    getrandbits(64 * n) are exactly the values of n getrandbits(64) calls."""
    return np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")


def _pick(bounds: Sequence[int], r: np.ndarray) -> np.ndarray:
    """For each uniform, the first index i with r < bounds[i], else the last.

    A bound of 2^64 exceeds every uniform; dropping those keeps the rest in
    uint64 and leaves the first of them as the index searchsorted returns.
    """
    below = np.array([b for b in bounds if b < 1 << 64], dtype=np.uint64)
    return np.minimum(np.searchsorted(below, r, side="right"), len(bounds) - 1)


def _draw(rng: random.Random, weights: Sequence[Fraction]) -> int:
    """Exact categorical draw via a 64-bit uniform against Fraction cumsums."""
    return int(_pick(_draw_bounds(weights), _uniforms(rng, 1))[0])


def _walk(rng: random.Random, rows: Sequence[Sequence[int]], s: int, n: int) -> np.ndarray:
    """Symbol s and n chain steps after it, the successor of b drawn by bounds rows[b].

    Each chunk of uniforms becomes a next-symbol table (table[b][i] is the
    successor of b at step i), so the walk is one lookup per symbol. Symbols
    are stored as bytes whenever the alphabet fits in one.
    """
    narrow = len(rows) <= 256
    out = bytearray([s]) if narrow else [s]
    append = out.append
    for done in range(0, n, _WALK_CHUNK):
        r = _uniforms(rng, min(_WALK_CHUNK, n - done))
        table = [_pick(bounds, r) for bounds in rows]
        table = [t.astype(np.uint8).tobytes() if narrow else t.tolist() for t in table]
        for i in range(len(r)):
            s = table[s][i]
            append(s)
    return np.frombuffer(out, dtype=np.uint8) if narrow else np.array(out, dtype=np.int64)


def sample_point(m: MarkovMeasure, lo: int, hi: int, seed: int) -> SampledWindow:
    """A stationary sample of the chain on [lo, hi]; identical seeds reproduce.

    The symbol at lo is drawn from the stationary vector and the rest follow
    the transition rows, so the window is a stationary sample regardless of
    its placement.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    rng = random.Random(seed)
    first = _draw(rng, m.stationary)
    rows = [_draw_bounds(row) for row in m.transition]
    return SampledWindow(m.sft, lo, hi, _walk(rng, rows, first, hi - lo), seed)


def sample_point_in(
    m: MarkovMeasure, cell: CylinderUnion, lo: int, hi: int, seed: int
) -> SampledWindow:
    """A sample of the chain on [lo, hi] conditioned to lie in `cell`.

    The cell word is drawn with probability proportional to its weight, the
    window extends rightward by the transition rows and leftward by the
    exact time-reversed chain, so the result is a stationary sample
    conditioned on membership.
    """
    if cell.is_empty:
        raise ValueError("cannot sample inside an empty cell")
    if cell.is_full:
        return sample_point(m, lo, hi, seed)
    c_lo, c_hi = cell.support
    if lo > c_lo or hi < c_hi:
        raise ValueError("window must cover the cell support")
    weights = [m.word_weight(w) for w in cell.words]
    total = sum(weights, Fraction(0))
    if total == 0:
        raise ValueError("cell has measure zero")
    rng = random.Random(seed)
    word = cell.words[_draw(rng, [w / total for w in weights])]

    k = m.sft.alphabet_size
    pi = m.stationary
    forward = _walk(rng, [_draw_bounds(row) for row in m.transition], word[-1], hi - c_hi)
    reverse = [
        _draw_bounds(
            [(pi[a] * m.transition[a][b] / pi[b]) if pi[b] > 0 else Fraction(0) for a in range(k)]
        )
        for b in range(k)
    ]
    backward = _walk(rng, reverse, word[0], c_lo - lo)
    symbols = np.concatenate(
        [backward[:0:-1], np.array(word, dtype=forward.dtype), forward[1:]]
    )
    return SampledWindow(m.sft, lo, hi, symbols, seed)
