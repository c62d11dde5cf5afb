"""Exact Markov measures on subshifts of finite type.

Measures of cylinders come from mu([w]_i) = pi_{w_0} * prod P[w_j][w_{j+1}]
(independent of i by stationarity); measures of shifted intersections use the
same chain with exact transition-matrix powers across unconstrained gaps.
Inputs and results are fractions.Fraction; inside, the forward engine carries
integer numerators over one common denominator per pass and reduces once per
readout. Floats never enter set arithmetic.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ShiftLabError
from .symbolic import (
    CylinderUnion,
    SampledWindow,
    SetLike,
    Sft,
    ShiftedConstraintSet,
    Word,
    constraint_atoms,
    _cluster_constraints,
    _graph_covers,
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
    succ = [[j for j, v in enumerate(row) if v] for row in P]
    for i, row in enumerate(P):
        if sum(row[j] for j in succ[i]) != 1:
            raise ValueError(f"transition row {i} does not sum to 1 exactly")
        if any(row[j] < 0 for j in succ[i]):
            raise ValueError(f"transition row {i} has a negative entry")
    if not _graph_covers(succ, k):
        raise ValueError("reducible chain: stationary vector is not unique")

    # Solve (P^T - I) pi = 0 with sum(pi) = 1 by Gauss-Jordan elimination on
    # sparse rows (column -> nonzero entry, column k the right-hand side).
    # Each column pivots on its sparsest free row; pi is unique, so the pivot
    # order does not change it.
    rows: list[dict[int, Fraction]] = [{} for _ in range(k)]
    for j, row in enumerate(succ):
        for i in row:
            rows[i][j] = P[j][i]
    for i, row in enumerate(rows):
        row[i] = row.get(i, Fraction(0)) - 1
        if not row[i]:
            del row[i]
    rows.append(dict.fromkeys(range(k + 1), Fraction(1)))
    holders = [set() for _ in range(k + 1)]  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for col in row:
            holders[col].add(i)
    pivots: list[int] = []  # the pivot row of each column
    for col in range(k):
        free = holders[col].difference(pivots)
        if not free:
            continue
        r = min(free, key=lambda i: (len(rows[i]), i))
        inv = rows[r][col]
        pivot = rows[r] = {c: v / inv for c, v in rows[r].items()}
        for i in list(holders[col]):
            if i == r:
                continue
            row, factor = rows[i], rows[i][col]
            for c, v in pivot.items():
                x = row.get(c, 0) - factor * v
                if x:
                    row[c] = x
                    holders[c].add(i)
                else:
                    row.pop(c, None)
                    holders[c].discard(i)
        pivots.append(r)
    if len(pivots) < k:
        raise ValueError("reducible chain: stationary vector is not unique")
    pi = [rows[r].get(k, Fraction(0)) for r in pivots]
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
        # The chain in integer form: P = P_num / D and pi = pi_num / D_pi.
        self._d = math.lcm(*(v.denominator for row in P for v in row))
        self._d_pi = math.lcm(*(v.denominator for v in self.stationary))
        P_num = tuple(tuple(v.numerator * (self._d // v.denominator) for v in row) for row in P)
        self.pi_num = tuple(v.numerator * (self._d_pi // v.denominator) for v in self.stationary)
        identity = tuple(tuple(int(a == b) for b in range(k)) for a in range(k))
        self._pow_cache: dict[int, tuple[tuple[int, ...], ...]] = {0: identity, 1: P_num}
        self._thin_cache: dict[tuple[int, Fraction], tuple[Word, ...]] = {}

    def power_num(self, steps: int) -> tuple[tuple[int, ...], ...]:
        """The integer matrix P^steps * D^steps, by square-and-multiply; every power made is kept."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        result = self._pow_cache.get(steps)
        if result is None:
            half = self.power_num(steps // 2)
            result = _mat_mul(half, half)
            if steps % 2:
                result = _mat_mul(result, self._pow_cache[1])
            self._pow_cache[steps] = result
        return result

    def den(self, transitions: int) -> int:
        """The denominator D_pi * D^transitions of a pass that entered from pi."""
        return self._d_pi * self._d**transitions

    def thin_words(self, length: int, eps: Fraction) -> tuple[Word, ...]:
        """Legal words of the length with 0 < weight <= eps, in `legal_words` order."""
        if (length, eps) not in self._thin_cache:
            self._thin_cache[length, eps] = tuple(
                w for w in self.sft.legal_words(length) if 0 < self.word_weight(w) <= eps
            )
        return self._thin_cache[length, eps]

    def word_weight(self, word: Word) -> Fraction:
        """pi at the first symbol times the transition products along the word,
        reduced once."""
        return Fraction(self.pi_num[word[0]] * self.inner_num(word), self.den(len(word) - 1))

    def inner_num(self, word: Word) -> int:
        """The transition products along the word times D^(len(word) - 1)."""
        P_num = self._pow_cache[1]
        num = 1
        for a, b in zip(word, word[1:]):
            num *= P_num[a][b]
            if not num:
                break
        return num

    @functools.cached_property
    def stationary_bounds(self) -> list[int]:
        """The draw bounds of the stationary vector, for a window's first symbol."""
        return _numerator_bounds(self.pi_num, self._d_pi)

    @functools.cached_property
    def forward_plan(self) -> "_Plan":
        """The forward walk, compiled at the first sample."""
        return _plan([_numerator_bounds(row, self._d) for row in self._pow_cache[1]])

    @functools.cached_property
    def reverse_plan(self) -> "_Plan":
        """The walk of the time-reversed chain: row b is the law
        pi[a] P[a][b] / pi[b] of the symbol before b (pi > 0, the chain being
        irreducible)."""
        P_num, pi_num, k = self._pow_cache[1], self.pi_num, self.sft.alphabet_size
        return _plan([
            _numerator_bounds([pi_num[a] * P_num[a][b] for a in range(k)], pi_num[b] * self._d)
            for b in range(k)
        ])

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
    return tuple(tuple(sum(x[a][c] * y[c][b] for c in range(k)) for b in range(k)) for a in range(k))


def measure_of(m: MarkovMeasure, s: SetLike) -> Fraction:
    """Exact measure of a set-like: its blocks chained through the forward engine."""
    if s.is_empty:
        return Fraction(0)
    blocks = s.blocks()
    if not blocks:
        return Fraction(1)
    original = getattr(s, "_complement_of", None)
    if original is not None and len(original.words) < len(s.words):
        return 1 - measure_of(m, original)
    return _blocks_measure(m, blocks)


# The forward engine. A vector maps word keys to integer masses over one
# denominator m.den(e), e the transitions crossed since entering from pi:
# `_spread` enters words from the symbol masses at their first coordinate,
# `_collapse` keeps the last symbols, `_carry` crosses free coordinates by a
# power of P, and `_chain` runs the three through disjoint blocks.


def _spread(entry: Sequence[int], table) -> dict[int, int]:
    """entry[first] times the inner numerator of each (key, first, inner numerator)."""
    return {i: entry[a] * wt for i, a, wt in table if entry[a]}


def _collapse(v: dict[int, int], last: Sequence[int]) -> dict[int, int]:
    """The mass of a vector per last symbol of its words."""
    ends: dict[int, int] = {}
    for i, x in v.items():
        c = last[i]
        ends[c] = ends.get(c, 0) + x
    return ends


def _carry(ends: dict[int, int], power) -> list[int]:
    """Symbol masses after crossing free coordinates: last-symbol masses times
    the integer power of P (one transition per step of the power)."""
    out = None
    for c, x in ends.items():
        row = [x * p for p in power[c]]
        out = row if out is None else [o + y for o, y in zip(out, row)]
    return out or [0] * len(power)


def _chain(m: MarkovMeasure, blocks, entry: Sequence[int]) -> tuple[dict[int, int], int]:
    """Last-symbol masses, and the transitions they crossed, after disjoint
    (start, words) blocks sorted by start, entering the first block with the
    symbol masses `entry`."""
    prev_end = None
    for start, words in blocks:
        if prev_end is not None:
            entry = _carry(ends, m.power_num(start - prev_end))
        table = [(n, w[0], m.inner_num(w)) for n, w in enumerate(words)]
        ends = _collapse(_spread(entry, table), [w[-1] for w in words])
        prev_end = start + len(words[0]) - 1
    return ends, prev_end - blocks[0][0]


def _blocks_measure(m: MarkovMeasure, blocks) -> Fraction:
    """The measure of disjoint blocks entered from pi, reduced once."""
    ends, e = _chain(m, blocks, m.pi_num)
    return Fraction(sum(ends.values()), m.den(e))


def _gap_nums(m: MarkovMeasure, a: SetLike, b: SetLike, horizon: int) -> list[tuple[int, int]]:
    """[(num, den) with mu(a ∩ T^{-g} b) = num / den for 0 <= g < horizon],
    each den an unreduced m.den(...), from one pass over the gaps.

    While the shifted b starts inside a's span the two cluster into one block
    chain. Past it the measure is ends_a . P^steps . beta over one
    denominator, where ends_a are a's last-symbol masses (one chain) and
    beta[j] is the numerator of b's blocks entered at symbol j (one chain per
    symbol). r = P^steps . beta is carried one transition per gap.
    """
    atoms_a, atoms_b = (constraint_atoms([(0, s)], m.sft) for s in (a, b))
    if not atoms_a or not atoms_b:
        # One side is empty or the whole space, so one set contains the other.
        mu = min(measure_of(m, a), measure_of(m, b))
        return [(mu.numerator, mu.denominator)] * horizon
    blocks_a, blocks_b = (_cluster_constraints(m.sft, atoms) for atoms in (atoms_a, atoms_b))
    a_end = blocks_a[-1][0] + len(blocks_a[-1][1][0]) - 1
    b_start = blocks_b[0][0]
    # The first gap whose shifted b starts past a's span.
    split = min(horizon, max(0, a_end - b_start + 1))
    out = []
    for g in range(split):
        blocks = _cluster_constraints(m.sft, atoms_a + [(s + g, w) for s, w in atoms_b])
        if blocks is None:
            out.append((0, 1))
        else:
            ends, e = _chain(m, blocks, m.pi_num)
            out.append((sum(ends.values()), m.den(e)))
    if split == horizon:
        return out
    k = m.sft.alphabet_size
    ends, e_a = _chain(m, blocks_a, m.pi_num)
    ends_a = [ends.get(c, 0) for c in range(k)]
    units = [[int(c == j) for c in range(k)] for j in range(k)]
    beta = [sum(_chain(m, blocks_b, unit)[0].values()) for unit in units]
    steps = split + b_start - a_end
    b_span = blocks_b[-1][0] + len(blocks_b[-1][1][0]) - 1 - b_start
    r = [sum(map(operator.mul, row, beta)) for row in m.power_num(steps)]
    den = m.den(e_a + steps + b_span)
    P_num = m.power_num(1)
    for _ in range(split, horizon):
        out.append((sum(map(operator.mul, ends_a, r)), den))
        r = [sum(map(operator.mul, row, r)) for row in P_num]
        den *= m._d
    return out


def measure_of_constraints(m: MarkovMeasure, constraints: ShiftedConstraintSet) -> Fraction:
    """mu of the intersection of T^{-shift}(set) without enumerating it.

    Agrees exactly with measure_of(resolve_constraints(...)) whenever the
    latter enumerates; an empty constraint list measures the whole space.
    """
    atoms = constraint_atoms(constraints, m.sft)
    if atoms == []:
        return Fraction(1)
    blocks = None if atoms is None else _cluster_constraints(m.sft, atoms)
    return Fraction(0) if blocks is None else _blocks_measure(m, blocks)


def mix_seed(*parts: int) -> int:
    """One sampling seed from a tuple of integers (base seed, loop indices)."""
    value = 0
    for part in parts:
        value = value * 1_000_003 + part + 1
    return value


def _numerator_bounds(nums: Sequence[int], den: int) -> list[int]:
    """Integer thresholds so that a 64-bit uniform r selects the first index
    with r < ceil(cumsum * 2^64) of the weights nums[i] / den; identical to
    comparing Fraction(r, 2^64) against the exact cumulative sums."""
    bounds = []
    acc = 0
    for x in nums:
        acc += x
        bounds.append(-(-(acc << 64) // den))
    return bounds


# Uniforms per generator call in a walk: bounds the draw buffers and the
# successor table (alphabet size times this many entries) of one chunk.
_WALK_CHUNK = 1 << 14

# Steps per block of a walk's path (see `_path`).
_BLOCK = 16


@functools.cache
def _bits():
    """The one numpy MT19937 behind every sample, built at the first sample so
    that `import shiftlab` does not import numpy.random. Its seeding is never
    read: `_stream` overwrites the whole state before every sample, so no
    state carries from one sample to the next (samples run one at a time;
    building a generator per sample would cost more than a short walk)."""
    from numpy.random import MT19937

    return MT19937(0)


def _stream(seed: int):
    """The generator set to random.Random(seed)'s state: the same Mersenne
    Twister (Matsumoto & Nishimura 1998), so it yields the same 32-bit words
    as random.Random(seed).getrandbits(32), at numpy speed."""
    state = random.Random(seed).getstate()[1]
    bits = _bits()
    bits.state = {"bit_generator": "MT19937", "state": {"key": state[:-1], "pos": state[-1]}}
    return bits


def _uniforms(bits, n: int) -> np.ndarray:
    """n 64-bit uniforms: 2n 32-bit words taken two at a time, low word first,
    which are exactly the values of n random.Random.getrandbits(64) calls."""
    return bits.random_raw(2 * n).astype("<u4").view("<u8")


def _thresholds(bounds: Sequence[int], dtype) -> list[tuple]:
    """The pick of `bounds` compiled for `_pick`: (threshold, increment) pairs.

    The first index i with r < bounds[i], else the last, is the number of
    bounds at or below r, capped at the last index, so it is summed from one
    comparison per distinct bound below 2^64, each adding the bounds it
    stands for (a zero weight repeats the bound before it, and a bound of
    2^64 exceeds every uniform).
    """
    last = len(bounds) - 1
    pairs = []
    passed = 0
    for b in sorted({b for b in bounds if b < 1 << 64}):
        count = min(bisect.bisect_right(bounds, b), last)
        pairs.append((np.uint64(b), dtype.type(count - passed)))
        passed = count
    return pairs


def _pick(thresholds: Sequence[tuple], r: np.ndarray, dtype) -> np.ndarray:
    """For each uniform, the index its compiled bounds select."""
    index = np.zeros(len(r), dtype=dtype)
    for b, step in thresholds:
        index += (r >= b) * step
    return index


def _draw_index(bits, bounds: Sequence[int]) -> int:
    """The first index i with r < bounds[i], else the last, for one 64-bit uniform r."""
    return min(bisect.bisect_right(bounds, int(_uniforms(bits, 1)[0])), len(bounds) - 1)


class _Plan(NamedTuple):
    """A chain direction's draw rows, compiled once for `_walk`."""

    dtype: np.dtype  # of the symbols: bytes whenever the alphabet fits in one
    picks: tuple[list[tuple], ...]  # each row's `_thresholds`
    successor: Optional[tuple[int, ...]]  # each row's one successor, when every row has one
    one_law: bool  # every row draws by the same bounds


def _plan(rows: Sequence[Sequence[int]]) -> _Plan:
    """Compile draw-bound rows (row b the law of the symbol after b)."""
    dtype = np.min_scalar_type(len(rows) - 1)
    picks = tuple(_thresholds(bounds, dtype) for bounds in rows)
    edges = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    ends = [_pick(pick, edges, dtype).tolist() for pick in picks]
    successor = tuple(a for a, _ in ends) if all(a == b for a, b in ends) else None
    return _Plan(dtype, picks, successor, all(bounds == rows[0] for bounds in rows))


def _path(table: np.ndarray, s: int) -> np.ndarray:
    """The c symbols after s, where step i takes symbol b to table[b, i].

    The steps are cut into blocks of `_BLOCK`; the last block is padded with
    steps to symbol 0, whose output and end symbol are never read. Node
    b * span + i stands for symbol b before step i, and all k start symbols of
    every block advance together, one gather per step. The maps from a block's
    start symbol to its end symbol form a table of the same shape, one column
    per block, so this routine chains them until one block is left; the path
    is then one gather from each block's start.
    """
    k, c = table.shape
    blocks = -(-c // _BLOCK)
    span = blocks * _BLOCK
    steps = np.zeros((k, span), dtype=table.dtype)
    steps[:, :c] = table
    symbol_after = steps.reshape(-1)
    node_after = steps.astype(np.intp)
    node_after *= span
    node_after += np.arange(1, span + 1)
    node_after = node_after.reshape(-1)
    nodes = np.empty((_BLOCK, k, blocks), dtype=np.intp)
    nodes[0] = np.arange(0, k * span, span)[:, None] + np.arange(0, span, _BLOCK)
    for t in range(1, _BLOCK):
        nodes[t] = node_after[nodes[t - 1]]
    starts = np.array([s])
    if blocks > 1:
        starts = np.concatenate((starts, _path(symbol_after[nodes[-1]], s)[:-1]))
    visited = nodes.reshape(_BLOCK, -1)[:, starts * blocks + np.arange(blocks)]
    return symbol_after[visited.T.reshape(-1)[:c]]


def _walk(bits, plan: _Plan, s: int, n: int) -> np.ndarray:
    """Symbol s and n chain steps after it, each successor drawn by the plan's rows.

    The plan decides how the path is read. When every row has one successor
    (it picks the same symbol for the least and the greatest uniform), the
    path is the orbit of s, walked until a symbol repeats and then tiled; the
    stream still skips the n uniforms the steps would draw. When every row is
    one law, the steps are that row's picks. Otherwise each chunk of uniforms
    becomes a successor table (row b holds the symbol after b at every step
    of the chunk), read by block composition in `_path`.
    """
    if plan.successor is not None:
        successor = plan.successor
        bits.random_raw(2 * n, output=False)
        orbit = [s]
        while successor[orbit[-1]] not in orbit:
            orbit.append(successor[orbit[-1]])
        loop = orbit.index(successor[orbit[-1]])
        head = np.array(orbit, dtype=plan.dtype)
        cycle = np.tile(head[loop:], -(-(n + 1) // (len(orbit) - loop)))
        return np.concatenate((head[:loop], cycle))[: n + 1]
    parts = [np.array([s], dtype=plan.dtype)]
    for done in range(0, n, _WALK_CHUNK):
        r = _uniforms(bits, min(_WALK_CHUNK, n - done))
        if plan.one_law:
            parts.append(_pick(plan.picks[0], r, plan.dtype))
        else:
            parts.append(_path(np.stack([_pick(pick, r, plan.dtype) for pick in plan.picks]), s))
            s = int(parts[-1][-1])
    return np.concatenate(parts)


def sample_point(m: MarkovMeasure, lo: int, hi: int, seed: int) -> SampledWindow:
    """A stationary sample of the chain on [lo, hi]; identical seeds reproduce.

    The symbol at lo is drawn from the stationary vector and the rest follow
    the transition rows, so the window is a stationary sample regardless of
    its placement.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    bits = _stream(seed)
    first = _draw_index(bits, m.stationary_bounds)
    return SampledWindow(m.sft, lo, hi, _walk(bits, m.forward_plan, first, hi - lo), seed)


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
    # The cell's words share one length, hence one weight denominator.
    nums = [m.pi_num[w[0]] * m.inner_num(w) for w in cell.words]
    total = sum(nums)
    if total == 0:
        raise ValueError("cell has measure zero")
    bits = _stream(seed)
    word = cell.words[_draw_index(bits, _numerator_bounds(nums, total))]

    forward = _walk(bits, m.forward_plan, word[-1], hi - c_hi)
    backward = _walk(bits, m.reverse_plan, word[0], c_lo - lo)
    symbols = np.concatenate(
        [backward[:0:-1], np.array(word, dtype=forward.dtype), forward[1:]]
    )
    return SampledWindow(m.sft, lo, hi, symbols, seed)
