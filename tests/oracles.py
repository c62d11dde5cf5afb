"""Independent brute-force oracles.

Everything here works directly on enumerated legal words and raw transition
weights, never through the production resolution/chain/segment machinery it
is used to check.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from shiftlab.measures import MarkovMeasure
from shiftlab.symbolic import Sft, full_shift, point_in_set


def three_symbol_chain() -> MarkovMeasure:
    """A 3-symbol chain with zero entries at the start, middle and end of its
    rows, and transition denominators 2, 3, 4 and 6 where every panel chain
    has 1 or a power of 2."""
    return MarkovMeasure(
        full_shift(3), [["1/2", "1/3", "1/6"], ["0", "1/4", "3/4"], ["1", "0", "0"]]
    )


def stationary_oracle(rows) -> tuple:
    """pi with pi P = pi and sum(pi) = 1 for an irreducible chain of Fraction
    rows, by dense Gaussian elimination: full (k + 1)-entry row operations on
    (P^T - I | 0) stacked on the row of ones."""
    k = len(rows)
    mat = [[rows[j][i] - (1 if i == j else 0) for j in range(k)] + [Fraction(0)] for i in range(k)]
    mat.append([Fraction(1)] * k + [Fraction(1)])
    pivots = []
    r = 0
    for col in range(k):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append((r, col))
        r += 1
    if r < k:
        raise ValueError("reducible chain: stationary vector is not unique")
    pi = [Fraction(0)] * k
    for row, col in pivots:
        pi[col] = mat[row][k]
    return tuple(pi)


_LEGAL: dict = {}


def legal_words(sft: Sft, lo: int, hi: int) -> list:
    """All legal words over [lo, hi] in sorted order, grown one symbol at a time
    along the raw transition matrix, so the cost follows the number of legal
    words. Lists of up to 2^14 words are kept per (SFT, length) and must not
    be mutated."""
    words = _LEGAL.get((sft, hi - lo))
    if words is None:
        k = sft.alphabet_size
        words = [(a,) for a in range(k)]
        for _ in range(hi - lo):
            words = [w + (b,) for w in words for b in range(k) if sft.allowed[w[-1]][b]]
        if len(words) <= 1 << 14:
            if len(_LEGAL) >= 256:
                _LEGAL.clear()
            _LEGAL[sft, hi - lo] = words
    return words


def weighted_words(m: MarkovMeasure, lo: int, hi: int) -> list:
    """(word, weight) for every word over [lo, hi] of positive weight, grown one
    symbol at a time along the positive transitions from the symbols of
    positive stationary mass; the zero-weight legal words are never built."""
    k = m.sft.alphabet_size
    words = [((a,), m.stationary[a]) for a in range(k) if m.stationary[a]]
    for _ in range(hi - lo):
        words = [
            (w + (b,), x * m.transition[w[-1]][b])
            for w, x in words
            for b in range(k)
            if m.transition[w[-1]][b]
        ]
    return words


def word_weight(m: MarkovMeasure, word) -> Fraction:
    w = m.stationary[word[0]]
    for a, b in zip(word, word[1:]):
        w *= m.transition[a][b]
    return w


def _once(cache: dict, obj, build):
    """build(obj), computed once per object. Entries are keyed by id and hold
    the object, so its id is not reused while the entry lives."""
    hit = cache.get(id(obj))
    if hit is None:
        if len(cache) >= 4096:
            cache.clear()
        hit = cache[id(obj)] = (obj, build(obj))
    return hit[1]


_WORD_SETS: dict = {}


def _word_set(words: tuple) -> frozenset:
    """The frozenset of a block's words, built once per word tuple."""
    return _once(_WORD_SETS, words, frozenset)


def _constraint_window(constraint, word, lo):
    """Restrict `word` (anchored at lo) to the constraint's shifted support."""
    shift, setlike = constraint
    blocks = setlike.blocks()
    views = []
    for start, words in blocks:
        a = start + shift - lo
        views.append((word[a : a + len(words[0])], _word_set(words)))
    return views


def satisfies(constraint, word, lo) -> bool:
    shift, setlike = constraint
    if setlike.is_empty:
        return False
    # The whole space has no blocks, so every word satisfies it.
    return all(view in words for view, words in _constraint_window(constraint, word, lo))


def constraint_span(constraints):
    los, his = [], []
    for shift, setlike in constraints:
        for start, words in setlike.blocks():
            los.append(start + shift)
            his.append(start + shift + len(words[0]) - 1)
    if not los:
        return (0, 0)
    return (min(los), max(his))


def constraint_measure_oracle(m: MarkovMeasure, constraints) -> Fraction:
    """Sum the stationary weights of every covering word meeting all constraints."""
    if any(setlike.is_empty for _s, setlike in constraints):
        return Fraction(0)
    lo, hi = constraint_span(constraints)
    total = Fraction(0)
    for word, weight in weighted_words(m, lo, hi):
        if all(satisfies(c, word, lo) for c in constraints):
            total += weight
    return total


def gap_measures_oracle(m: MarkovMeasure, a, b, horizon: int) -> list[Fraction]:
    """[mu(a ∩ T^{-g} b) for 0 <= g < horizon]. Gaps where the shifted b starts
    inside a's window enumerate covering words; past it, each (word of a, word
    of b) pair is weighted through the Fraction matrix P^steps, raised by one
    plain product per gap."""
    if a.is_empty or b.is_empty:
        return [Fraction(0)] * horizon
    (a_lo, a_hi), (b_lo, b_hi) = constraint_span([(0, a)]), constraint_span([(0, b)])
    words_a = [(w, x) for w, x in weighted_words(m, a_lo, a_hi) if satisfies((0, a), w, a_lo)]
    words_b = [(w, x) for w, x in weighted_words(m, b_lo, b_hi) if satisfies((0, b), w, b_lo)]
    k = m.sft.alphabet_size
    power, power_steps = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)], 0
    out = []
    for g in range(horizon):
        steps = g + b_lo - a_hi
        if steps <= 0:
            out.append(constraint_measure_oracle(m, [(0, a), (g, b)]))
            continue
        while power_steps < steps:
            power = [
                [sum(power[i][c] * m.transition[c][j] for c in range(k)) for j in range(k)]
                for i in range(k)
            ]
            power_steps += 1
        out.append(sum(
            (x * power[u[-1]][v[0]] * y / m.stationary[v[0]]
             for u, x in words_a for v, y in words_b),
            Fraction(0),
        ))
    return out


def separation_count_oracle(m: MarkovMeasure, base, horizon: int, eps_sq: Fraction) -> int:
    """The greedy eps-separated subset of the shifts below the horizon: s is
    kept iff 2 mu(B) - 2 mu(B ∩ T^{-(s - r)} B) > eps_sq for every kept r,
    every measure a Fraction from `gap_measures_oracle`."""
    mu = constraint_measure_oracle(m, [(0, base)])
    gaps = gap_measures_oracle(m, base, base, horizon)
    reps: list[int] = []
    for s in range(horizon):
        if all(2 * mu - 2 * gaps[s - r] > eps_sq for r in reps):
            reps.append(s)
    return len(reps)


def satisfiable_oracle(sft: Sft, constraints) -> bool:
    """Nonemptiness of the constrained set by direct word enumeration."""
    if any(setlike.is_empty for _s, setlike in constraints):
        return False
    live = [c for c in constraints if c[1].blocks()]
    if not live:
        return True
    lo, hi = constraint_span(live)
    # Each block's (offset, width, word set) is built once and filed under
    # the offset of its last coordinate.
    ending: dict = {}
    for shift, setlike in live:
        for start, words in setlike.blocks():
            a = start + shift - lo
            ending.setdefault(a + len(words[0]) - 1, []).append((a, len(words[0]), _word_set(words)))
    k = sft.alphabet_size

    def grows(word) -> bool:
        """Some legal word over [lo, hi] starting with `word` satisfies every block.
        Words grow one symbol at a time along the raw transition matrix, and a
        prefix is dropped once a block that ends inside it fails."""
        p = len(word) - 1
        if not all(word[a : a + n] in words for a, n, words in ending.get(p, ())):
            return False
        if p == hi - lo:
            return True
        return any(grows(word + (b,)) for b in range(k) if sft.allowed[word[-1]][b])

    return any(grows((a,)) for a in range(k))


def independence_oracle(sft: Sft, a1, a2, i_set, e) -> bool:
    """Every assignment satisfiable, each decided by word enumeration."""
    shifts = sorted(set(i_set))
    if not shifts:
        return True
    targets = (a1, a2)
    e_constraints = [(0, e.at(s)) for s in shifts]
    for sigma in itertools.product((0, 1), repeat=len(shifts)):
        constraints = [(s, targets[c]) for s, c in zip(shifts, sigma)]
        if not satisfiable_oracle(sft, constraints + e_constraints):
            return False
    return True


def sweep_oracle(sft: Sft, placements, span: int, firsts):
    """One segment over [0, span] by enumeration, for every assignment at once.

    placements are (first coordinate, options), each option a tuple of
    (start, words) atoms inside the segment. For every choice of one option
    per placement, the last symbols of the legal words over [0, span] that
    start in `firsts` and match every chosen atom: the set of those sets, or
    None when some choice leaves no word.
    """
    words = [w for w in legal_words(sft, 0, span) if w[0] in firsts]
    out = set()
    for choice in itertools.product(*[options for _, options in placements]):
        atoms = [(start, frozenset(ws), len(ws[0])) for option in choice for start, ws in option]
        lasts = frozenset(w[-1] for w in words if all(w[a : a + n] in ws for a, ws, n in atoms))
        if not lasts:
            return None
        out.add(lasts)
    return frozenset(out)


def join_entropy_oracle(m: MarkovMeasure, atoms, shifts) -> list[Fraction]:
    """Joint-refinement atom measures by classifying covering words."""
    lo, hi = constraint_span([(s, a) for s in shifts for a in atoms])
    groups: dict[tuple, Fraction] = {}
    for word in legal_words(m.sft, lo, hi):
        pattern = []
        dead = False
        for s in shifts:
            hit = None
            for j, atom in enumerate(atoms):
                if satisfies((s, atom), word, lo):
                    hit = j
                    break
            if hit is None:
                dead = True
                break
            pattern.append(hit)
        if dead:
            continue
        key = tuple(pattern)
        groups[key] = groups.get(key, Fraction(0)) + word_weight(m, word)
    return [v for v in groups.values() if v > 0]


def entropy_oracle(measures) -> float:
    """-sum mu log mu in nats over the positive measures, the log of mu taken
    as log(numerator) - log(denominator)."""
    return -math.fsum(
        float(mu) * (math.log(mu.numerator) - math.log(mu.denominator)) for mu in measures if mu > 0
    )


def greedy_entropy_oracle(m: MarkovMeasure, atoms, length: int, horizon: int) -> tuple:
    """The greedy sequence from a fresh word-classifying join per trial: each
    step adds the shift whose join entropy beats the best so far by more than
    1e-12, so ties go to the smallest shift."""
    chosen: list = []
    for _ in range(length):
        best_s, best_h = None, None
        for s in range(horizon):
            if s in chosen:
                continue
            h = entropy_oracle(join_entropy_oracle(m, atoms, sorted(chosen + [s])))
            if best_h is None or h > best_h + 1e-12:
                best_s, best_h = s, h
        chosen = sorted(chosen + [best_s])
    return tuple(chosen)


def reach_oracle(sft: Sft, symbols, steps: int, forward: bool = True) -> frozenset:
    """The symbols reached from `symbols` in exactly `steps` steps, one step at a
    time along the raw transition matrix (against it when not forward)."""
    k = sft.alphabet_size
    current = frozenset(symbols)
    for _ in range(steps):
        current = frozenset(
            b for a in current for b in range(k) if (sft.allowed[a][b] if forward else sft.allowed[b][a])
        )
    return current


def realizable_oracle(sft: Sft, setlike, n: int) -> frozenset:
    """{x_n : x in setlike}: the symbol at n of every legal word over the hull of
    the blocks and n that `satisfies` the set. Every legal word extends to a point."""
    lo, hi = constraint_span([(0, setlike)])
    lo, hi = min(lo, n), max(hi, n)
    return frozenset(w[n - lo] for w in legal_words(sft, lo, hi) if satisfies((0, setlike), w, lo))


def orbit_density_oracle(point, setlike, n: int) -> Fraction:
    """Direct membership counting along the orbit (no vectorized paths)."""
    count = 0
    for s in range(n):
        if point_in_set(point, setlike, s):
            count += 1
    return Fraction(count, n)


# Reference sampler: the per-draw chain sampler, one rng.getrandbits(64) per
# symbol, that the bulk block-composed sampler in shiftlab.measures must match
# symbol for symbol.


def reference_bounds(weights) -> list:
    bounds = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        bounds.append(math.ceil(acc * (1 << 64)))
    return bounds


def reference_index(bounds, r: int) -> int:
    """The first index i with r < bounds[i], else the last index."""
    for i, b in enumerate(bounds):
        if r < b:
            return i
    return len(bounds) - 1


def reference_draw(rng: random.Random, bounds) -> int:
    return reference_index(bounds, rng.getrandbits(64))


_ROWS: dict = {}


def reference_rows(m: MarkovMeasure) -> tuple:
    """The bounds of m's transition rows, and of its time-reversed rows (row b
    is the law pi[a] P[a][b] / pi[b] of the symbol before b), built once per
    chain."""
    return _once(_ROWS, m, _reference_rows)


def _reference_rows(m: MarkovMeasure) -> tuple:
    pi, k = m.stationary, m.sft.alphabet_size
    forward = [reference_bounds(row) for row in m.transition]
    reverse = [
        reference_bounds(
            [(pi[a] * m.transition[a][b] / pi[b]) if pi[b] > 0 else Fraction(0) for a in range(k)]
        )
        for b in range(k)
    ]
    return forward, reverse


def sample_point_reference(m: MarkovMeasure, lo: int, hi: int, seed: int) -> tuple:
    """Symbols of measures.sample_point(m, lo, hi, seed), drawn one at a time."""
    rng = random.Random(seed)
    row_bounds, _ = reference_rows(m)
    symbols = [reference_draw(rng, reference_bounds(m.stationary))]
    for _ in range(hi - lo):
        symbols.append(reference_draw(rng, row_bounds[symbols[-1]]))
    return tuple(symbols)


def sample_point_in_reference(m: MarkovMeasure, cell, lo: int, hi: int, seed: int) -> tuple:
    """Symbols of measures.sample_point_in(m, cell, lo, hi, seed), drawn one at a time."""
    if cell.is_full:
        return sample_point_reference(m, lo, hi, seed)
    c_lo, c_hi = cell.support
    weights = [word_weight(m, w) for w in cell.words]
    total = sum(weights, Fraction(0))
    rng = random.Random(seed)
    word = list(cell.words[reference_draw(rng, reference_bounds([w / total for w in weights]))])
    row_bounds, reverse_bounds = reference_rows(m)
    for _ in range(hi - c_hi):
        word.append(reference_draw(rng, row_bounds[word[-1]]))
    prefix: list = []
    for _ in range(c_lo - lo):
        b = word[0] if not prefix else prefix[-1]
        prefix.append(reference_draw(rng, reverse_bounds[b]))
    return tuple(reversed(prefix)) + tuple(word)
