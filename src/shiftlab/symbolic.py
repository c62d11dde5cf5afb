"""Subshifts of finite type and their finitely-determined subsets.

Conventions used throughout the package:

* the shift acts by ``(T^k x)_n = x_{n+k}``, so ``T^{-k} [w]_i = [w]_{i+k}``;
* the metric is ``d(x, y) = 2^{-min{|n| : x_n != y_n}}``;
* a cylinder ``[w]_i`` is the set of points carrying the word ``w`` on
  coordinates ``i, i+1, ..., i+len(w)-1``.

All set-level computations are exact: a normalized :class:`CylinderUnion`
is a set of full-length legal words over one support interval, and
:func:`resolve_constraints` either enumerates the intersection or returns
an exact block form with symbolic gaps.

Every set-like (a :class:`CylinderUnion`, of which a cylinder is the
one-word case, or a :class:`BridgedBlocks`) answers two questions, and
nothing else reads its class: ``is_empty``, and ``blocks()``, its
constraint atoms ``(start, words)`` with each block's words sorted. A
point lies in the set iff its window over every block is one of that
block's words, so ``blocks() == ()`` is the whole space; an empty set is
told apart by ``is_empty`` alone. Measure (``measures.measure_of``),
membership (:func:`point_in_set`) and resolution
(:func:`constraint_atoms`) are written once over these two.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import WindowExceededError

Word = tuple[int, ...]

# Enumeration guards for exact normalization; beyond these the block form
# (BridgedBlocks) is kept instead of a single-support word list.
GAP_CAP = 14
WORD_BUDGET = 1 << 20


def parse_word(spec: Union[str, Sequence[int]]) -> Word:
    """Turn "0110" or [0, 1, 1, 0] into a symbol tuple."""
    if isinstance(spec, str):
        return tuple(int(ch) for ch in spec)
    return tuple(int(s) for s in spec)


def format_word(word: Word) -> str:
    return "".join(str(s) for s in word)


class Sft:
    """A subshift of finite type over symbols 0..k-1 with an allowed-transition matrix.

    Every symbol must have at least one allowed successor and one allowed
    predecessor, so every internally consistent word extends to a bi-infinite
    point and nonempty cylinders are exactly the consistent ones.
    """

    def __init__(self, alphabet_size: int, allowed: Sequence[Sequence[bool]]):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be >= 1")
        k = alphabet_size
        mat = tuple(tuple(bool(v) for v in row) for row in allowed)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError("allowed must be a k x k matrix")
        self.alphabet_size = k
        self.allowed = mat
        self._succ = tuple(tuple(b for b in range(k) if mat[a][b]) for a in range(k))
        self._pred = tuple(tuple(a for a in range(k) if mat[a][b]) for b in range(k))
        for a in range(k):
            if not self._succ[a]:
                raise ValueError(f"symbol {a} has no allowed successor")
            if not self._pred[a]:
                raise ValueError(f"symbol {a} has no allowed predecessor")
        self._orbits: dict[tuple[frozenset[int], bool], tuple[tuple[frozenset[int], ...], int]] = {}

    # -- basic structure -------------------------------------------------

    @functools.cached_property
    def _allowed_pairs(self) -> np.ndarray:
        """The allowed matrix flattened, read-only: entry a * k + b says whether a -> b is allowed."""
        pairs = np.array(self.allowed, dtype=bool).reshape(-1)
        pairs.flags.writeable = False
        return pairs

    def successors(self, a: int) -> tuple[int, ...]:
        return self._succ[a]

    def predecessors(self, b: int) -> tuple[int, ...]:
        return self._pred[b]

    def word_allowed(self, word: Word) -> bool:
        if any(not (0 <= s < self.alphabet_size) for s in word):
            raise ValueError(f"symbol out of range in word {word!r}")
        return all(self.allowed[a][b] for a, b in zip(word, word[1:]))

    def legal_words(self, length: int) -> list[Word]:
        """All internally consistent words of the given length, in sorted order."""
        if length <= 0:
            raise ValueError("length must be positive")
        words = [(a,) for a in range(self.alphabet_size)]
        for _ in range(length - 1):
            words = [w + (b,) for w in words for b in self._succ[w[-1]]]
        return words

    # -- reachability ----------------------------------------------------

    def orbit(self, symbols, forward: bool = True) -> tuple[tuple[frozenset[int], ...], int]:
        """The sets reached from `symbols` after 0, 1, 2, ... steps, and the index where they cycle.

        Steps follow successors, or predecessors when not `forward`. The sets
        are listed up to the first repeat, so the set after i >= len(sets)
        steps is sets[start + (i - start) % (len(sets) - start)].
        """
        key = (frozenset(symbols), forward)
        hit = self._orbits.get(key)
        if hit is None:
            adj = self._succ if forward else self._pred
            index: dict[frozenset[int], int] = {}
            current = key[0]
            while current not in index:
                index[current] = len(index)
                current = frozenset([b for a in current for b in adj[a]])
            hit = self._orbits[key] = (tuple(index), index[current])
        return hit

    def reach(self, symbols, steps: int, forward: bool = True) -> frozenset[int]:
        """The symbols reached from `symbols` in exactly `steps` steps (read off the orbit)."""
        if steps < 0:
            raise ValueError("steps must be >= 0")
        sets, start = self.orbit(symbols, forward)
        if steps >= len(sets):
            steps = start + (steps - start) % (len(sets) - start)
        return sets[steps]

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sft)
            and self.alphabet_size == other.alphabet_size
            and self.allowed == other.allowed
        )

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.allowed))

    def __repr__(self) -> str:
        return f"Sft(k={self.alphabet_size})"


def _graph_covers(adj, k: int) -> bool:
    """Every vertex reaches every vertex along `adj`: strong connectivity, by one DFS per vertex."""
    for start in range(k):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != k:
            return False
    return True


def full_shift(alphabet_size: int) -> Sft:
    return Sft(alphabet_size, [[True] * alphabet_size for _ in range(alphabet_size)])


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class EventuallyPeriodic:
    """A bi-infinite point: left-periodic tail, explicit core at coordinate 0, right-periodic tail.

    Evaluation for the unshifted point: coordinates [0, len(core)) read the
    core, coordinates >= len(core) cycle through right_period, negative
    coordinates cycle through left_period (left_period occupies [-L, -1],
    repeating leftward). Shifts are tracked as a lazy offset, which keeps the
    action law exact.
    """

    def __init__(self, sft: Sft, left_period, core, right_period, offset: int = 0):
        left = parse_word(left_period)
        mid = parse_word(core)
        right = parse_word(right_period)
        if not left or not right:
            raise ValueError("periodic tails must be nonempty")
        self.sft = sft
        self.left = left
        self.core = mid
        self.right = right
        self.offset = offset
        self._validate()

    def _validate(self):
        sft = self.sft
        for word in (self.left, self.core, self.right):
            if word and not sft.word_allowed(word):
                raise ValueError(f"word {word!r} violates the transition matrix")
        if not sft.allowed[self.left[-1]][self.left[0]]:
            raise ValueError("left period does not wrap")
        if not sft.allowed[self.right[-1]][self.right[0]]:
            raise ValueError("right period does not wrap")
        first_right = self.core[0] if self.core else self.right[0]
        if not sft.allowed[self.left[-1]][first_right]:
            raise ValueError("junction left->core/right not allowed")
        if self.core and not sft.allowed[self.core[-1]][self.right[0]]:
            raise ValueError("junction core->right not allowed")

    def eval(self, n: int) -> int:
        m = n + self.offset
        c = len(self.core)
        if 0 <= m < c:
            return self.core[m]
        if m >= c:
            return self.right[(m - c) % len(self.right)]
        return self.left[m % len(self.left)]

    def shifted(self, k: int) -> "EventuallyPeriodic":
        p = EventuallyPeriodic.__new__(EventuallyPeriodic)
        p.sft = self.sft
        p.left = self.left
        p.core = self.core
        p.right = self.right
        p.offset = self.offset + k
        return p

    def tail_period(self) -> int:
        return len(self.right)

    def core_end(self) -> int:
        """First coordinate from which evaluation is purely right-periodic."""
        return len(self.core) - self.offset

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventuallyPeriodic):
            return NotImplemented
        return self.sft == other.sft and points_provably_equal(self, other)

    def __repr__(self) -> str:
        return (
            f"EventuallyPeriodic({format_word(self.left)}|{format_word(self.core)}"
            f"|{format_word(self.right)}, offset={self.offset})"
        )


class SampledWindow:
    """A point known only on a finite coordinate window; evaluation outside raises.

    `symbols` is a word spec (see parse_word) or an integer numpy array. The
    window keeps only a read-only array (one byte a symbol from the sampler);
    `.symbols` builds the tuple of ints on demand.
    """

    def __init__(self, sft: Sft, lo: int, hi: int, symbols, seed: int, offset: int = 0):
        if isinstance(symbols, np.ndarray):
            if symbols.dtype.kind not in "iu":
                raise ValueError(f"window symbols must be integers, got {symbols.dtype}")
            window = symbols.copy()
        else:
            window = np.array(parse_word(symbols), dtype=np.int64)
        if hi - lo + 1 != len(window):
            raise ValueError("window length does not match [lo, hi]")
        k = sft.alphabet_size
        if len(window) and (window.min() < 0 or window.max() >= k):
            raise ValueError("window symbol out of range")
        # One lookup of the coded pairs a * k + b, in a dtype that holds k * k.
        pairs = window[:-1].astype(np.min_scalar_type(k * k - 1))
        pairs *= k
        np.add(pairs, window[1:], out=pairs, casting="unsafe")  # symbols are in range
        if not np.take(sft._allowed_pairs, pairs).all():
            raise ValueError("window violates the transition matrix")
        window.flags.writeable = False
        self.sft = sft
        self.lo = lo
        self.hi = hi
        self.window = window
        self.seed = seed
        self.offset = offset

    def eval(self, n: int) -> int:
        m = n + self.offset
        if not (self.lo <= m <= self.hi):
            raise WindowExceededError(
                f"coordinate {n} (absolute {m}) outside sampled window [{self.lo}, {self.hi}]"
            )
        return self.window.item(m - self.lo)

    def shifted(self, k: int) -> "SampledWindow":
        p = SampledWindow.__new__(SampledWindow)
        p.sft = self.sft
        p.lo = self.lo
        p.hi = self.hi
        p.window = self.window
        p.seed = self.seed
        p.offset = self.offset + k
        return p

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.window.tolist())

    def evaluable(self) -> tuple[int, int]:
        """Coordinate range on which eval() is defined, in shifted coordinates."""
        return (self.lo - self.offset, self.hi - self.offset)

    def __repr__(self) -> str:
        return f"SampledWindow([{self.lo},{self.hi}], seed={self.seed}, offset={self.offset})"


PointRep = Union[EventuallyPeriodic, SampledWindow]


def shift_point(p: PointRep, k: int) -> PointRep:
    """The action T^k: (T^k p)_n = p_{n+k}."""
    return p.shifted(k)


def point_window(p: PointRep, lo: int, hi: int) -> np.ndarray:
    """Materialize p on [lo, hi] as a numpy array (for orbit counting)."""
    if hi < lo:
        return np.zeros(0, dtype=np.int16)
    if isinstance(p, SampledWindow):
        a, b = p.evaluable()
        if lo < a or hi > b:
            raise WindowExceededError(
                f"requested [{lo}, {hi}] outside evaluable [{a}, {b}]"
            )
        start = lo + p.offset - p.lo
        return p.window[start : start + (hi - lo + 1)]
    return np.asarray([p.eval(n) for n in range(lo, hi + 1)], dtype=np.int16)


def points_provably_equal(x: PointRep, y: PointRep) -> bool:
    """Decidable extensional equality on the representable points.

    Two eventually periodic points are compared on a window wide enough to
    pin both tails; sampled windows only compare equal when they are the
    same partial point (same evaluable range and symbols).
    """
    if isinstance(x, EventuallyPeriodic) and isinstance(y, EventuallyPeriodic):
        if x.sft != y.sft:
            return False
        left = math.lcm(len(x.left), len(y.left))
        right = math.lcm(len(x.right), len(y.right))
        lo = min(-x.offset, -y.offset, 0) - left
        hi = max(len(x.core) - x.offset, len(y.core) - y.offset, 0) + right
        return all(x.eval(n) == y.eval(n) for n in range(lo, hi + 1))
    if isinstance(x, SampledWindow) and isinstance(y, SampledWindow):
        return (
            x.sft == y.sft
            and x.evaluable() == y.evaluable()
            and np.array_equal(x.window, y.window)
        )
    return False


# ---------------------------------------------------------------------------
# Cylinders and unions
# ---------------------------------------------------------------------------


class CylinderUnion:
    """A finite union of cylinders in canonical form.

    Normal form: a single support interval and the sorted set of full-length
    legal words whose cylinders make up the set. The support is minimal
    (free boundary coordinates are trimmed), the empty set is ``words == ()``
    and the whole space is all single symbols at coordinate 0, so equal sets
    have identical normal forms.
    """

    def __init__(self, sft: Sft, cylinders: Iterable[tuple[int, Union[str, Sequence[int]]]]):
        """The union of the cylinders [word]_start over (start, word) pairs.

        An empty word or an out-of-range symbol raises ValueError; an illegal
        word is an empty cylinder and drops out.
        """
        live = []
        for start, word in cylinders:
            w = parse_word(word)
            if not w:
                raise ValueError("cylinder word must be nonempty")
            if sft.word_allowed(w):
                live.append((start, w))
        words: set[Word] = set()
        lo = min((start for start, _ in live), default=0)
        hi = max((start + len(w) - 1 for start, w in live), default=0)
        for start, w in live:
            words.update(_extensions(sft, start, w, lo, hi))
            _check_budget(len(words), lo, hi)
        self._normalize(sft, lo, words)

    @classmethod
    def _from_normal(cls, sft: Sft, start: int, words: Iterable[Word]) -> "CylinderUnion":
        u = cls.__new__(cls)
        u._normalize(sft, start, set(words))
        return u

    def _normalize(self, sft: Sft, start: int, words: set[Word]) -> None:
        """Set the normal form of the union of `words`, all of one length, placed at `start`."""
        self.sft = sft
        if not words:
            self.start = 0
            self.words: tuple[Word, ...] = ()
            return
        self.start, trimmed = _trim(sft, start, words)
        self.words = tuple(sorted(trimmed))

    # -- structure -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.words

    @property
    def is_full(self) -> bool:
        if not self.words:
            return False
        return len(self.words[0]) == 1 and len(self.words) == self.sft.alphabet_size

    @property
    def support(self) -> Union[tuple[int, int], None]:
        if self.is_empty:
            return None
        return (self.start, self.start + len(self.words[0]) - 1)

    @property
    def width(self) -> int:
        return 0 if self.is_empty else len(self.words[0])

    def blocks(self) -> tuple[tuple[int, tuple[Word, ...]], ...]:
        if self.is_empty or self.is_full:
            return ()
        return ((self.start, self.words),)

    @property
    def bridged(self) -> bool:
        return False

    # -- set algebra -------------------------------------------------------

    def translate(self, delta: int) -> "CylinderUnion":
        if self.is_empty or self.is_full:
            return self  # translation-invariant canonical forms
        u = CylinderUnion.__new__(CylinderUnion)
        u.sft = self.sft
        u.start = self.start + delta
        u.words = self.words
        return u

    def complement(self) -> "CylinderUnion":
        if self.is_empty:
            return whole_space(self.sft)
        mine = set(self.words)  # a free boundary coordinate of the complement is free in self: no trim
        u = CylinderUnion.__new__(CylinderUnion)
        u.sft, u.words = self.sft, tuple([w for w in self.sft.legal_words(self.width) if w not in mine])
        u.start = self.start if u.words else 0
        u._complement_of = self  # measure_of may then take 1 - mu(self) instead of summing u
        return u

    def union(self, other: "CylinderUnion") -> "CylinderUnion":
        if self.sft != other.sft:
            raise ValueError("union across different subshifts")
        return CylinderUnion(self.sft, [(u.start, w) for u in (self, other) for w in u.words])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CylinderUnion)
            and self.sft == other.sft
            and self.start == other.start
            and self.words == other.words
        )

    def __hash__(self) -> int:
        return hash((self.sft, self.start, self.words))

    def __repr__(self) -> str:
        if self.is_empty:
            return "CylinderUnion(empty)"
        if self.is_full:
            return "CylinderUnion(full)"
        ws = ",".join(format_word(w) for w in self.words[:4])
        more = "..." if len(self.words) > 4 else ""
        return f"CylinderUnion(@{self.start}: {ws}{more})"


def whole_space(sft: Sft) -> CylinderUnion:
    return CylinderUnion._from_normal(
        sft, 0, [(a,) for a in range(sft.alphabet_size)]
    )


def cylinder(sft: Sft, start: int, word) -> CylinderUnion:
    """[word]_start: the points carrying `word` from coordinate `start` on."""
    return CylinderUnion(sft, [(start, word)])


def _check_budget(count: int, lo: int, hi: int) -> None:
    if count > WORD_BUDGET:
        raise ValueError(
            f"union too wide for exact normalization (> {WORD_BUDGET} words over [{lo}, {hi}])"
        )


def _path_count(symbol: int, steps: int, step) -> int:
    """The number of walks of `steps` steps from `symbol` along `step` (successors or predecessors)."""
    counts = {symbol: 1}
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for a, n in counts.items():
            for b in step(a):
                nxt[b] = nxt.get(b, 0) + n
        counts = nxt
    return sum(counts.values())


def _extensions(sft: Sft, start: int, word: Word, lo: int, hi: int) -> Iterable[Word]:
    """All legal words over [lo, hi] that carry `word` from `start` on.

    More than WORD_BUDGET of them raise before any is listed: each is a
    distinct word of the union being normalized.
    """
    n_left, n_right = start - lo, hi - start - len(word) + 1
    count = _path_count(word[0], n_left, sft.predecessors) * _path_count(word[-1], n_right, sft.successors)
    _check_budget(count, lo, hi)
    lefts: list[Word] = [()]
    for _ in range(n_left):
        lefts = [(a,) + w for w in lefts for a in sft.predecessors((w + word)[0])]
    rights: list[Word] = [()]
    for _ in range(n_right):
        rights = [w + (b,) for w in rights for b in sft.successors((word + w)[-1])]
    for left in lefts:
        for right in rights:
            yield left + word + right


def _trim(sft: Sft, start: int, words: set[Word]) -> tuple[int, set[Word]]:
    """Minimal-support form: strip boundary coordinates that are free."""
    width = len(next(iter(words)))
    while width > 1:
        by_prefix: dict[Word, set[int]] = {}
        for w in words:
            by_prefix.setdefault(w[:-1], set()).add(w[-1])
        if all(
            symbols == set(sft.successors(prefix[-1]))
            for prefix, symbols in by_prefix.items()
        ):
            words = set(by_prefix)
            width -= 1
            continue
        by_suffix: dict[Word, set[int]] = {}
        for w in words:
            by_suffix.setdefault(w[1:], set()).add(w[0])
        if all(
            symbols == set(sft.predecessors(suffix[0]))
            for suffix, symbols in by_suffix.items()
        ):
            words = set(by_suffix)
            start += 1
            width -= 1
            continue
        break
    if width == 1 and len(words) == sft.alphabet_size:
        start = 0
    return start, words


# ---------------------------------------------------------------------------
# Shifted constraint sets and their exact resolution
# ---------------------------------------------------------------------------

SetLike = Union[CylinderUnion, "BridgedBlocks"]
Constraint = tuple[int, SetLike]
ShiftedConstraintSet = Sequence[Constraint]


class BridgedBlocks:
    """Exact intersection in block form: constrained intervals with free gaps.

    A point belongs to the set iff its window over every block interval is
    one of that block's words; the gaps carry no constraint beyond subshift
    legality. Word lists are filtered so every listed word occurs in some
    point of the set, and cross-gap reachability has been verified, so the
    set is nonempty by construction.
    """

    def __init__(self, sft: Sft, blocks: Sequence[tuple[int, tuple[Word, ...]]]):
        self.sft = sft
        self._blocks = tuple((s, tuple(sorted(set(ws)))) for s, ws in blocks)
        if any(not ws for _, ws in self._blocks):
            raise ValueError("BridgedBlocks with an empty block")

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def bridged(self) -> bool:
        return True

    def blocks(self) -> tuple[tuple[int, tuple[Word, ...]], ...]:
        return self._blocks

    @property
    def support(self) -> tuple[int, int]:
        first, last = self._blocks[0], self._blocks[-1]
        return (first[0], last[0] + len(last[1][0]) - 1)

    def __repr__(self) -> str:
        return f"BridgedBlocks({len(self._blocks)} blocks over {self.support})"


def constraint_atoms(constraints: ShiftedConstraintSet, sft: Sft):
    """The shifted blocks of every constraint, T^{-k}[w]_i = [w]_{i+k}; None if a set is empty."""
    atoms: list[tuple[int, tuple[Word, ...]]] = []
    for shift, setlike in constraints:
        if setlike.sft != sft:
            raise ValueError("constraint set belongs to a different subshift")
        if setlike.is_empty:
            return None
        atoms.extend((start + shift, words) for start, words in setlike.blocks())
    return atoms


def compile_atom(words, k: int) -> tuple[tuple[int, ...], ...]:
    """The minimal acyclic DFA of a list of equal-length words over symbols 0..k-1.

    Its states are the residual languages {v : u + v is a word} of the
    words' proper prefixes u: rows[state][sym] is the next state id, or -1
    when no word continues; state 0 reads the first symbol, and a word's last
    symbol leads back to 0. Prefixes with equal futures share a state, so a
    complement atom needs few. Built bottom-up from the sorted words, equal
    rows being one state (Daciuk, Mihov, Watson & Watson, Comput. Linguist.
    2000).
    """
    words = sorted(words)
    ids: dict[tuple[int, ...], int] = {}  # the rows of the states after 0, in id order
    return (_residual_row(words, 0, len(words), 0, k, ids), *ids)


def _residual_row(words, lo: int, hi: int, d: int, k: int, ids: dict) -> tuple[int, ...]:
    """The row of the residual of words[lo:hi], which share their first d symbols.

    Not a closure (nor is `ConstraintAutomaton._walk`): a recursive closure is
    a reference cycle, and that garbage ran the cyclic collector several times
    as often in the independence checker's searches."""
    out = [-1] * k
    while lo < hi:
        sym, end = words[lo][d], lo + 1
        while end < hi and words[end][d] == sym:
            end += 1
        if d + 1 == len(words[lo]):
            out[sym] = 0
        else:
            out[sym] = ids.setdefault(_residual_row(words, lo, end, d + 1, k, ids), len(ids) + 1)
        lo = end
    return tuple(out)


def step(sft: Sft, prev, states, active, symbols=None) -> list:
    """The (symbol, states) steps of a configuration: the one transition rule.

    A configuration is (previous symbol, per-slot state ids of compiled
    atoms); `active` lists the (slot, rows) of the atoms covering the
    coordinate, each stepped by one table lookup per symbol, and a symbol
    that leaves some atom's words is no step. prev is None at the first
    coordinate, which reads any of `symbols` (default: every symbol).
    """
    if prev is not None:
        symbols = sft.successors(prev)
    elif symbols is None:
        symbols = range(sft.alphabet_size)
    if not active:
        return [(sym, states) for sym in symbols]
    out = []
    for sym in symbols:
        nxt = list(states)
        for i, rows in active:
            state = nxt[i] = rows[nxt[i]][sym]
            if state < 0:
                break
        else:
            out.append((sym, tuple(nxt)))
    return out


class ConstraintAutomaton:
    """The product automaton of the SFT and a list of constraint atoms over [lo, hi].

    Each atom (start, words) is compiled once into its minimal acyclic DFA
    (:func:`compile_atom`), whose states are integer ids of residual
    languages, and owns one slot of the configuration; an atom sits in state
    0 outside its window, so equal futures give equal configurations.
    `words` reads the configurations out depth-first over the coordinates
    through :func:`step`, the transition rule that the independence
    checker's segment sweep also steps.
    """

    def __init__(self, sft: Sft, atoms, lo: int, hi: int):
        self.sft = sft
        self.length = hi - lo + 1
        # The (slot, rows) of the atoms whose window covers each offset.
        self.active: list[list] = [[] for _ in range(self.length)]
        for i, (start, words) in enumerate(atoms):
            rows = compile_atom(words, sft.alphabet_size)
            for p in range(start - lo, start - lo + len(words[0])):
                self.active[p].append((i, rows))
        self.initial = (0,) * len(atoms)

    def words(self) -> tuple[Word, ...]:
        """Every legal word over [lo, hi] matching every atom, in sorted order."""
        out: list[Word] = []
        self._walk(0, [], self.initial, out)
        return tuple(out)

    def _walk(self, p: int, word: list[int], states, out: list[Word]) -> None:
        """Depth-first from offset p: append to `out` every completion of `word`."""
        if p == self.length:
            out.append(tuple(word))
            return
        for sym, nxt in step(self.sft, word[-1] if word else None, states, self.active[p]):
            word.append(sym)
            self._walk(p + 1, word, nxt, out)
            word.pop()


def _cluster_constraints(sft: Sft, atoms):
    """Merge overlapping atoms into blocks and filter across gaps.

    Returns a list of (start, words) blocks sorted by start with pairwise
    disjoint intervals, or None if the atoms contradict each other. The
    filter is one arc-consistency pass along the block path, run forward on
    successors and then backward on predecessors: a word survives iff its
    entry symbol is reached (`Sft.reach`, read off the orbit) from the exit
    symbols of the neighbouring block's surviving words. On a path that
    puts every surviving word in some point, so a non-None answer means the
    atoms meet.
    """
    runs: list[list] = []  # [atoms, last coordinate] of each run of overlapping atoms
    for start, words in sorted(atoms, key=lambda a: (a[0], a[0] + len(a[1][0]))):
        end = start + len(words[0]) - 1
        if runs and start <= runs[-1][1]:
            runs[-1][0].append((start, words))
            runs[-1][1] = max(runs[-1][1], end)
        else:
            runs.append([[(start, words)], end])
    blocks: list[tuple[int, tuple[Word, ...]]] = []
    for run, hi in runs:
        lo = run[0][0]
        words = run[0][1] if len(run) == 1 else ConstraintAutomaton(sft, run, lo, hi).words()
        if not words:
            return None
        blocks.append((lo, tuple(words)))

    for forward in (True, False):
        # Going forward a block is entered at its words' first symbols from
        # the last symbols of the block before it; backward, the other way round.
        enter, leave = (0, -1) if forward else (-1, 0)
        for i in range(1, len(blocks)) if forward else range(len(blocks) - 2, -1, -1):
            (start, words), (n_start, n_words) = blocks[i], blocks[i - 1 if forward else i + 1]
            steps = (start - n_start - len(n_words[0]) if forward else n_start - start - len(words[0])) + 1
            reached = sft.reach(frozenset([w[leave] for w in n_words]), steps, forward)
            words = tuple([w for w in words if w[enter] in reached])
            if not words:
                return None
            blocks[i] = (start, words)
    return blocks


def constraints_meet(constraints: ShiftedConstraintSet, sft: Sft) -> bool:
    """``not resolve_constraints(...).is_empty``, decided by the block filter
    of :func:`_cluster_constraints` without listing a word (no atoms, no
    blocks: the whole space)."""
    atoms = constraint_atoms(constraints, sft)
    return atoms is not None and _cluster_constraints(sft, atoms) is not None


def resolve_constraints(
    constraints: ShiftedConstraintSet,
    sft: Sft,
    *,
    gap_cap: int = GAP_CAP,
) -> Union[CylinderUnion, BridgedBlocks]:
    """Exact intersection of T^{-shift}(set) over the constraint list.

    Gaps of at most `gap_cap` free coordinates are bridged by explicit word
    enumeration, producing a normalized CylinderUnion; larger gaps (or an
    enumeration beyond WORD_BUDGET words) keep the exact block form.
    An empty constraint list resolves to the whole space, and contradictory
    constraints to the empty CylinderUnion.
    """
    atoms = constraint_atoms(constraints, sft)
    if atoms == []:
        return whole_space(sft)
    blocks = None if atoms is None else _cluster_constraints(sft, atoms)
    if blocks is None:
        return CylinderUnion(sft, ())

    gaps = []
    estimate = 1
    for (s1, w1), (s2, _w2) in zip(blocks, blocks[1:]):
        gap = s2 - (s1 + len(w1[0]))
        gaps.append(gap)
        estimate *= sft.alphabet_size ** min(gap, 64)
    for _s, ws in blocks:
        estimate *= len(ws)
    if all(g <= gap_cap for g in gaps) and estimate <= WORD_BUDGET:
        lo = blocks[0][0]
        hi = blocks[-1][0] + len(blocks[-1][1][0]) - 1
        return CylinderUnion._from_normal(sft, lo, ConstraintAutomaton(sft, blocks, lo, hi).words())
    if len(blocks) == 1:
        return CylinderUnion._from_normal(sft, blocks[0][0], blocks[0][1])
    return BridgedBlocks(sft, blocks)


def point_in_set(p: PointRep, s: SetLike, shift: int = 0) -> bool:
    """True iff T^shift p lies in s: its window over each block is one of the block's words."""
    if s.is_empty:
        return False
    for start, words in s.blocks():
        window = tuple(p.eval(n + shift) for n in range(start, start + len(words[0])))
        i = bisect_left(words, window)
        if i == len(words) or words[i] != window:
            return False
    return True


# ---------------------------------------------------------------------------
# Metric geometry
# ---------------------------------------------------------------------------


def realizable_symbols(s: SetLike, n: int) -> frozenset[int]:
    """{x_n : x in s} for a nonempty block-form set (exact).

    Off the blocks, x_n is reachable forward from the block before n and
    backward from the block after it, whichever of the two exist.
    """
    if s.is_empty:
        raise ValueError("realizable_symbols of the empty set")
    blocks = s.blocks()
    if not blocks:
        raise ValueError("realizable_symbols of the whole space is the full alphabet")
    sft = s.sft
    i = bisect_right([start for start, _ in blocks], n)  # blocks[:i] start at or before n
    symbols = frozenset(range(sft.alphabet_size))
    if i:
        start, words = blocks[i - 1]
        if n - start < len(words[0]):
            return frozenset(w[n - start] for w in words)
        symbols = sft.reach(frozenset(w[-1] for w in words), n - start - len(words[0]) + 1)
    if i < len(blocks):
        start, words = blocks[i]
        symbols &= sft.reach(frozenset(w[0] for w in words), start - n, forward=False)
    return symbols


def diam_of_set(s: SetLike, sft: Sft) -> Fraction:
    """Exact diameter of a nonempty set under the 2^{-|n|} metric.

    The diameter is 1/2^n for the coordinate n nearest 0 whose realizable
    symbols (:func:`realizable_symbols`) number two or more, and 0 for a
    single point. Past the support [lo, hi], coordinate hi + i reads step i
    of the orbit (`Sft.orbit`) of the last block's end symbols and lo - i
    the backward orbit of the first block's start symbols, so a coordinate
    with |n| beyond max(|lo|, |hi|) plus the longer orbit repeats the
    symbols of one inside that bound, and the scan up to it is exact.
    """
    if s.is_empty:
        raise ValueError("diameter of the empty set")
    blocks = s.blocks()
    if not blocks:
        return Fraction(1 if sft.alphabet_size >= 2 else 0)
    (lo, first), (start, last) = blocks[0], blocks[-1]
    hi = start + len(last[0]) - 1
    tail = max(
        len(sft.orbit(frozenset(w[-1] for w in last))[0]),
        len(sft.orbit(frozenset(w[0] for w in first), forward=False)[0]),
    )
    for n in range(max(-lo, hi) + tail + 1):
        if len(realizable_symbols(s, n)) >= 2 or len(realizable_symbols(s, -n)) >= 2:
            return Fraction(1, 2**n)
    return Fraction(0)
