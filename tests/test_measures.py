import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab.measures import (
    _BLOCK,
    _WALK_CHUNK,
    MarkovMeasure,
    _bits,
    _draw_index,
    _gap_nums,
    _numerator_bounds,
    _path,
    _pick,
    _plan,
    _stream,
    _thresholds,
    _uniforms,
    _walk,
    measure_of,
    measure_of_constraints,
    sample_point,
    sample_point_in,
    stationary_vector,
)
from shiftlab.panel import panel_systems
from shiftlab.symbolic import (
    CylinderUnion,
    EventuallyPeriodic,
    Sft,
    cylinder,
    point_in_set,
    resolve_constraints,
    whole_space,
)

from .oracles import (
    constraint_measure_oracle,
    constraint_span,
    reference_bounds,
    reference_draw,
    reference_index,
    sample_point_in_reference,
    sample_point_reference,
    satisfiable_oracle,
    satisfies,
    stationary_oracle,
    three_symbol_chain,
    word_weight,
)

# The panel systems, a 3-symbol chain with zero entries at the start, middle
# and end of its rows, and the 1-symbol alphabet.
SAMPLER_MEASURES = tuple(s.measure for s in panel_systems()) + (
    three_symbol_chain(),
    MarkovMeasure(Sft(1, [[True]]), [["1"]]),
)


# ---------------------------------------------------------------------------
# stationary_vector
# ---------------------------------------------------------------------------


def test_stationary_symmetric():
    assert stationary_vector([["1/2", "1/2"], ["1/2", "1/2"]]) == (
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_stationary_golden():
    # Solve pi_0 = pi_0/2 + pi_1, pi_0 + pi_1 = 1 by hand: (2/3, 1/3).
    assert stationary_vector([["1/2", "1/2"], ["1", "0"]]) == (
        Fraction(2, 3),
        Fraction(1, 3),
    )


def test_stationary_single_symbol():
    assert stationary_vector([["1"]]) == (Fraction(1),)


def test_stationary_rejects_reducible():
    with pytest.raises(ValueError):
        stationary_vector([["1", "0"], ["0", "1"]])


def test_stationary_rejects_bad_rows():
    with pytest.raises(ValueError):
        stationary_vector([["1/2", "1/3"], ["1/2", "1/2"]])


def test_stationary_fixed_point_exact():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randrange(2, 5)
        rows = []
        for _ in range(k):
            cuts = sorted(rng.randrange(0, 12) for _ in range(k - 1))
            parts = [a - b for a, b in zip(cuts + [12], [0] + cuts)]
            rows.append([Fraction(p, 12) for p in parts])
        for i in range(k):  # force irreducibility with a positive cycle
            j = (i + 1) % k
            if rows[i][j] == 0:
                donor = max(range(k), key=lambda c: rows[i][c])
                rows[i][j] += Fraction(1, 24)
                rows[i][donor] -= Fraction(1, 24)
        pi = stationary_vector(rows)
        assert sum(pi) == 1
        for j in range(k):
            assert sum(pi[i] * rows[i][j] for i in range(k)) == pi[j]


@st.composite
def _irreducible_chain(draw):
    """Rows of small integer weights over a common denominator, with a
    positive cycle through every symbol in a drawn order; zero entries and
    self-loops appear freely."""
    k = draw(st.integers(1, 9))
    weights = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k))
    order = draw(st.permutations(range(k)))
    for a, b in zip(order, order[1:] + order[:1]):
        weights[a][b] += 1
    return [[Fraction(w, sum(row)) for w in row] for row in weights]


@settings(max_examples=150, deadline=None)
@given(rows=_irreducible_chain())
def test_stationary_sparse_matches_dense_oracle(rows):
    pi = stationary_vector(rows)
    assert pi == stationary_oracle(rows)
    assert sum(pi) == 1
    k = len(rows)
    assert all(sum(pi[i] * rows[i][j] for i in range(k)) == pi[j] for j in range(k))


# ---------------------------------------------------------------------------
# measure_of
# ---------------------------------------------------------------------------


def test_measure_examples(bernoulli, golden):
    assert measure_of(bernoulli.measure, cylinder(bernoulli.sft, 0, "01")) == Fraction(1, 4)
    assert measure_of(golden.measure, cylinder(golden.sft, 0, "0")) == Fraction(2, 3)
    assert measure_of(golden.measure, cylinder(golden.sft, 0, "11")) == 0


def test_measure_shift_invariance(systems):
    for system in systems:
        for word in system.sft.legal_words(2):
            values = {
                measure_of(system.measure, cylinder(system.sft, i, word))
                for i in (-5, -1, 0, 3, 11)
            }
            assert len(values) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_measure_partition_of_unity(systems, n):
    for system in systems:
        total = sum(
            (measure_of(system.measure, cylinder(system.sft, 0, w))
             for w in system.sft.legal_words(n)),
            Fraction(0),
        )
        assert total == 1


# ---------------------------------------------------------------------------
# measure_of_constraints
# ---------------------------------------------------------------------------


def test_constraints_examples(bernoulli, golden):
    b0 = cylinder(bernoulli.sft, 0, "0")
    b1 = cylinder(bernoulli.sft, 0, "1")
    assert measure_of_constraints(bernoulli.measure, [(0, b0), (2, b1)]) == Fraction(1, 4)
    g0 = cylinder(golden.sft, 0, "0")
    assert measure_of_constraints(golden.measure, [(0, g0), (2, g0)]) == Fraction(1, 2)
    assert measure_of_constraints(golden.measure, []) == 1


def _random_constraints(rng, sft, shifts: int, starts: tuple) -> list:
    constraints = []
    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(1, 4)
        word = [rng.randrange(sft.alphabet_size) for _ in range(length)]
        constraints.append(
            (rng.randrange(0, shifts), cylinder(sft, rng.randrange(*starts), word))
        )
    return constraints


def test_constraints_match_enumeration_oracle(systems):
    rng = random.Random(11)
    for _ in range(250):
        system = systems[rng.randrange(3)]
        constraints = _random_constraints(rng, system.sft, 7, (-2, 2))
        direct = measure_of_constraints(system.measure, constraints)
        assert direct == constraint_measure_oracle(system.measure, constraints)
    # The non-dyadic 3-symbol chain, on narrower spans: the oracle reads 3^span words.
    m = three_symbol_chain()
    for _ in range(100):
        constraints = _random_constraints(rng, m.sft, 4, (-1, 1))
        assert measure_of_constraints(m, constraints) == constraint_measure_oracle(m, constraints)


def test_constraints_match_resolve_path(systems):
    rng = random.Random(13)
    for _ in range(150):
        system = systems[rng.randrange(3)]
        sft = system.sft
        constraints = []
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(1, 3)
            word = [rng.randrange(sft.alphabet_size) for _ in range(length)]
            constraints.append(
                (rng.randrange(0, 9), cylinder(sft, rng.randrange(-2, 2), word))
            )
        direct = measure_of_constraints(system.measure, constraints)
        via = measure_of(system.measure, resolve_constraints(constraints, sft))
        assert direct == via


def test_constraints_monotone_under_refinement(golden):
    rng = random.Random(17)
    sft = golden.sft
    for _ in range(80):
        constraints = []
        mu_prev = Fraction(1)
        for step in range(3):
            length = rng.randrange(1, 3)
            word = [rng.randrange(2) for _ in range(length)]
            constraints.append(
                (rng.randrange(0, 6), cylinder(sft, rng.randrange(-1, 2), word))
            )
            mu = measure_of_constraints(golden.measure, constraints)
            assert mu <= mu_prev
            mu_prev = mu


def test_bridged_measure_far_apart(bernoulli):
    b0 = cylinder(bernoulli.sft, 0, "0")
    constraints = [(0, b0), (100, b0)]
    assert measure_of_constraints(bernoulli.measure, constraints) == Fraction(1, 4)
    resolved = resolve_constraints(constraints, bernoulli.sft)
    assert resolved.bridged
    assert measure_of(bernoulli.measure, resolved) == Fraction(1, 4)


def _random_union(data, m: MarkovMeasure) -> CylinderUnion:
    cylinders = []
    for _ in range(data.draw(st.integers(0, 3))):
        width = data.draw(st.integers(1, 3))
        word = data.draw(st.sampled_from(list(m.sft.legal_words(width))))
        cylinders.append((data.draw(st.integers(-3, 3)), word))
    return CylinderUnion(m.sft, cylinders)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_complement_measure_is_one_minus(data):
    m = data.draw(st.sampled_from(SAMPLER_MEASURES))
    u = _random_union(data, m)
    c = u.complement()
    assert measure_of(m, c) == 1 - measure_of(m, u)
    assert measure_of(m, c) == sum((word_weight(m, w) for w in c.words), Fraction(0))
    assert measure_of(m, c.complement()) == measure_of(m, u)


def _gap_set(data, m: MarkovMeasure) -> CylinderUnion:
    """A union of up to two cylinders of width <= 2 at starts -1 and 0 (none: the empty
    set), or the whole space."""
    if data.draw(st.booleans()):
        return whole_space(m.sft) if data.draw(st.booleans()) else CylinderUnion(m.sft, [])
    cylinders = []
    for _ in range(data.draw(st.integers(1, 2))):
        word = data.draw(st.sampled_from(list(m.sft.legal_words(data.draw(st.integers(1, 2))))))
        cylinders.append((data.draw(st.integers(-1, 0)), word))
    return CylinderUnion(m.sft, cylinders)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gap_measures_match_oracle(data):
    # The panel systems and a 3-symbol chain with zero transitions; the gaps
    # run from 0 to past the common window of a and b.
    m = data.draw(st.sampled_from(SAMPLER_MEASURES[:4]))
    a, b = _gap_set(data, m), _gap_set(data, m)
    lo, hi = constraint_span([(0, a), (0, b)])
    horizon = hi - lo + 1 + data.draw(st.integers(0, 2))
    expected = [constraint_measure_oracle(m, [(0, a), (g, b)]) for g in range(horizon)]
    assert [Fraction(n, d) for n, d in _gap_nums(m, a, b, horizon)] == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gap_kernel_far_gaps_match_measure_of_constraints(data):
    # Gaps 30 to 40 past the common window of a and b, where the kernel has
    # carried its vector one transition per gap for 30 or more gaps; checked
    # against measure_of_constraints, which crosses the gap by one matrix power.
    m = data.draw(st.sampled_from(SAMPLER_MEASURES[:4]))
    a, b = _gap_set(data, m), _gap_set(data, m)
    lo, hi = constraint_span([(0, a), (0, b)])
    far = hi - lo + 1 + 30
    got = _gap_nums(m, a, b, far + 11)[far:]
    expected = [measure_of_constraints(m, [(0, a), (g, b)]) for g in range(far, far + 11)]
    assert [Fraction(n, d) for n, d in got] == expected


def _set_like(data, sft: Sft):
    """A set-like of any shape: a union (empty included) or its complement, the
    whole space, the empty union, or two blocks kept apart by resolving with
    gap_cap=0."""
    kind = data.draw(st.sampled_from(["union", "complement", "whole", "empty", "bridged"]))
    symbols = st.lists(st.integers(0, sft.alphabet_size - 1), min_size=1, max_size=3)
    if kind in ("union", "complement"):
        pieces = data.draw(st.lists(st.tuples(st.integers(-2, 2), symbols), min_size=1, max_size=3))
        u = CylinderUnion(sft, pieces)
        return u.complement() if kind == "complement" else u
    if kind == "whole":
        return whole_space(sft)
    if kind == "empty":
        return CylinderUnion(sft, [])
    legal = st.sampled_from([w for n in range(1, 4) for w in sft.legal_words(n)])
    start, first = data.draw(st.integers(-2, 2)), data.draw(legal)
    second = cylinder(sft, 0, data.draw(legal))
    gap = data.draw(st.integers(1, 3))
    constraints = [(0, cylinder(sft, start, first)), (start + len(first) + gap, second)]
    return resolve_constraints(constraints, sft, gap_cap=0)


def _eventually_periodic(data, sft: Sft) -> EventuallyPeriodic:
    """A point with a legal core between two copies of one periodic tail."""
    legal = [w for n in range(1, 5) for w in sft.legal_words(n)]
    tail = data.draw(st.sampled_from([w for w in legal if sft.allowed[w[-1]][w[0]]]))
    cores = [w for w in legal if sft.allowed[tail[-1]][w[0]] and sft.allowed[w[-1]][tail[0]]]
    core = data.draw(st.sampled_from([()] + cores))
    return EventuallyPeriodic(sft, tail, core, tail, offset=data.draw(st.integers(-3, 3)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_set_protocol_matches_oracles(data):
    """measure_of, point_in_set and resolve_constraints read every set-like
    through is_empty and blocks() alone, and agree with word enumeration."""
    m = data.draw(st.sampled_from(SAMPLER_MEASURES[:4]))
    sft = m.sft
    a, b = _set_like(data, sft), _set_like(data, sft)
    meet = resolve_constraints([(0, a), (0, b)], sft)
    if not satisfiable_oracle(sft, [(0, a), (0, b)]):
        assert isinstance(meet, CylinderUnion) and meet == CylinderUnion(sft, [])
        assert meet.is_empty and not meet.bridged
    sets = [a, b, meet]
    for s in sets:
        assert measure_of(m, s) == constraint_measure_oracle(m, [(0, s)])
    points = [_eventually_periodic(data, sft), sample_point(m, -8, 24, data.draw(st.integers(0, 99)))]
    for p in points:
        for s in sets:
            for shift in range(-2, 3):
                lo, hi = constraint_span([(shift, s)])
                word = tuple(p.eval(n) for n in range(lo, hi + 1))
                assert point_in_set(p, s, shift) == satisfies((shift, s), word, lo)


# ---------------------------------------------------------------------------
# l2 distance
# ---------------------------------------------------------------------------


def test_l2_examples(bernoulli):
    """||1_A - 1_B||^2 = mu(A) + mu(B) - 2 mu(A ∩ B) from exact constraint measures."""
    b0 = cylinder(bernoulli.sft, 0, "0")
    b1 = cylinder(bernoulli.sft, 0, "1")

    def l2_distance_sq(a, b):
        mu = functools.partial(measure_of_constraints, bernoulli.measure)
        return mu(a) + mu(b) - 2 * mu(a + b)

    assert l2_distance_sq([(0, b0)], [(0, b0)]) == 0
    assert l2_distance_sq([(0, b0)], [(1, b0)]) == Fraction(1, 2)
    assert l2_distance_sq([(0, b0)], [(0, b1)]) == 1


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_deterministic(golden):
    a = sample_point(golden.measure, -5, 50, seed=99)
    b = sample_point(golden.measure, -5, 50, seed=99)
    assert a.symbols == b.symbols
    c = sample_point(golden.measure, -5, 50, seed=100)
    assert a.symbols != c.symbols


def test_sampling_single_symbol_alphabet():
    sft = Sft(1, [[True]])
    m = MarkovMeasure(sft, [["1"]])
    p = sample_point(m, 0, 9, seed=1)
    assert p.symbols == (0,) * 10


def test_sampling_respects_transitions(golden):
    p = sample_point(golden.measure, 0, 4000, seed=5)
    assert golden.sft.word_allowed(p.symbols)


def test_sampling_frequency(bernoulli):
    n = 100_000
    ok = 0
    for seed in range(10):
        p = sample_point(bernoulli.measure, 0, n - 1, seed=seed)
        freq = sum(1 for s in p.symbols if s == 0) / n
        if 0.49 <= freq <= 0.51:
            ok += 1
    assert ok >= 9


def test_sample_point_in_cell(golden):
    cell = cylinder(golden.sft, 0, "01")
    for seed in range(6):
        p = sample_point_in(golden.measure, cell, -20, 40, seed=seed)
        assert point_in_set(p, cell)
        assert golden.sft.word_allowed(p.symbols)


def test_sample_point_in_conditional_law(golden):
    # Conditional frequency of x_2 = 0 given x_0 = 0, x_1 = 0: P(0->0) = 1/2.
    cell = cylinder(golden.sft, 0, "00")
    hits = total = 0
    for seed in range(400):
        p = sample_point_in(golden.measure, cell, 0, 4, seed=seed)
        total += 1
        hits += p.eval(2) == 0
    assert abs(hits / total - 0.5) < 0.08


# ---------------------------------------------------------------------------
# bulk sampler against the per-draw reference
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    nums=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    scale=st.sampled_from([1, 2]),
    which=st.integers(0, (1 << 64) - 1),
    edge=st.booleans(),
)
@example(nums=[1, 0], scale=1, which=1, edge=True)  # r = 2^64 - 1, golden-mean row 1
@example(nums=[0, 0], scale=1, which=0, edge=True)  # no bound above r: the last index
def test_pick_matches_per_draw_rule(nums, scale, which, edge):
    # Weights summing to 1, 1/2 or 0, so some rows leave every bound <= r.
    weights = [Fraction(x, scale * max(sum(nums), 1)) for x in nums]
    bounds = reference_bounds(weights)
    assert _numerator_bounds(nums, scale * max(sum(nums), 1)) == bounds
    edges = [0, (1 << 64) - 1] + [b + d for b in bounds for d in (-1, 0) if 0 <= b + d < 1 << 64]
    r = edges[which % len(edges)] if edge else which
    dtype = np.min_scalar_type(len(bounds) - 1)
    index = _pick(_thresholds(bounds, dtype), np.array([r], dtype=np.uint64), dtype)
    assert int(index[0]) == reference_index(bounds, r)


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from(SAMPLER_MEASURES),
    lo=st.integers(-50, 50),
    length=st.integers(0, 400),
    seed=st.integers(0, 1 << 70),
)
def test_sample_point_bit_identical_to_per_draw(m, lo, length, seed):
    assert sample_point(m, lo, lo + length, seed).symbols == sample_point_reference(
        m, lo, lo + length, seed
    )


@pytest.mark.parametrize("length", [_WALK_CHUNK - 1, _WALK_CHUNK, 2 * _WALK_CHUNK + 3])
def test_sample_point_bit_identical_across_chunks(length):
    for seed, m in enumerate(SAMPLER_MEASURES):
        assert sample_point(m, -7, length - 7, seed).symbols == sample_point_reference(
            m, -7, length - 7, seed
        )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sample_point_in_bit_identical_to_per_draw(data):
    m = data.draw(st.sampled_from(SAMPLER_MEASURES))
    cell = _random_union(data, m)
    assume(not cell.is_empty and measure_of(m, cell) > 0)
    seed = data.draw(st.integers(0, 1 << 70))
    # Margins of 0 put the cell flush with that edge of the window.
    left, right = (data.draw(st.sampled_from([0, 1, 2, 25, 60])) for _ in range(2))
    c_lo, c_hi = cell.support if not cell.is_full else (0, 0)
    lo, hi = c_lo - left, c_hi + right
    assert sample_point_in(m, cell, lo, hi, seed).symbols == sample_point_in_reference(
        m, cell, lo, hi, seed
    )


@functools.lru_cache(maxsize=None)
def _wide_chain() -> MarkovMeasure:
    """300 symbols, past one byte: each symbol stays or steps to the next
    (mod 300) with probability 1/2."""
    k = 300
    rows = [["1/2" if (j - b) % k in (0, 1) else "0" for j in range(k)] for b in range(k)]
    return MarkovMeasure(Sft(k, [[v != "0" for v in row] for row in rows]), rows)


# Each readout of measures._walk: Bernoulli has one law in every row (row 0's
# picks are the path, forward and reversed), the 4-cycle one successor per row
# (the orbit of the start). Golden mean (a forbidden transition), the 3-symbol
# chain (zero entries) and wide300 (more symbols than a byte holds) compose
# successor tables in `_path`.
BLOCK_CHAINS = {
    **{s.id: (lambda m=s.measure: m) for s in panel_systems()},
    "three_symbol": three_symbol_chain,
    "wide300": _wide_chain,
}
# Walk lengths around the blocks of measures._path: one step, one block and
# its neighbours, two levels of blocks, and a chunk of uniforms.
BLOCK_LENGTHS = (
    1,
    _BLOCK - 1,
    _BLOCK,
    _BLOCK + 1,
    _BLOCK**2 - 1,
    _BLOCK**2 + 1,
    _WALK_CHUNK - 1,
    _WALK_CHUNK + 1,
)


def _stream_state() -> tuple:
    """The sampler generator's state in random.Random.getstate()[1] form: key words, then position."""
    state = _bits().state["state"]
    return (*state["key"].tolist(), int(state["pos"]))


@pytest.mark.parametrize("chain", sorted(BLOCK_CHAINS))
def test_sampler_bit_identical_across_blocks(chain, monkeypatch):
    """sample_point and sample_point_in walk n steps (both ways for the cell)
    at every block length; after each sample the sampler's generator is in
    the state of the per-draw reference's generator, so both drew the same
    number of uniforms."""
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(random, "Random", Recorded)
    m = BLOCK_CHAINS[chain]()
    word = max(w for w in m.sft.legal_words(2) if m.word_weight(w) > 0)
    cell = cylinder(m.sft, 0, word)
    for seed, n in enumerate(BLOCK_LENGTHS):
        samples = [
            (lambda: sample_point(m, -n, 0, seed), lambda: sample_point_reference(m, -n, 0, seed)),
            (
                lambda: sample_point_in(m, cell, -n, n + 1, seed),
                lambda: sample_point_in_reference(m, cell, -n, n + 1, seed),
            ),
        ]
        for sample, reference in samples:
            got = sample().symbols
            after = _stream_state()
            assert got == reference()
            assert after == made[-1].getstate()[1]


@st.composite
def random_chains(draw) -> MarkovMeasure:
    """An irreducible chain on k <= 4 symbols whose rows are random with zero
    entries, one-successor rows mixed with random rows, or all one law. A
    one-law row is all positive, and every other row keeps b -> b + 1 (mod k),
    so the chain is irreducible."""
    k = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["zero_entries", "one_successor", "one_law"]))
    if kind == "one_law":
        rows = [[draw(st.integers(1, 6)) for _ in range(k)]] * k
    else:
        rows = []
        for a in range(k):
            nxt = (a + 1) % k
            if kind == "one_successor" and draw(st.booleans()):
                row = [int(b == nxt) for b in range(k)]
            else:
                row = [draw(st.integers(0, 6)) for _ in range(k)]
                row[nxt] = draw(st.integers(1, 6))
            rows.append(row)
    transition = [[Fraction(x, sum(row)) for x in row] for row in rows]
    return MarkovMeasure(Sft(k, [[x > 0 for x in row] for row in rows]), transition)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sampler_plans_reused_on_random_chains(data):
    """Two sample_point draws and one sample_point_in on one measure object,
    so its compiled plans are reused, match the per-draw reference symbol for
    symbol and leave the generator where the reference's is."""
    m = data.draw(random_chains())
    cell = _random_union(data, m)
    assume(not cell.is_empty and measure_of(m, cell) > 0)
    made = []

    class Recorded(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(random, "Random", Recorded)
        for _ in range(2):
            lo, seed = data.draw(st.integers(-20, 20)), data.draw(st.integers(0, 1 << 70))
            hi = lo + data.draw(st.sampled_from([0, 1, _BLOCK, _BLOCK**2 + 1]))
            got = sample_point(m, lo, hi, seed).symbols
            after = _stream_state()
            assert got == sample_point_reference(m, lo, hi, seed)
            assert after == made[-1].getstate()[1]
        c_lo, c_hi = cell.support if not cell.is_full else (0, 0)
        lo, hi = c_lo - data.draw(st.integers(0, 30)), c_hi + data.draw(st.integers(0, 30))
        seed = data.draw(st.integers(0, 1 << 70))
        got = sample_point_in(m, cell, lo, hi, seed).symbols
        after = _stream_state()
        assert got == sample_point_in_reference(m, cell, lo, hi, seed)
        assert after == made[-1].getstate()[1]


def test_walk_wide_alphabet_matches_per_draw():
    # 300 symbols do not fit in a byte: the table and the walk fall back to ints.
    k = 300
    rows = [
        reference_bounds(
            [Fraction(1, 2) if j in ((b + 1) % k, (7 * b + 3) % k) else Fraction(0) for j in range(k)]
        )
        for b in range(k)
    ]
    ref_rng = random.Random(3)
    walk = _walk(_stream(3), _plan(rows), 0, 3000).tolist()
    expected = [0]
    for _ in range(3000):
        expected.append(reference_draw(ref_rng, rows[expected[-1]]))
    assert walk == expected and max(walk) >= 256
    assert _stream_state() == ref_rng.getstate()[1]


def _one_hot(k: int, j: int) -> list:
    return reference_bounds([Fraction(int(i == j)) for i in range(k)])


# Hand-built bounds for each readout of `_walk`: a 5-symbol permutation and a
# map that enters its cycle after a tail (one successor per row, so the orbit
# is the path), three rows of one law with a zero-weight entry, and k = 1.
WALK_ROWS = {
    "permutation": [_one_hot(5, j) for j in (3, 0, 4, 1, 2)],
    "tail_then_cycle": [_one_hot(5, j) for j in (1, 2, 3, 4, 2)],
    "one_law": [reference_bounds([Fraction(1, 3), Fraction(0), Fraction(2, 3)])] * 3,
    "one_symbol": [_one_hot(1, 0)],
}


@pytest.mark.parametrize("name", sorted(WALK_ROWS))
def test_walk_readouts_match_per_draw(name):
    rows = WALK_ROWS[name]
    for seed, n in enumerate((0,) + BLOCK_LENGTHS):
        for s in range(len(rows)):
            ref_rng = random.Random(seed)
            walk = _walk(_stream(seed), _plan(rows), s, n)
            expected = [s]
            for _ in range(n):
                expected.append(reference_draw(ref_rng, rows[expected[-1]]))
            assert walk.dtype == np.uint8 and walk.tolist() == expected
            assert _stream_state() == ref_rng.getstate()[1]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_path_constant_and_permutation_columns(data):
    # The panel's Bernoulli and 4-cycle walks no longer reach `_path`; these
    # are the tables they would build: every column one symbol, or every
    # column a permutation.
    k = data.draw(st.integers(1, 5))
    c = data.draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK**2 + 3]))
    rng = random.Random(data.draw(st.integers(0, 1 << 32)))
    if data.draw(st.booleans()):
        columns = [[rng.randrange(k)] * k for _ in range(c)]
    else:
        columns = [rng.sample(range(k), k) for _ in range(c)]
    table = np.array(columns, dtype=np.uint8).T.copy()
    s = b = rng.randrange(k)
    expected = []
    for column in columns:
        b = column[b]
        expected.append(b)
    assert _path(table, s).tolist() == expected


# Seeds whose absolute value takes one, two and three or more 32-bit key
# words, zero, negatives and the word edges.
STREAM_SEEDS = st.one_of(
    st.integers(-(1 << 32) + 1, (1 << 32) - 1),
    st.integers(1 << 32, (1 << 64) - 1),
    st.integers(1 << 64, 1 << 200),
    st.integers(-(1 << 200), -1),
    st.sampled_from([0, -1, (1 << 32) - 1, 1 << 32, 1 << 64]),
)


@settings(max_examples=100, deadline=None)
@given(seed=STREAM_SEEDS, words=st.integers(1, 700))
def test_stream_words_match_random(seed, words):
    rng = random.Random(seed)
    assert _stream(seed).random_raw(words).tolist() == [rng.getrandbits(32) for _ in range(words)]


@settings(max_examples=25, deadline=None)
@given(seed=STREAM_SEEDS, tail=st.sampled_from([0, 1, 2, 311, 312, 313]))
def test_uniforms_match_getrandbits_across_draw_and_chunk(seed, tail):
    # One draw, a full chunk and a second run (of 311 uniforms or more, it
    # crosses the generator's next 624-word twist): the same values as
    # getrandbits(64) calls one at a time.
    rng = random.Random(seed)
    bits = _stream(seed)
    weights = [Fraction(1, 3)] * 3
    assert _draw_index(bits, reference_bounds(weights)) == reference_draw(rng, reference_bounds(weights))
    got = np.concatenate((_uniforms(bits, _WALK_CHUNK), _uniforms(bits, tail)))
    assert got.tolist() == [rng.getrandbits(64) for _ in range(_WALK_CHUNK + tail)]
    assert _stream_state() == rng.getstate()[1]
