import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shiftlab.measures import (
    _WALK_CHUNK,
    MarkovMeasure,
    _draw_bounds,
    _gap_measures,
    _pick,
    _walk,
    l2_distance_sq,
    measure_of,
    measure_of_constraints,
    sample_point,
    sample_point_in,
    stationary_vector,
)
from shiftlab.panel import panel_systems
from shiftlab.symbolic import (
    Cylinder,
    CylinderUnion,
    Sft,
    cylinder,
    full_shift,
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
    word_weight,
)

# The panel systems, a 3-symbol chain with zero entries at the start, middle
# and end of its rows, and the 1-symbol alphabet.
SAMPLER_MEASURES = tuple(s.measure for s in panel_systems()) + (
    MarkovMeasure(full_shift(3), [["1/2", "1/3", "1/6"], ["0", "1/4", "3/4"], ["1", "0", "0"]]),
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


def test_constraints_match_enumeration_oracle(systems):
    rng = random.Random(11)
    for _ in range(250):
        system = systems[rng.randrange(3)]
        sft = system.sft
        constraints = []
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(1, 4)
            word = [rng.randrange(sft.alphabet_size) for _ in range(length)]
            constraints.append(
                (rng.randrange(0, 7), Cylinder(sft, rng.randrange(-2, 2), word).as_union())
            )
        direct = measure_of_constraints(system.measure, constraints)
        assert direct == constraint_measure_oracle(system.measure, constraints)


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
                (rng.randrange(0, 9), Cylinder(sft, rng.randrange(-2, 2), word).as_union())
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
                (rng.randrange(0, 6), Cylinder(sft, rng.randrange(-1, 2), word).as_union())
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
        cylinders.append(Cylinder(m.sft, data.draw(st.integers(-3, 3)), word))
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
        cylinders.append(Cylinder(m.sft, data.draw(st.integers(-1, 0)), word))
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
    assert _gap_measures(m, a, b, horizon) == expected


# ---------------------------------------------------------------------------
# l2 distance
# ---------------------------------------------------------------------------


def test_l2_examples(bernoulli):
    b0 = cylinder(bernoulli.sft, 0, "0")
    b1 = cylinder(bernoulli.sft, 0, "1")
    assert l2_distance_sq(bernoulli.measure, [(0, b0)], [(0, b0)]) == 0
    assert l2_distance_sq(bernoulli.measure, [(0, b0)], [(1, b0)]) == Fraction(1, 2)
    assert l2_distance_sq(bernoulli.measure, [(0, b0)], [(0, b1)]) == 1


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
    bounds = _draw_bounds(weights)
    assert bounds == reference_bounds(weights)
    edges = [0, (1 << 64) - 1] + [b + d for b in bounds for d in (-1, 0) if 0 <= b + d < 1 << 64]
    r = edges[which % len(edges)] if edge else which
    assert int(_pick(bounds, np.array([r], dtype=np.uint64))[0]) == reference_index(bounds, r)


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


def test_walk_wide_alphabet_matches_per_draw():
    # 300 symbols do not fit in a byte: the table and the walk fall back to ints.
    k = 300
    rows = [
        _draw_bounds(
            [Fraction(1, 2) if j in ((b + 1) % k, (7 * b + 3) % k) else Fraction(0) for j in range(k)]
        )
        for b in range(k)
    ]
    rng, ref_rng = random.Random(3), random.Random(3)
    walk = _walk(rng, rows, 0, 3000).tolist()
    expected = [0]
    for _ in range(3000):
        expected.append(reference_draw(ref_rng, rows[expected[-1]]))
    assert walk == expected and max(walk) >= 256
    assert rng.getrandbits(64) == ref_rng.getrandbits(64)
