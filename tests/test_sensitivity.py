import random
from fractions import Fraction

import pytest

from shiftlab.folner import FolnerWindows
from shiftlab.measures import measure_of, measure_of_constraints
from shiftlab.panel import canonical_pairs, periodic_point
from shiftlab.sensitivity import (
    RAPair,
    _best_gap,
    _visit_predicate,
    classify_diam_pair,
    classify_ms_pair,
    diam_mean_profile,
    disjoint_family_counterexample,
    find_sensitivity_witnesses,
    pigeonhole_bound,
    pigeonhole_oracle,
    ra_search,
)
from shiftlab.symbolic import cylinder, point_in_set, resolve_constraints, whole_space
from shiftlab.verdicts import PairParams, Verdict, WitnessParams

W = FolnerWindows.canonical_windows()
FAST = PairParams(witness=WitnessParams(density_horizon=20_000))


# ---------------------------------------------------------------------------
# Pigeonhole lemma
# ---------------------------------------------------------------------------


def test_pigeonhole_bound_values():
    assert pigeonhole_bound(1) == 2
    assert pigeonhole_bound(Fraction(1, 3)) == 4
    assert pigeonhole_bound(Fraction(2, 5)) == 3
    with pytest.raises(ValueError):
        pigeonhole_bound(0)


def test_pigeonhole_oracle_small():
    assert pigeonhole_oracle(500, 10, Fraction(1, 2), seed=3)
    assert pigeonhole_oracle(500, 12, Fraction(2, 5), seed=4)


def test_pigeonhole_minimality():
    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)):
        weights, masks = disjoint_family_counterexample(a)
        assert len(masks) == pigeonhole_bound(a) - 1
        total = sum(weights)
        for mask in masks:
            measure = Fraction(
                sum(w for i, w in enumerate(weights) if mask >> i & 1), total
            )
            assert measure == a
        assert not any(
            masks[i] & masks[j]
            for i in range(len(masks))
            for j in range(i + 1, len(masks))
        )
    with pytest.raises(ValueError):
        disjoint_family_counterexample(Fraction(2, 5))


# ---------------------------------------------------------------------------
# R_A search
# ---------------------------------------------------------------------------


def test_ra_search_whole_space(bernoulli):
    pairs = ra_search(bernoulli.measure, whole_space(bernoulli.sft), 3)
    assert len(pairs) == 6
    assert all(p.intersection_measure == 1 for p in pairs)
    assert [(p.s, p.t) for p in pairs] == sorted((p.s, p.t) for p in pairs)


def test_ra_search_bernoulli_cylinder(bernoulli):
    pairs = ra_search(bernoulli.measure, cylinder(bernoulli.sft, 0, "0"), 3)
    assert all(p.intersection_measure == Fraction(1, 4) for p in pairs)


def test_ra_search_golden_excludes_adjacent(golden):
    one = cylinder(golden.sft, 0, "1")
    pairs = ra_search(golden.measure, one, 2)
    assert (0, 1) not in [(p.s, p.t) for p in pairs]
    p02 = next(p for p in pairs if (p.s, p.t) == (0, 2))
    assert p02.intersection_measure == Fraction(1, 6)


def _shift_pair_sets(system) -> list:
    """Whole space, positive-measure cylinders at starts -1 and 0, and their pairwise unions."""
    sft, m = system.sft, system.measure
    cylinders = [
        cylinder(sft, start, w) for start in (-1, 0) for n in (1, 2) for w in sft.legal_words(n)
    ]
    cylinders = [c for c in cylinders if measure_of(m, c) > 0]
    return [whole_space(sft)] + cylinders + [c.union(d) for c, d in zip(cylinders, cylinders[3:])]


def _per_pair(m, a, ux, uy, bound):
    """The (s, t) double loop the gap readouts replace: admissible pairs with their targets."""
    for s in range(bound + 1):
        for t in range(s + 1, bound + 1):
            admissible = measure_of_constraints(m, [(s, a), (t, a)])
            if admissible > 0:
                yield s, t, admissible, measure_of_constraints(m, [(s, ux), (t, uy)])


def test_ra_search_matches_per_pair_measures(systems):
    for system in systems:
        for a in _shift_pair_sets(system):
            expected = [RAPair(s, t, mu) for s, t, mu, _ in _per_pair(system.measure, a, a, a, 5)]
            assert ra_search(system.measure, a, 5) == expected


def test_best_gap_is_first_best_shift_pair(systems):
    rng = random.Random(23)
    for _ in range(120):
        system = systems[rng.randrange(3)]
        sets = _shift_pair_sets(system)
        a, ux, uy = (rng.choice(sets) for _ in range(3))
        bound = rng.randrange(0, 7)
        best = None
        for s, t, _admissible, target in _per_pair(system.measure, a, ux, uy, bound):
            if best is None or target > best[2]:
                best = (s, t, target)
        got = _best_gap(system.measure, a, ux, uy, bound)
        assert best == (None if got is None else (0, *got))


def test_ra_pair_requires_positive_measure():
    with pytest.raises(ValueError):
        RAPair(0, 1, Fraction(0))


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def test_witnesses_bernoulli(bernoulli):
    v = find_sensitivity_witnesses(
        bernoulli.sft,
        bernoulli.measure,
        whole_space(bernoulli.sft),
        cylinder(bernoulli.sft, 0, "0"),
        cylinder(bernoulli.sft, 0, "1"),
        Fraction(1, 5),
        seed=1234,
        params=WitnessParams(density_horizon=30_000),
    )
    assert v.is_positive
    w = v.witnesses[0]
    assert (w.s, w.t) == (0, 1)
    assert w.target == Fraction(1, 4)
    assert abs(w.empirical_upper - 0.25) < 0.02
    assert point_in_set(w.p, whole_space(bernoulli.sft))


def test_witnesses_land_in_cell(golden):
    cell = cylinder(golden.sft, 0, "01")
    v = find_sensitivity_witnesses(
        golden.sft,
        golden.measure,
        cell,
        cylinder(golden.sft, 0, "0"),
        cylinder(golden.sft, 0, "1"),
        Fraction(1, 10),
        seed=77,
        params=WitnessParams(density_horizon=20_000),
    )
    assert v.is_positive
    w = v.witnesses[0]
    assert point_in_set(w.p, cell) and point_in_set(w.q, cell)
    exact = measure_of_constraints(
        golden.measure,
        [(w.s, cylinder(golden.sft, 0, "0")), (w.t, cylinder(golden.sft, 0, "1"))],
    )
    assert exact == w.target
    assert abs(w.empirical_upper - float(exact)) < 0.02


def test_witnesses_negative_when_unreachable(cycle4):
    v = find_sensitivity_witnesses(
        cycle4.sft,
        cycle4.measure,
        cylinder(cycle4.sft, 0, [0]),
        cylinder(cycle4.sft, 0, [0]),
        cylinder(cycle4.sft, 0, [1]),
        Fraction(1, 10),
        seed=5,
    )
    assert v.is_negative and not v.witnesses


# ---------------------------------------------------------------------------
# Pair classifiers
# ---------------------------------------------------------------------------


def test_classify_ms_examples(bernoulli, cycle4):
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    cells = [
        cylinder(bernoulli.sft, 0, w)
        for length in (1, 2)
        for w in bernoulli.sft.legal_words(length)
    ]
    v = classify_ms_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 2, cells, FAST)
    assert v.is_positive
    r0 = periodic_point(cycle4.sft, [0, 1, 2, 3])
    r1 = periodic_point(cycle4.sft, [1, 2, 3, 0])
    v = classify_ms_pair(
        cycle4.sft, cycle4.measure, r0, r1, 1, cycle4.cell_family, FAST
    )
    assert v.is_negative
    with pytest.raises(ValueError):
        classify_ms_pair(bernoulli.sft, bernoulli.measure, zeros, zeros, 2, cells, FAST)


def test_classify_ms_symmetry(golden):
    x = periodic_point(golden.sft, "0")
    y = periodic_point(golden.sft, "01")
    fwd = classify_ms_pair(golden.sft, golden.measure, x, y, 1, golden.cell_family, FAST)
    rev = classify_ms_pair(golden.sft, golden.measure, y, x, 1, golden.cell_family, FAST)
    assert fwd.classification == rev.classification == "positive"


def test_classify_diam_examples(bernoulli, golden, cycle4):
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    v = classify_diam_pair(
        bernoulli.sft, bernoulli.measure, zeros, ones, 1, bernoulli.cell_family, FAST
    )
    assert v.is_positive and v.eps_certified == 0.5
    r0 = periodic_point(cycle4.sft, [0, 1, 2, 3])
    r2 = periodic_point(cycle4.sft, [2, 3, 0, 1])
    v = classify_diam_pair(
        cycle4.sft, cycle4.measure, r0, r2, 1, cycle4.cell_family, FAST
    )
    assert v.is_negative


def test_ms_positive_implies_diam_positive(systems):
    for system in systems:
        for label, x, y in canonical_pairs(system, 4):
            ms = classify_ms_pair(
                system.sft, system.measure, x, y, 1, system.cell_family, FAST
            )
            if ms.is_positive:
                diam = classify_diam_pair(
                    system.sft, system.measure, x, y, 1, system.cell_family, FAST
                )
                assert diam.is_positive, (system.id, label)


def test_visit_predicate_matches_resolve(systems):
    rng = random.Random(23)
    for system in systems:
        words1 = list(system.sft.legal_words(1))
        words2 = list(system.sft.legal_words(2))
        for _ in range(12):
            cell = cylinder(system.sft, 0, words2[rng.randrange(len(words2))])
            u = cylinder(system.sft, -1, words2[rng.randrange(len(words2))])
            pred = _visit_predicate(system.sft, cell, u)
            for s in range(30):
                expected = not resolve_constraints(
                    [(0, cell), (s, u)], system.sft
                ).is_empty
                assert pred(s) == expected, (system.id, cell, u, s)


# ---------------------------------------------------------------------------
# Diam-mean profile
# ---------------------------------------------------------------------------


def test_diam_profile_whole_space(systems):
    for system in systems:
        prof = diam_mean_profile(
            system.sft, system.measure, whole_space(system.sft), W, 4096
        )
        assert prof.exact == Fraction(1)


def test_diam_profile_cylinder(bernoulli):
    prof = diam_mean_profile(
        bernoulli.sft, bernoulli.measure, cylinder(bernoulli.sft, 0, "0"), W, 4096
    )
    assert prof.exact == Fraction(1)


def test_diam_profile_singleton_cell(cycle4):
    prof = diam_mean_profile(
        cycle4.sft, cycle4.measure, cylinder(cycle4.sft, 0, [0]), W, 4096
    )
    assert prof.exact == Fraction(0)


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict("positive", eps_certified=0.1, witnesses=())
    with pytest.raises(ValueError):
        Verdict("positive", eps_certified=None, witnesses=(1,))
    with pytest.raises(ValueError):
        Verdict("maybe")
