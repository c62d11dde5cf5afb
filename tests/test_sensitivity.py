import random
from fractions import Fraction

import pytest

from shiftlab import independence, sensitivity
from shiftlab.entropy import default_cell_family, separation_counts
from shiftlab.independence import classify_in_pair, point_neighborhood, separating_depth
from shiftlab.measures import MarkovMeasure, measure_of, measure_of_constraints
from shiftlab.panel import canonical_pairs, periodic_point
from shiftlab.sensitivity import (
    CrosscheckRow,
    _best_gap,
    _visit_predicate,
    classify_diam_pair,
    classify_ms_pair,
    diam_mean_profile,
    disjoint_family_counterexample,
    equivalence_crosscheck,
    extra_table_e,
    find_sensitivity_witnesses,
    pigeonhole_bound,
    pigeonhole_oracle,
)
from shiftlab.symbolic import (
    CylinderUnion,
    Sft,
    cylinder,
    diam_of_set,
    point_in_set,
    resolve_constraints,
    whole_space,
)
from shiftlab.verdicts import InPairParams, Verdict, WitnessParams
from .oracles import gap_measures_oracle


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
# Best shift pair
# ---------------------------------------------------------------------------


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
            if measure_of_constraints(m, [(s, a), (t, a)]) > 0:
                yield s, t, measure_of_constraints(m, [(s, ux), (t, uy)])


def test_best_gap_is_first_best_shift_pair(systems):
    rng = random.Random(23)
    for _ in range(120):
        system = systems[rng.randrange(3)]
        sets = _shift_pair_sets(system)
        a, ux, uy = (rng.choice(sets) for _ in range(3))
        bound = rng.randrange(0, 7)
        best = None
        for s, t, target in _per_pair(system.measure, a, ux, uy, bound):
            if best is None or target > best[2]:
                best = (s, t, target)
        got = _best_gap(system.measure, a, ux, uy, bound)
        assert best == (None if got is None else (0, *got))


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
    v = classify_ms_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 2, cells)
    assert v.is_positive
    r0 = periodic_point(cycle4.sft, [0, 1, 2, 3])
    r1 = periodic_point(cycle4.sft, [1, 2, 3, 0])
    v = classify_ms_pair(cycle4.sft, cycle4.measure, r0, r1, 1, cycle4.cell_family)
    assert v.is_negative
    with pytest.raises(ValueError):
        classify_ms_pair(bernoulli.sft, bernoulli.measure, zeros, zeros, 2, cells)


def test_classify_ms_symmetry(golden):
    x = periodic_point(golden.sft, "0")
    y = periodic_point(golden.sft, "01")
    fwd = classify_ms_pair(golden.sft, golden.measure, x, y, 1, golden.cell_family)
    rev = classify_ms_pair(golden.sft, golden.measure, y, x, 1, golden.cell_family)
    assert fwd.classification == rev.classification == "positive"


def test_classify_ms_certifies_grid_eps_at_exact_target():
    # pi = (1/5, 4/5); the best gap is t = 1 with target mu([0]_0 ∩ [1]_1) =
    # 1/5 exactly, which certifies the grid value 0.2 (Fraction(0.2) > 1/5).
    sft = Sft(2, [[False, True], [True, True]])
    m = MarkovMeasure(sft, [["0", "1"], ["1/4", "3/4"]])
    x, y = periodic_point(sft, "01"), periodic_point(sft, "1")
    v = classify_ms_pair(sft, m, x, y, 0, [whole_space(sft)])
    assert v.is_positive and v.eps_certified == 0.2
    assert [(w["t"], w["target"]) for w in v.witnesses] == [(1, Fraction(1, 5))]


def _panel_ms_verdicts(systems):
    """(system, x, y, MS verdict) on criterion 6's 30 panel pairs at depth 2."""
    return [
        (system, x, y, classify_ms_pair(system.sft, system.measure, x, y, 2, system.cell_family))
        for system in systems
        for _label, x, y in canonical_pairs(system)
    ]


def test_classify_ms_samples_nothing(monkeypatch, systems):
    def sampled(*args, **kwargs):
        raise AssertionError("classify_ms_pair sampled")

    for name in ("sample_point", "find_sensitivity_witnesses", "orbit_indicator"):
        monkeypatch.setattr(sensitivity, name, sampled)
    verdicts = _panel_ms_verdicts(systems)
    assert len(verdicts) == 30
    assert all(v.is_negative == (system.id == "cycle4") for system, _x, _y, v in verdicts)


def test_classify_ms_witnesses_match_gap_oracle(systems):
    # Each witness is the first gap 1 <= t <= PAIR_BOUND with mu(A ∩ T^-t A) > 0
    # maximizing mu(Ux ∩ T^-t Uy), and its target is that measure.
    horizon = sensitivity.PAIR_BOUND + 1
    for system, x, y, v in _panel_ms_verdicts(systems):
        cells = {repr(c): c for c in system.cell_family}
        if v.is_positive:
            assert len(v.witnesses) == 3 * len(cells)
        for w in v.witnesses:
            cell = cells[w["cell"]]
            ux, uy = point_neighborhood(x, w["level"]), point_neighborhood(y, w["level"])
            admissible = gap_measures_oracle(system.measure, cell, cell, horizon)
            targets = gap_measures_oracle(system.measure, ux, uy, horizon)
            t = max((g for g in range(1, horizon) if admissible[g] > 0), key=targets.__getitem__)
            assert (w["s"], w["t"], w["target"]) == (0, t, targets[t]), (system.id, w)


def test_classify_diam_examples(bernoulli, golden, cycle4):
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    v = classify_diam_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 1, bernoulli.cell_family)
    assert v.is_positive and v.eps_certified == 0.5
    r0 = periodic_point(cycle4.sft, [0, 1, 2, 3])
    r2 = periodic_point(cycle4.sft, [2, 3, 0, 1])
    v = classify_diam_pair(cycle4.sft, cycle4.measure, r0, r2, 1, cycle4.cell_family)
    assert v.is_negative


def test_ms_positive_implies_diam_positive(systems):
    for system in systems:
        for label, x, y in canonical_pairs(system, 4):
            ms = classify_ms_pair(system.sft, system.measure, x, y, 1, system.cell_family)
            if ms.is_positive:
                diam = classify_diam_pair(system.sft, system.measure, x, y, 1, system.cell_family)
                assert diam.is_positive, (system.id, label)


def test_classifiers_refuse_before_any_level_work(monkeypatch, bernoulli):
    # x = y and a zero-measure cell are refused at the call: the kernels of
    # each classifier's first level fail if they run.
    def level_work(*args, **kwargs):
        raise AssertionError("level work before the refusal")

    monkeypatch.setattr(sensitivity, "_best_gap", level_work)
    monkeypatch.setattr(sensitivity, "_visit_predicate", level_work)
    monkeypatch.setattr(independence, "independence_density_profile", level_work)
    sft, m = bernoulli.sft, bernoulli.measure
    zeros, ones = periodic_point(sft, "0"), periodic_point(sft, "1")
    cells = list(bernoulli.cell_family) + [CylinderUnion(sft, [])]
    with pytest.raises(ValueError, match="pairs need x != y"):
        classify_in_pair(sft, m, zeros, zeros, 2)
    for classify in (classify_ms_pair, classify_diam_pair):
        with pytest.raises(ValueError, match="pairs need x != y"):
            classify(sft, m, zeros, zeros, 2, cells)
        with pytest.raises(ValueError, match="has measure zero"):
            classify(sft, m, zeros, ones, 2, cells)
        with pytest.raises(ValueError, match="cell family must be nonempty"):
            classify(sft, m, zeros, ones, 2, [])


def test_crosscheck_rows_are_the_classifier_verdicts(golden):
    # Each column is the verdict of a direct classifier call; the crosscheck
    # adds nothing of its own.
    sft, m, cells = golden.sft, golden.measure, golden.cell_family
    pairs = canonical_pairs(golden, 6)
    in_params = InPairParams(extra_e_maps=extra_table_e(m, 2, Fraction(1, 50)))
    rows = equivalence_crosscheck(golden, pairs, 2, in_params)
    expected = [
        CrosscheckRow(
            golden.id,
            label,
            classify_in_pair(sft, m, x, y, 2, in_params),
            classify_ms_pair(sft, m, x, y, 2, cells),
            classify_diam_pair(sft, m, x, y, 2, cells),
            separation_counts(m, point_neighborhood(x, separating_depth(x, y, 2))),
        )
        for label, x, y in pairs
    ]
    assert rows == expected


def _union_or_complement(sft, rng):
    """A union of 2-3 legal words of one width 1-3 at a start in -2..1, or its complement."""
    words = sft.legal_words(rng.randint(1, 3))
    chosen = rng.sample(words, min(len(words), rng.randint(2, 3)))
    u = CylinderUnion(sft, [(rng.randrange(-2, 2), w) for w in chosen])
    return u.complement() if rng.random() < 0.5 else u


def test_visit_predicate_matches_resolve(systems):
    """The visit predicate against resolving cell ∩ T^{-s} u, on cylinders,
    unions of 2-3 words and their complements, over the panel and cyclic-class
    SFTs: up to three periods of the orbit of the cell's last symbols past the
    shift where it cycles, and at every shift below 30 for cylinders."""
    rng = random.Random(23)
    sfts = [system.sft for system in systems] + [_cyclic_classes(5, (0, 2))[0], _cyclic_classes(20)[0]]
    for sft in sfts:
        words = [list(sft.legal_words(n)) for n in (1, 2, 3)]
        for _ in range(12):
            cell = cylinder(sft, 0, rng.choice(rng.choice(words)))
            u = cylinder(sft, rng.randrange(-2, 2), rng.choice(words[1]))
            pairs = [(cell, u, 30), (_union_or_complement(sft, rng), _union_or_complement(sft, rng), 0)]
            for cell, u, floor in pairs:
                if cell.is_empty:
                    continue
                pred = _visit_predicate(sft, cell, u)
                sets, cycle_start = sft.orbit(frozenset(w[-1] for w in cell.words))
                u_lo = u.support[0] if u.support else 0
                burn = max(0, cell.support[1] - u_lo + 1) + cycle_start
                for s in range(max(floor, burn + 3 * (len(sets) - cycle_start))):
                    expected = not resolve_constraints([(0, cell), (s, u)], sft).is_empty
                    assert pred(s) == expected, (sft, cell, u, s)


# ---------------------------------------------------------------------------
# Diam-mean profile
# ---------------------------------------------------------------------------


def test_diam_profile_whole_space(systems):
    for system in systems:
        prof = diam_mean_profile(system.sft, whole_space(system.sft))
        assert prof == Fraction(1)


def test_diam_profile_cylinder(bernoulli):
    prof = diam_mean_profile(bernoulli.sft, cylinder(bernoulli.sft, 0, "0"))
    assert prof == Fraction(1)


def test_diam_profile_singleton_cell(cycle4):
    prof = diam_mean_profile(cycle4.sft, cylinder(cycle4.sft, 0, [0]))
    assert prof == Fraction(0)


def _cyclic_classes(classes: int, wide=(0,)):
    """The SFT that steps every symbol of class c to every symbol of class
    c + 1 mod `classes`, where the classes in `wide` hold two symbols and
    the others one, with uniform transition rows; and each class's symbols."""
    members, k = [], 0
    for c in range(classes):
        size = 2 if c in wide else 1
        members.append(list(range(k, k + size)))
        k += size
    allowed = [[False] * k for _ in range(k)]
    for c in range(classes):
        for a in members[c]:
            for b in members[(c + 1) % classes]:
                allowed[a][b] = True
    sft = Sft(k, allowed)
    m = MarkovMeasure(sft, [[Fraction(int(v), sum(row)) for v in row] for row in allowed])
    return sft, m, members


def test_diam_profile_is_the_cycle_mean_of_diam_of_set(systems):
    """Past the burn-in diam(T^s a) repeats with the period p of the orbit
    of a's last symbols, and the profile is its mean over one period of
    exact diam_of_set values. Sets: unions of 1-3 legal words of width 1-3
    at starts -3..3, on the panel and on cyclic-class SFTs."""
    sfts = [system.sft for system in systems]
    sfts += [_cyclic_classes(5)[0], _cyclic_classes(5, (0, 2))[0], _cyclic_classes(20)[0]]
    rng = random.Random(29)
    for sft in sfts:
        for _ in range(25):
            words = sft.legal_words(rng.randint(1, 3))
            start = rng.randint(-3, 3)
            chosen = rng.sample(words, min(len(words), rng.randint(1, 3)))
            a = CylinderUnion(sft, [(start, w) for w in chosen])
            sets, cycle_start = sft.orbit(frozenset(w[-1] for w in a.words))
            p = len(sets) - cycle_start
            burn = max(0, a.support[1] + cycle_start + p)
            diams = [diam_of_set(a.translate(-s), sft) for s in range(burn, burn + 2 * p)]
            assert diams[:p] == diams[p:], (sft, a)
            assert diam_mean_profile(sft, a) == sum(diams[:p]) / p, (sft, a)


def test_diam_of_set_twenty_classes():
    """On 20 cyclic classes with two symbols in class 0, a one-symbol
    cylinder at 0 of class c is pinned until class 0 comes round, min(c,
    20 - c) coordinates away: classes 1, 10 and 19 give 1/2, 1/1024, 1/2."""
    sft, _m, members = _cyclic_classes(20)
    for c, diam in ((1, Fraction(1, 2)), (10, Fraction(1, 1024)), (19, Fraction(1, 2))):
        assert diam_of_set(cylinder(sft, 0, members[c]), sft) == diam


def test_diam_profile_twenty_classes():
    """On 20 cyclic classes with two symbols in class 0, every one-class
    cylinder has diameters 2^-d at circular distances d = 0, 1, 1, ..., 9,
    9, 10 from class 0: the mean is (3 - 3/1024) / 20."""
    sft, _m, members = _cyclic_classes(20)
    for c, symbols in enumerate(members):
        whole_class = CylinderUnion(sft, [(0, [b]) for b in symbols])
        for a in [cylinder(sft, 0, [b]) for b in symbols] + [whole_class]:
            assert diam_mean_profile(sft, a) == Fraction(3069, 20480), (c, a)


def test_classify_diam_certifies_a_floor_below_the_grid():
    """On 60 cyclic classes with two symbols in class 0, points of period 60
    that differ only in class 0 share each one-symbol cell at one shift in
    60: the floor 1/60 lies below every grid eps, and the level certifies
    it exactly instead of answering NEGATIVE."""
    sft, m, members = _cyclic_classes(60)
    rest = [b for symbols in members[1:] for b in symbols]
    x = periodic_point(sft, [members[0][0]] + rest)
    y = periodic_point(sft, [members[0][1]] + rest)
    v = classify_diam_pair(sft, m, x, y, 1, default_cell_family(m, 1))
    assert v.is_positive, v.note
    assert v.eps_certified == float(Fraction(1, 60))
    assert min(w["upper_density"] for w in v.witnesses) == float(Fraction(1, 60))


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict("positive", eps_certified=0.1, witnesses=())
    with pytest.raises(ValueError):
        Verdict("positive", eps_certified=None, witnesses=(1,))
    with pytest.raises(ValueError):
        Verdict("maybe")
