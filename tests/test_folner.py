import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shiftlab.folner import (
    FolnerWindows,
    PeriodicPredicate,
    birkhoff_average,
    density,
    density_from_indicator,
    membership_predicate,
    temperedness_constant,
)
from shiftlab.measures import measure_of, sample_point
from shiftlab.symbolic import (
    CylinderUnion,
    EventuallyPeriodic,
    cylinder,
    full_shift,
    point_in_set,
    resolve_constraints,
    whole_space,
)

from .oracles import orbit_density_oracle

def test_density_trivial_cases():
    est = density(lambda s: True, n_max=1000)
    assert est.lower == est.upper == 1.0
    est = density(PeriodicPredicate((), (True, False)), n_max=1000)
    assert est.exact == Fraction(1, 2)
    est = density(PeriodicPredicate((), (True, False, False, False)), n_max=100)
    assert est.exact == Fraction(1, 4)


def test_density_bounds_ordered():
    # A slowly alternating set: upper and lower separate.
    est = density(lambda s: (s // 100) % 2 == 0, n_max=2000)
    assert 0.0 <= est.lower <= est.upper <= 1.0
    assert est.upper - est.lower > 0.01


def test_density_complement_law_windowed():
    pred = PeriodicPredicate((True, False, False), (True, True, False))
    est = density(lambda s: pred(s), n_max=600)
    comp = density(lambda s: not pred(s), n_max=600)
    assert abs(est.upper - (1.0 - comp.lower)) < 1e-12
    assert abs(est.lower - (1.0 - comp.upper)) < 1e-12


def test_density_complement_law_exact():
    pred = PeriodicPredicate((), (True, True, False))
    comp = PeriodicPredicate((), (False, False, True))
    assert density(pred, n_max=600).exact + density(comp, n_max=600).exact == 1


def test_density_subadditive():
    p1 = PeriodicPredicate((), (True, False, False))
    p2 = PeriodicPredicate((), (False, True, False, False))
    union = density(lambda s: p1(s) or p2(s), n_max=900)
    d1 = density(p1, n_max=900)
    d2 = density(p2, n_max=900)
    assert union.upper <= d1.upper + d2.upper + 1e-12


def test_density_from_indicator_matches_loop():
    # A shorter window is a slice of hits; the tail starts at half of it.
    rng = random.Random(5)
    for n, n_max in ((1, 1), (10, 7), (1000, 1000), (999, 998), (2, 2)):
        hits = np.array([rng.random() < 0.3 for _ in range(n)])
        est = density_from_indicator(hits[:n_max])
        start = max(1, math.ceil(n_max / 2))
        averages = [int(hits[:m].sum()) / m for m in range(start, n_max + 1)]
        assert (est.lower, est.upper) == (min(averages), max(averages))


@pytest.mark.parametrize(
    "hits, field",
    [
        pytest.param(np.ones(0, dtype=bool), "hits", id="0-kwargs4-hits"),
        # A zero-length window is an empty slice of a longer indicator.
        pytest.param(np.ones(10, dtype=bool)[:0], "hits", id="0-kwargs5-hits"),
    ],
)
def test_density_from_indicator_rejects_bad_arguments(hits, field):
    with pytest.raises(ValueError, match=field):
        density_from_indicator(hits)


def test_temperedness_canonical_bounded():
    assert temperedness_constant(FolnerWindows.canonical_windows(), 100) <= 2.0


def test_temperedness_singleton_windows():
    singleton = FolnerWindows(lambda n: [0], "F_n = {0}")
    assert temperedness_constant(singleton, 20) == 1.0


def test_temperedness_lacunary_grows():
    lacunary = FolnerWindows(lambda n: range(n * n, n * n + n), "lacunary")
    small = temperedness_constant(lacunary, 10)
    large = temperedness_constant(lacunary, 40)
    assert large > small > 1.0


def test_birkhoff_trivial():
    sft = full_shift(2)
    zeros = EventuallyPeriodic(sft, "0", "", "0")
    c0 = cylinder(sft, 0, "0")
    c1 = cylinder(sft, 0, "1")
    for n in (10, 33, 100):
        assert birkhoff_average(zeros, c0, n) == 1
        assert birkhoff_average(zeros, c1, n) == 0


def test_birkhoff_period_two():
    sft = full_shift(2)
    alternating = EventuallyPeriodic(sft, "01", "", "01")
    c0 = cylinder(sft, 0, "0")
    for n in (10, 50, 200):
        assert birkhoff_average(alternating, c0, n) == Fraction(1, 2)


def test_birkhoff_rejects_empty_window():
    sft = full_shift(2)
    with pytest.raises(ValueError, match="empty"):
        birkhoff_average(EventuallyPeriodic(sft, "0", "", "0"), cylinder(sft, 0, "0"), 0)


def test_birkhoff_matches_loop_oracle(golden):
    p = sample_point(golden.measure, -3, 600, seed=21)
    target = cylinder(golden.sft, -1, "010")
    avg = birkhoff_average(p, target, 500)
    assert avg == orbit_density_oracle(p, target, 500)


def test_membership_predicate_periodic_exact():
    sft = full_shift(2)
    p = EventuallyPeriodic(sft, "011", "0", "011")
    target = cylinder(sft, 0, "01")
    pred = membership_predicate(p, target)
    assert isinstance(pred, PeriodicPredicate)
    for s in range(40):
        assert pred(s) == point_in_set(p, target, s)


def _random_periodic_point(rng, sft):
    """A legal point with random left tail, core and right tail, shifted by -6..6."""
    legal = [w for n in range(1, 5) for w in sft.legal_words(n)]
    while True:
        left, right = rng.choice(legal), rng.choice(legal)
        core = rng.choice([()] + legal)
        try:
            return EventuallyPeriodic(sft, left, core, right).shifted(rng.randint(-6, 6))
        except ValueError:
            continue


def test_membership_predicate_matches_point_in_set(systems):
    """The periodic form agrees with point_in_set at every g < 60, on empty,
    full, single-cylinder and bridged sets of the three panel systems."""
    rng = random.Random(19)
    for system in systems:
        sft = system.sft
        legal = [w for n in range(1, 4) for w in sft.legal_words(n)]
        for _ in range(50):
            p = _random_periodic_point(rng, sft)
            single = cylinder(sft, rng.randint(-3, 3), rng.choice(legal))
            first, second = rng.choice(legal), rng.choice(legal)
            start = rng.randint(-3, 3)
            apart = start + len(first) + rng.randint(1, 3)
            bridged = resolve_constraints(
                [(0, cylinder(sft, start, first)), (apart, cylinder(sft, 0, second))], sft, gap_cap=0
            )
            for target in (CylinderUnion(sft, []), whole_space(sft), single, bridged):
                pred = membership_predicate(p, target)
                assert isinstance(pred, PeriodicPredicate)
                for g in range(60):
                    assert pred(g) == point_in_set(p, target, g), (system.id, p, target, g)


def test_ergodic_theorem_desk_scale(systems):
    """Birkhoff averages of sampled points approach the measure: 19/20 seeds."""
    n = 100_000
    for system in systems:
        cylinders = [
            cylinder(system.sft, 0, w)
            for length in (1, 2, 3)
            for w in system.sft.legal_words(length)
        ]
        cylinders = [c for c in cylinders if measure_of(system.measure, c) > 0]
        ok = 0
        for seed in range(20):
            p = sample_point(system.measure, -3, n + 3, seed=1_000_000 + seed)
            good = all(
                abs(float(birkhoff_average(p, c, n) - measure_of(system.measure, c)))
                <= 0.02
                for c in cylinders
            )
            ok += good
        assert ok >= 19, system.id
