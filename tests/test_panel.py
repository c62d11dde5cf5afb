from fractions import Fraction

import pytest

from shiftlab.config import parse_system, serialize_system
from shiftlab.measures import measure_of
from shiftlab.panel import canonical_pairs, get_system, panel_systems
from shiftlab.symbolic import points_provably_equal


def test_three_systems():
    systems = panel_systems()
    assert [s.id for s in systems] == ["bernoulli", "golden_mean", "cycle4"]


def test_golden_stationary():
    assert get_system("golden_mean").measure.stationary == (
        Fraction(2, 3),
        Fraction(1, 3),
    )


def test_unknown_system():
    with pytest.raises(KeyError):
        get_system("nope")


def test_pairs_are_valid_and_distinct(systems):
    for system in systems:
        pairs = canonical_pairs(system, 10)
        assert len(pairs) == 10
        labels = [label for label, _x, _y in pairs]
        assert len(set(labels)) == 10
        for _label, x, y in pairs:
            assert not points_provably_equal(x, y)
            for n in range(-6, 6):
                a, b = x.eval(n), x.eval(n + 1)
                assert system.sft.allowed[a][b]


def test_bernoulli_generator_pair_first():
    pairs = canonical_pairs(get_system("bernoulli"), 10)
    label, x, y = pairs[0]
    assert label == "per(0)|per(1)"
    assert x.eval(0) == 0 and y.eval(0) == 1


def test_cell_families_positive_measure(systems):
    for system in systems:
        assert system.cell_family
        for cell in system.cell_family:
            assert measure_of(system.measure, cell) > 0


def test_system_roundtrip(systems):
    for system in systems:
        back = parse_system(serialize_system(system), "roundtrip")
        assert back.sft == system.sft
        assert back.measure.transition == system.measure.transition
        assert back.measure.stationary == system.measure.stationary


def test_serialized_rationals_are_strings(systems):
    for system in systems:
        spec = serialize_system(system)
        for row in spec["transition"]:
            for value in row:
                assert isinstance(value, str) and "/" in value
