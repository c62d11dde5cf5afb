import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.entropy import (
    JOIN_ASSIGNMENT_CAP,
    Partition,
    _join_profile,
    crosscheck_hms_hap,
    default_cell_family,
    df_estimate,
    generator_partition,
    greedy_entropy_sequence,
    ms_function_test,
    separation_count,
    sequence_entropy_profile,
    shannon_entropy,
    two_set_partition,
)
from shiftlab.errors import CapExceededError
from shiftlab.folner import FolnerWindows
from shiftlab.measures import measure_of
from shiftlab.panel import bernoulli_system, cycle4_system, golden_mean_system
from shiftlab.symbolic import Cylinder, CylinderUnion, EventuallyPeriodic, cylinder, whole_space
from .oracles import constraint_span, join_entropy_oracle

W = FolnerWindows.canonical_windows()


def entropy_of(measures):
    return -sum(float(mu) * math.log(mu) for mu in measures if mu > 0)


# ---------------------------------------------------------------------------
# Shannon entropy and joins
# ---------------------------------------------------------------------------


def test_shannon_whole_space(bernoulli):
    assert shannon_entropy(bernoulli.measure, Partition([whole_space(bernoulli.sft)])) == 0


def test_shannon_generators(bernoulli, golden):
    assert shannon_entropy(
        bernoulli.measure, generator_partition(bernoulli.sft)
    ) == pytest.approx(math.log(2), abs=1e-14)
    expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
    assert shannon_entropy(
        golden.measure, generator_partition(golden.sft)
    ) == pytest.approx(expected, abs=1e-13)


def test_partition_validation(bernoulli, golden):
    generator_partition(golden.sft).validate_under(golden.measure)
    overlapping = Partition(
        [cylinder(bernoulli.sft, 0, "0"), cylinder(bernoulli.sft, 0, "00")]
    )
    with pytest.raises(ValueError):
        overlapping.validate_under(bernoulli.measure)
    not_covering = Partition([cylinder(bernoulli.sft, 0, "0")])
    with pytest.raises(ValueError):
        not_covering.validate_under(bernoulli.measure)


def test_join_examples(bernoulli, golden):
    p = generator_partition(bernoulli.sft)
    assert _join_profile(bernoulli.measure, p, [0]) == [[Fraction(1, 2)] * 2]
    square = _join_profile(bernoulli.measure, p, [0, 1])[-1]
    assert square == [Fraction(1, 4)] * 4
    gm = _join_profile(golden.measure, generator_partition(golden.sft), [0, 1])[-1]
    assert sorted(gm) == [Fraction(1, 3)] * 3


def test_profile_monotone(golden):
    p = generator_partition(golden.sft)
    seq = [0, 1, 3, 4, 6, 9, 11, 12]
    profile = sequence_entropy_profile(golden.measure, p, seq)
    hs = [h for _n, h, _r in profile.rows]
    for a, b in zip(hs, hs[1:]):
        assert b >= a - 1e-12


def test_join_subadditive(golden):
    # H(join of S) <= H(join of prefix) + H(join of tail segment).
    p = generator_partition(golden.sft)
    seq = (0, 1, 3, 4, 6, 9, 11, 12)
    hs = [h for _n, h, _r in sequence_entropy_profile(golden.measure, p, seq).rows]
    for cut in range(1, len(seq)):
        tail = seq[cut:]
        h_tail = sequence_entropy_profile(golden.measure, p, tail).rows[-1][1]
        assert hs[-1] <= hs[cut - 1] + h_tail + 1e-9


def test_profile_subadditive_arithmetic(golden):
    # Along arithmetic sequences the tail join is a translate of the prefix
    # join, so the prefix profile itself is subadditive: H_{n+m} <= H_n + H_m.
    p = generator_partition(golden.sft)
    for step in (1, 2, 3):
        seq = [step * i for i in range(12 // step)]
        hs = [h for _n, h, _r in sequence_entropy_profile(golden.measure, p, seq).rows]
        for n in range(1, len(seq)):
            for m in range(1, len(seq) - n + 1):
                assert hs[n + m - 1] <= hs[n - 1] + hs[m - 1] + 1e-9


def test_profile_matches_word_oracle(golden):
    p = generator_partition(golden.sft)
    seq = (0, 2, 5)
    profile = sequence_entropy_profile(golden.measure, p, seq)
    oracle_measures = join_entropy_oracle(golden.measure, p.atoms, seq)
    assert profile.rows[-1][1] == pytest.approx(entropy_of(oracle_measures), abs=1e-12)


def test_profile_any_sequence_full_shift(bernoulli):
    rng = random.Random(5)
    p = generator_partition(bernoulli.sft)
    for _ in range(3):
        seq = sorted(rng.sample(range(60), 10))
        profile = sequence_entropy_profile(bernoulli.measure, p, seq)
        for n, h, rate in profile.rows:
            assert rate == pytest.approx(math.log(2), abs=1e-12)


PANEL = (bernoulli_system(), golden_mean_system(), cycle4_system())


def mixed_support_partition(sft):
    """x_0 = 0 split by x_1 (support [0, 1]), x_0 != 0 split by x_{-1} (support [-1, 0])."""
    k = sft.alphabet_size
    right = [cylinder(sft, 0, [0, 0])]
    right.append(CylinderUnion(sft, [Cylinder(sft, 0, [0, b]) for b in range(1, k)]))
    left = [
        CylinderUnion(sft, [Cylinder(sft, -1, [b, a]) for a in range(1, k)]) for b in range(k)
    ]
    return Partition([a for a in right + left if not a.is_empty])


@st.composite
def join_cases(draw):
    system = draw(st.sampled_from(PANEL))
    sft = system.sft
    kind = draw(st.sampled_from(("generators", "two_set", "mixed")))
    if kind == "generators":
        p = generator_partition(sft)
    elif kind == "mixed":
        p = mixed_support_partition(sft)
    else:
        words = list(sft.legal_words(draw(st.integers(1, 3))))
        word = draw(st.sampled_from(words))
        p = two_set_partition(cylinder(sft, draw(st.integers(-2, 2)), word))
    # k^span bounds the legal words the oracle enumerates: keep it within 2^10.
    k = sft.alphabet_size
    lo, hi = constraint_span([(0, a) for a in p.atoms])
    room = max(n for n in range(1, 11) if k**n <= 1 << 10) - (hi - lo + 1)
    seq = [draw(st.integers(0, 2))]
    for g in draw(st.lists(st.integers(1, 4), max_size=4)):
        if seq[-1] + g - seq[0] > room:
            break
        seq.append(seq[-1] + g)
    return system, p, seq


@settings(max_examples=100, deadline=None)
@given(join_cases())
def test_join_profile_matches_word_oracle(case):
    system, p, seq = case
    p.validate_under(system.measure)
    profile = _join_profile(system.measure, p, seq)
    assert len(profile) == len(seq)
    for n, measures in enumerate(profile, start=1):
        oracle = join_entropy_oracle(system.measure, p.atoms, seq[:n])
        assert sorted(measures) == sorted(oracle)


def test_profile_cap_refuses(bernoulli):
    assert JOIN_ASSIGNMENT_CAP == 2**14
    with pytest.raises(CapExceededError):
        sequence_entropy_profile(
            bernoulli.measure, generator_partition(bernoulli.sft), range(15)
        )


def test_one_atom_partition_zero(cycle4):
    profile = sequence_entropy_profile(
        cycle4.measure, Partition([whole_space(cycle4.sft)]), [0, 1, 2]
    )
    assert all(h == 0 for _n, h, _r in profile.rows)


# ---------------------------------------------------------------------------
# Separation counts
# ---------------------------------------------------------------------------


def test_separation_whole_space(bernoulli):
    assert separation_count(bernoulli.measure, whole_space(bernoulli.sft), 50, 0.3) == 1


def test_separation_monotonicity(golden):
    base = cylinder(golden.sft, 0, "0")
    counts = [separation_count(golden.measure, base, h, 0.4) for h in (8, 16, 32, 64)]
    assert counts == sorted(counts)
    by_eps = [
        separation_count(golden.measure, base, 32, eps) for eps in (0.1, 0.3, 0.5, 0.9)
    ]
    assert by_eps == sorted(by_eps, reverse=True)


def test_separation_exact_threshold(bernoulli):
    base = cylinder(bernoulli.sft, 0, "0")
    # Pairwise squared distance is exactly 1/2: eps^2 below it keeps all.
    assert separation_count(bernoulli.measure, base, 40, eps_sq=Fraction(49, 100) / 2) == 40
    assert separation_count(bernoulli.measure, base, 40, eps_sq=Fraction(1, 2)) == 1


# ---------------------------------------------------------------------------
# d_f estimates
# ---------------------------------------------------------------------------


def test_df_examples(bernoulli):
    sft = bernoulli.sft
    zeros = EventuallyPeriodic(sft, "0", "", "0")
    ones = EventuallyPeriodic(sft, "1", "", "1")
    alt = EventuallyPeriodic(sft, "01", "", "01")
    b = cylinder(sft, 0, "0")
    assert df_estimate(zeros, zeros, b, W, 2000) == 0
    assert df_estimate(zeros, ones, b, W, 2000) == 1
    assert df_estimate(alt, zeros, b, W, 2000) == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_df_symmetric_and_bounded(bernoulli):
    sft = bernoulli.sft
    x = EventuallyPeriodic(sft, "011", "00", "101")
    y = EventuallyPeriodic(sft, "0", "11", "10")
    b = cylinder(sft, 0, "01")
    dxy = df_estimate(x, y, b, W, 3000)
    dyx = df_estimate(y, x, b, W, 3000)
    assert dxy == dyx <= 1.0


# ---------------------------------------------------------------------------
# Mean-sensitive functions and the dichotomy cross-check
# ---------------------------------------------------------------------------


def test_ms_function_constant_indicators(bernoulli, golden):
    cells = default_cell_family(bernoulli.measure, 1)
    v = ms_function_test(bernoulli.measure, whole_space(bernoulli.sft), cells)
    assert v.is_negative
    empty = cylinder(golden.sft, 0, "11")
    v = ms_function_test(golden.measure, empty, default_cell_family(golden.measure, 1))
    assert v.is_negative


def test_ms_function_bernoulli_positive(bernoulli):
    cells = [
        cylinder(bernoulli.sft, 0, w)
        for length in (1, 2)
        for w in bernoulli.sft.legal_words(length)
    ]
    v = ms_function_test(bernoulli.measure, cylinder(bernoulli.sft, 0, "0"), cells)
    assert v.is_positive and v.eps_certified >= 0.2


def test_ms_function_cycle_negative(cycle4):
    cells = [cylinder(cycle4.sft, 0, [a]) for a in range(4)]
    v = ms_function_test(cycle4.measure, cylinder(cycle4.sft, 0, [0]), cells)
    assert v.is_negative


def test_greedy_sequence_ties_first_index(bernoulli):
    p = generator_partition(bernoulli.sft)
    assert greedy_entropy_sequence(bernoulli.measure, p, 4, 10) == (0, 1, 2, 3)


def test_crosscheck_agreement(bernoulli, golden, cycle4):
    pos = crosscheck_hms_hap(bernoulli.measure, cylinder(bernoulli.sft, 0, "0"))
    assert pos.agree and pos.sensitive
    gm = crosscheck_hms_hap(golden.measure, cylinder(golden.sft, 0, "0"))
    assert gm.agree and gm.sensitive
    neg = crosscheck_hms_hap(cycle4.measure, cylinder(cycle4.sft, 0, [0]))
    assert neg.agree and not neg.sensitive
    trivially = crosscheck_hms_hap(bernoulli.measure, whole_space(bernoulli.sft))
    assert trivially.agree and not trivially.sensitive


def test_join_singleton_sequence_is_partition_itself(bernoulli, golden):
    for m, p in (
        (bernoulli.measure, generator_partition(bernoulli.sft)),
        (golden.measure, two_set_partition(cylinder(golden.sft, -1, "01"))),
    ):
        assert sorted(_join_profile(m, p, [0])[0]) == sorted(measure_of(m, a) for a in p.atoms)


def test_greedy_length_above_horizon_refuses(bernoulli):
    with pytest.raises(ValueError):
        greedy_entropy_sequence(bernoulli.measure, generator_partition(bernoulli.sft), 4, 3)
