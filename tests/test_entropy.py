import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab.entropy import (
    GREEDY_LEN,
    JOIN_ASSIGNMENT_CAP,
    SEPARATION_HORIZONS,
    Partition,
    _Join,
    _join_profile,
    _mass_entropy,
    _masses,
    crosscheck_hms_hap,
    default_cell_family,
    df_estimate,
    entropy_from_measures,
    generator_partition,
    greedy_entropy_sequence,
    ms_function_test,
    separation_count,
    separation_counts,
    sequence_entropy_profile,
    shannon_entropy,
    two_set_partition,
)
from shiftlab.errors import CapExceededError
from shiftlab.measures import measure_of
from shiftlab.panel import bernoulli_system, cycle4_system, golden_mean_system
from shiftlab.symbolic import CylinderUnion, EventuallyPeriodic, cylinder, whole_space
from shiftlab.verdicts import MsFunctionParams
from .oracles import (
    constraint_span,
    gap_measures_oracle,
    greedy_entropy_oracle,
    join_entropy_oracle,
    separation_count_oracle,
    three_symbol_chain,
)


def entropy_of(measures):
    return -sum(float(mu) * math.log(mu) for mu in measures if mu > 0)


def join_measures(m, p, seq):
    """The exact join measures after every prefix of seq, from the integer
    engine, with each lumped mass repeated once per assignment it stands for."""
    return [
        [Fraction(x, den) for x, count in _masses(live) for _ in range(count)]
        for live, den in _join_profile(m, p, seq)
    ]


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
    assert join_measures(bernoulli.measure, p, [0]) == [[Fraction(1, 2)] * 2]
    square = join_measures(bernoulli.measure, p, [0, 1])[-1]
    assert square == [Fraction(1, 4)] * 4
    gm = join_measures(golden.measure, generator_partition(golden.sft), [0, 1])[-1]
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
# The panel measures and a chain with non-dyadic transition denominators.
JOIN_MEASURES = tuple(system.measure for system in PANEL) + (three_symbol_chain(),)


def mixed_support_partition(sft):
    """x_0 = 0 split by x_1 (support [0, 1]), x_0 != 0 split by x_{-1} (support [-1, 0])."""
    k = sft.alphabet_size
    right = [cylinder(sft, 0, [0, 0])]
    right.append(CylinderUnion(sft, [(0, [0, b]) for b in range(1, k)]))
    left = [CylinderUnion(sft, [(-1, [b, a]) for a in range(1, k)]) for b in range(k)]
    return Partition([a for a in right + left if not a.is_empty])


def random_partition(draw, sft, kinds=("generators", "two_set", "mixed")):
    kind = draw(st.sampled_from(kinds))
    if kind == "generators":
        return generator_partition(sft)
    if kind == "mixed":
        return mixed_support_partition(sft)
    words = list(sft.legal_words(draw(st.integers(1, 3))))
    word = draw(st.sampled_from(words))
    return two_set_partition(cylinder(sft, draw(st.integers(-2, 2)), word))


def oracle_room(sft, p) -> int:
    """How far a sequence may spread past the partition's support while the
    oracle's k^span legal words stay within 2^10."""
    k = sft.alphabet_size
    lo, hi = constraint_span([(0, a) for a in p.atoms])
    return max(n for n in range(1, 11) if k**n <= 1 << 10) - (hi - lo + 1)


@st.composite
def join_cases(draw):
    m = draw(st.sampled_from(JOIN_MEASURES))
    p = random_partition(draw, m.sft)
    room = oracle_room(m.sft, p)
    seq = [draw(st.integers(0, 2))]
    for g in draw(st.lists(st.integers(1, 4), max_size=4)):
        if seq[-1] + g - seq[0] > room:
            break
        seq.append(seq[-1] + g)
    return m, p, seq


@settings(max_examples=100, deadline=None)
@given(join_cases())
def test_join_profile_matches_word_oracle(case):
    m, p, seq = case
    p.validate_under(m)
    profile = join_measures(m, p, seq)
    rows = sequence_entropy_profile(m, p, seq).rows
    assert len(profile) == len(rows) == len(seq)
    for n, measures in enumerate(profile, start=1):
        oracle = join_entropy_oracle(m, p.atoms, seq[:n])
        assert sorted(measures) == sorted(oracle)
        assert rows[n - 1][1] == entropy_from_measures(oracle)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_greedy_resume_matches_oracle(data):
    # Each trial of the greedy resumes from the chosen shifts below it; the
    # oracle joins every trial afresh by classifying words.
    m = data.draw(st.sampled_from(JOIN_MEASURES))
    p = random_partition(data.draw, m.sft, ("generators", "two_set"))
    room = oracle_room(m.sft, p)
    assume(room >= 1)
    horizon = data.draw(st.integers(1, min(room + 1, 6)))
    length = data.draw(st.integers(1, min(horizon, 4)))
    assert greedy_entropy_sequence(m, p, length, horizon) == greedy_entropy_oracle(
        m, p.atoms, length, horizon
    )


def test_greedy_resume_after_insertion_below_chosen():
    # On this partition a shift lands below an already chosen one before the
    # last step, so later trials resume from joins recomputed after it.
    m = three_symbol_chain()
    p = two_set_partition(cylinder(m.sft, 0, [2]))
    assert greedy_entropy_sequence(m, p, 4, 6) == greedy_entropy_oracle(m, p.atoms, 4, 6)


def test_greedy_cap_refuses_through_resume(bernoulli):
    # Ties keep the greedy at 0, 1, 2, ...; the 15th shift is a resumed step
    # from 2^14 live atoms to 2^15.
    with pytest.raises(CapExceededError):
        greedy_entropy_sequence(bernoulli.measure, generator_partition(bernoulli.sft), 15, 15)


def test_profile_cap_refuses(bernoulli):
    assert JOIN_ASSIGNMENT_CAP == 2**14
    with pytest.raises(CapExceededError):
        sequence_entropy_profile(
            bernoulli.measure, generator_partition(bernoulli.sft), range(15)
        )


def expanded_entropy(masses, den):
    """-math.fsum over the terms of the reduced measures mass / den, each
    listed once per count: the sum a lumped readout must reproduce."""
    terms = []
    for x, count in masses:
        g = math.gcd(x, den)
        n, d = x // g, den // g
        terms += [(n / d) * (math.log(n) - math.log(d))] * count
    return -math.fsum(terms)


@st.composite
def weighted_masses(draw):
    # Denominators up to 2^1130 put mass / den, and the terms, below the
    # smallest normal float (2^-1022) and into the subnormals.
    shift = draw(st.one_of(st.integers(0, 1130), st.integers(1020, 1130)))
    den = draw(st.integers(1, 1 << 20)) << shift
    small = st.integers(1, min(den, 1 << 64))
    masses = draw(st.lists(
        st.tuples(st.one_of(small, st.integers(1, den)), st.integers(1, JOIN_ASSIGNMENT_CAP)),
        min_size=1, max_size=4,
    ))
    return masses, den


@settings(max_examples=150, deadline=None)
@given(weighted_masses())
def test_mass_entropy_weights_counts_exactly(case):
    masses, den = case
    assert _mass_entropy(masses, den).hex() == expanded_entropy(masses, den).hex()


def test_mass_entropy_near_underflow():
    den = 1 << 1100
    masses = [(1, JOIN_ASSIGNMENT_CAP), (3, 7), ((1 << 60) + 1, 1), (den - (1 << 80), 2)]
    assert _mass_entropy(masses, den).hex() == expanded_entropy(masses, den).hex()
    assert _mass_entropy([(den, 1)], den).hex() == expanded_entropy([(den, 1)], den).hex()


LUMP_SEQUENCE = (0, 1, 2, 3, 5, 8, 9, 12, 13, 17, 20, 21, 25, 30)


@pytest.mark.parametrize("system, directions, h14", [
    (bernoulli_system(), 2, "0x1.3687a9f1af2b1p+3"),
    (golden_mean_system(), 2, "0x1.f3905444216a5p+2"),
    (cycle4_system(), 4, "0x1.62e42fefa39efp+0"),
])
def test_generator_join_stays_lumped(system, directions, h14):
    # H_14 is the value of the unlumped engine, which held one vector per
    # join atom (2^14 on Bernoulli).
    m, p = system.measure, generator_partition(system.sft)
    profile = sequence_entropy_profile(m, p, LUMP_SEQUENCE)
    assert profile.rows[-1][1].hex() == h14
    assert len(profile.join_sizes) == 14
    assert all(d <= directions for d, _a in profile.join_sizes)
    if system.id == "bernoulli":
        assert profile.join_sizes == tuple((2, 2**n) for n in range(1, 15))


def test_yielded_join_states_never_change():
    # Greedy trials resume from saved states, so a later step must build
    # new directions and scales, never edit the ones it started from.
    m = three_symbol_chain()
    p = mixed_support_partition(m.sft)
    seq = (0, 1, 2, 4, 5, 9)
    join = _Join(m, p)
    states, copies = [], []
    for live in join.run(seq, [], 0):
        states.append(live)
        copies.append(copy.deepcopy(live))
    assert states == copies
    for i in range(1, len(seq)):
        list(join.run(seq, states[i - 1], i))
    assert states == copies


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


def _separation_base(data, m):
    """The whole space, the empty set, or a union of one to three cylinders of
    width <= 3 at starts -2 to 1."""
    pick = data.draw(st.integers(0, 9))
    if pick < 2:
        return whole_space(m.sft) if pick else CylinderUnion(m.sft, [])
    cylinders = []
    for _ in range(data.draw(st.integers(1, 3))):
        word = data.draw(st.sampled_from(list(m.sft.legal_words(data.draw(st.integers(1, 3))))))
        cylinders.append((data.draw(st.integers(-2, 1)), word))
    return CylinderUnion(m.sft, cylinders)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_separation_count_matches_fraction_greedy_oracle(data):
    # eps^2 is the crosscheck's mu(1 - mu), a drawn fraction, or a squared
    # distance the base reaches exactly, where only strict separation counts.
    m = data.draw(st.sampled_from(JOIN_MEASURES))
    base = _separation_base(data, m)
    horizon = data.draw(st.integers(1, 64))
    mu = measure_of(m, base)
    distances = [2 * mu - 2 * g for g in gap_measures_oracle(m, base, base, horizon)]
    eps_sq = data.draw(
        st.one_of(
            st.just(mu * (1 - mu)),
            st.fractions(min_value=Fraction(1, 1000), max_value=2),
            st.sampled_from(distances),
        )
    )
    expected = separation_count_oracle(m, base, horizon, eps_sq)
    assert separation_count(m, base, horizon, eps_sq=eps_sq) == expected


def test_separation_counts_equal_separate_counts():
    for m in JOIN_MEASURES:
        bases = [
            cylinder(m.sft, start, w)
            for start in (-1, 0)
            for n in (1, 2, 3)
            for w in m.sft.legal_words(n)
        ]
        bases += [c.union(d) for c, d in zip(bases, bases[2:])]
        for base in bases:
            mu = measure_of(m, base)
            expected = tuple(
                separation_count(m, base, h, eps_sq=mu * (1 - mu)) for h in SEPARATION_HORIZONS
            )
            assert separation_counts(m, base) == expected


# ---------------------------------------------------------------------------
# d_f estimates
# ---------------------------------------------------------------------------


def test_df_examples(bernoulli):
    sft = bernoulli.sft
    zeros = EventuallyPeriodic(sft, "0", "", "0")
    ones = EventuallyPeriodic(sft, "1", "", "1")
    alt = EventuallyPeriodic(sft, "01", "", "01")
    b = cylinder(sft, 0, "0")
    assert df_estimate(zeros, zeros, b, 2000) == 0
    assert df_estimate(zeros, ones, b, 2000) == 1
    assert df_estimate(alt, zeros, b, 2000) == pytest.approx(math.sqrt(0.5), abs=1e-3)


def test_df_symmetric_and_bounded(bernoulli):
    sft = bernoulli.sft
    x = EventuallyPeriodic(sft, "011", "00", "101")
    y = EventuallyPeriodic(sft, "0", "11", "10")
    b = cylinder(sft, 0, "01")
    dxy = df_estimate(x, y, b, 3000)
    dyx = df_estimate(y, x, b, 3000)
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


def test_crosscheck_profile_reads_greedy_saved_joins(systems):
    """The Kushnirenko arm's profile comes from the greedy's saved joins; it
    must equal a fresh profile along the chosen sequence, float for float."""
    cases = 0
    for system in systems:
        m = system.measure
        for cell in default_cell_family(m)[1:]:
            report = crosscheck_hms_hap(
                m, cell, cell_family=[whole_space(m.sft)],
                ms_params=MsFunctionParams(pair_attempts=1, density_horizon=200),
            )
            fresh = sequence_entropy_profile(m, two_set_partition(cell), report.greedy_sequence)
            assert len(report.greedy_sequence) == GREEDY_LEN
            assert report.entropy_profile.rows == fresh.rows
            cases += 1
    assert cases == 19


def test_join_singleton_sequence_is_partition_itself(bernoulli, golden):
    for m, p in (
        (bernoulli.measure, generator_partition(bernoulli.sft)),
        (golden.measure, two_set_partition(cylinder(golden.sft, -1, "01"))),
    ):
        assert sorted(join_measures(m, p, [0])[0]) == sorted(measure_of(m, a) for a in p.atoms)


def test_greedy_length_above_horizon_refuses(bernoulli):
    with pytest.raises(ValueError):
        greedy_entropy_sequence(bernoulli.measure, generator_partition(bernoulli.sft), 4, 3)
