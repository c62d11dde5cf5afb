import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftlab.independence as ind
from shiftlab.independence import (
    EXHAUSTIVE_WINDOW_CAP,
    TableE,
    bad_constant_e,
    classify_in_pair,
    e_min_measure,
    full_e,
    independence_density_profile,
    is_independence_set,
    max_independence_subset,
    point_neighborhood,
    random_table_e,
    ratio_meets,
    separating_depth,
)
from shiftlab.measures import MarkovMeasure, _gap_nums, measure_of, measure_of_constraints
from shiftlab.panel import canonical_pairs, periodic_point
from shiftlab.symbolic import CylinderUnion, Sft, cylinder, resolve_constraints, whole_space
from shiftlab.verdicts import DEFAULT_EPS_GRID, NEGATIVE, POSITIVE, InPairParams, Verdict

from .oracles import independence_oracle, legal_words, sweep_oracle


def _random_union(rng, sft, max_len=2):
    words = [w for length in range(1, max_len + 1) for w in sft.legal_words(length)]
    picks = [
        (rng.randrange(-2, 2), words[rng.randrange(len(words))]) for _ in range(rng.randrange(1, 3))
    ]
    return CylinderUnion(sft, picks)


def _wide_target(rng, sft):
    """A union up to width 3, the whole space, or a two-block bridged set."""
    roll = rng.random()
    if roll < 0.2:
        return whole_space(sft)
    if roll < 0.4:
        gap = rng.randrange(2, 4)
        return resolve_constraints(
            [(0, _random_union(rng, sft, 1)), (gap, _random_union(rng, sft, 1))], sft, gap_cap=0
        )
    return _random_union(rng, sft, max_len=3)


# ---------------------------------------------------------------------------
# is_independence_set
# ---------------------------------------------------------------------------


def test_examples_full_shift(bernoulli):
    sft = bernoulli.sft
    a0 = cylinder(sft, 0, "0")
    a1 = cylinder(sft, 0, "1")
    assert is_independence_set(sft, a0, a1, [0, 1, 2], full_e(sft))


def test_examples_golden(golden):
    sft = golden.sft
    a0 = cylinder(sft, 0, "0")
    a1 = cylinder(sft, 0, "1")
    assert not is_independence_set(sft, a0, a1, [0, 1], full_e(sft))
    assert is_independence_set(sft, a0, a1, [0, 2], full_e(sft))


def test_empty_set_and_empty_target(golden):
    sft = golden.sft
    a0 = cylinder(sft, 0, "0")
    empty = cylinder(sft, 0, "11")
    assert is_independence_set(sft, a0, a0, [], full_e(sft))
    assert not is_independence_set(sft, empty, a0, [0], full_e(sft))


def test_union_targets_past_assignment_enumeration(bernoulli):
    """2^21 assignments of union targets, decided without enumerating them."""
    sft = bernoulli.sft
    u = cylinder(sft, 0, "00").union(cylinder(sft, 0, "11"))
    v = cylinder(sft, 0, "01").union(cylinder(sft, 0, "10"))
    assert is_independence_set(sft, u, v, range(21), full_e(sft))
    assert not is_independence_set(sft, u, v, range(21), TableE(u))


def test_whole_space_target_imposes_nothing(golden):
    """Against the whole space only the other target (and E) constrains."""
    sft = golden.sft
    one = cylinder(sft, 0, "1")
    assert is_independence_set(sft, whole_space(sft), one, range(0, 41, 2), full_e(sft))
    assert not is_independence_set(sft, whole_space(sft), one, [0, 1], full_e(sft))


def test_checker_matches_word_oracle(systems):
    rng = random.Random(97)
    for _ in range(250):
        system = systems[rng.randrange(3)]
        sft = system.sft
        a1 = _random_union(rng, sft)
        a2 = _random_union(rng, sft)
        i_set = sorted(rng.sample(range(7), rng.randrange(1, 4)))
        if rng.random() < 0.4:
            e = full_e(sft)
        else:
            e = TableE(_random_union(rng, sft).complement())
            if e.default.is_empty:
                continue
        got = is_independence_set(sft, a1, a2, i_set, e)
        want = independence_oracle(sft, a1, a2, i_set, e)
        assert got == want, (system.id, a1, a2, i_set, e.describe())


def test_checker_matches_oracle_with_table_e(golden):
    rng = random.Random(31)
    sft = golden.sft
    for _ in range(60):
        a1 = cylinder(sft, 0, "0")
        a2 = cylinder(sft, 0, "1")
        overrides = tuple(
            (s, _random_union(rng, sft).complement())
            for s in sorted(rng.sample(range(6), 2))
        )
        if any(v.is_empty for _s, v in overrides):
            continue
        e = TableE(default=whole_space(sft), overrides=overrides)
        i_set = sorted(rng.sample(range(6), rng.randrange(1, 5)))
        assert is_independence_set(sft, a1, a2, i_set, e) == independence_oracle(
            sft, a1, a2, i_set, e
        )


def test_e_sets_differing_only_in_start_both_count(cycle4):
    """E sets at starts -1 and -2 share a hash (hash(-1) == hash(-2)); both constrain."""
    sft = cycle4.sft

    def even(start):
        return cylinder(sft, start, [0]).union(cylinder(sft, start, [2]))

    e = TableE(default=whole_space(sft), overrides=((0, even(-2)), (4, even(-1))))
    two = cylinder(sft, 0, [2])
    assert not is_independence_set(sft, two, two, [0, 4], e)
    assert not independence_oracle(sft, two, two, [0, 4], e)


def test_sweep_path_matches_word_oracle(systems, bernoulli):
    """Every segment goes through the coordinate sweep; check it against the oracle.

    The first 150 cases pin single words; the rest draw union, whole-space
    and bridged targets. The fixed cases at the end put seven overlapping
    pins in one segment, with a later segment entered from its last symbols.
    """
    rng = random.Random(63)
    for case in range(300):
        system = systems[rng.randrange(3)]
        sft = system.sft
        words = [w for length in (1, 2, 3) for w in sft.legal_words(length)]
        if case < 150:
            a1 = cylinder(sft, rng.randrange(-2, 2), words[rng.randrange(len(words))])
            a2 = cylinder(sft, rng.randrange(-2, 2), words[rng.randrange(len(words))])
        else:
            a1 = _wide_target(rng, sft)
            a2 = _wide_target(rng, sft)
        i_set = sorted(rng.sample(range(8), rng.randrange(1, 5)))
        if rng.random() < 0.5:
            e = full_e(sft)
        else:
            e = TableE(_random_union(rng, sft).complement())
            if e.default.is_empty:
                continue
        got = is_independence_set(sft, a1, a2, i_set, e)
        want = independence_oracle(sft, a1, a2, i_set, e)
        assert got == want, (system.id, a1, a2, i_set, e.describe())

    sft = bernoulli.sft
    a1 = cylinder(sft, 0, "00").union(cylinder(sft, 0, "11"))
    a2 = cylinder(sft, 0, "01").union(cylinder(sft, 0, "10"))
    pinned = resolve_constraints([(0, cylinder(sft, 0, "0")), (0, cylinder(sft, 7, "0"))], sft)
    cases = [
        (list(range(7)) + [9], full_e(sft), True),
        (list(range(7)) + [9], TableE(cylinder(sft, 9, "1")), True),
        (list(range(7)), TableE(pinned), False),
        (list(range(7)) + [10], TableE(pinned), False),
    ]
    for i_set, e, want in cases:
        assert independence_oracle(sft, a1, a2, i_set, e) == want, (i_set, e.describe())
        assert is_independence_set(sft, a1, a2, i_set, e) == want, (i_set, e.describe())

    # Atoms with many words: a 63-word complement (as E and as a target) and a
    # 126-word union target, every length-7 word that uses both symbols.
    c63 = cylinder(sft, 0, "010011").complement()
    u126 = CylinderUnion(sft, [(i, w) for i in range(6) for w in ("01", "10")])
    zero, one, zeros = cylinder(sft, 0, "0"), cylinder(sft, 0, "1"), cylinder(sft, 0, "0" * 7)
    cases = [
        (zero, one, list(range(6)), TableE(c63), False),
        (zero, one, [0, 1, 2, 3, 4, 6], TableE(c63), True),
        (u126, c63, [0, 3, 7], full_e(sft), True),
        (u126, c63, [0, 2, 5], TableE(c63.translate(1)), True),
        (u126, zeros, [0, 1], TableE(c63), True),
        (u126, zeros, [0, 1, 2], TableE(c63), False),
    ]
    for a1, a2, i_set, e, want in cases:
        assert independence_oracle(sft, a1, a2, i_set, e) == want, (a1, a2, i_set, e.describe())
        assert is_independence_set(sft, a1, a2, i_set, e) == want, (a1, a2, i_set, e.describe())


def test_shared_memo_matches_oracle_under_translation(systems):
    """One memo serves every case of a system: shift sets and their
    translates, across targets and TableEs.

    E's sets enter unshifted, so translating I moves the pins but not E's
    atoms; a memo key that lost the atoms' offsets relative to the segment
    would hand a translate the relation of a different segment. The first 12
    draws per system pin single words; the rest draw union, whole-space and
    bridged targets.
    """
    rng = random.Random(23)
    for system in systems:
        sft = system.sft
        words = [w for length in (1, 2) for w in sft.legal_words(length)]
        memo: dict = {}
        for case in range(24):
            default = _random_union(rng, sft).complement()
            overrides = tuple(
                (s, _random_union(rng, sft).complement()) for s in sorted(rng.sample(range(8), 2))
            )
            if default.is_empty or any(v.is_empty for _s, v in overrides):
                continue
            e = TableE(default=default, overrides=overrides)
            if case < 12:
                a1 = cylinder(sft, 0, rng.choice(words))
                a2 = cylinder(sft, rng.randrange(-1, 2), rng.choice(words))
            else:
                a1 = _wide_target(rng, sft)
                a2 = _wide_target(rng, sft)
            base = sorted(rng.sample(range(4), rng.randrange(1, 4)))
            for t in range(-3, 5):
                i_set = [s + t for s in base]
                got = is_independence_set(sft, a1, a2, i_set, e, _memo=memo)
                want = independence_oracle(sft, a1, a2, i_set, e)
                assert got == want, (system.id, a1, a2, i_set, e.describe())


def test_shared_memo_survives_dropped_e_maps(bernoulli):
    """One memo serves max_independence_subset across 40 random_table_e maps,
    each built, used and dropped in turn.

    The memo keys atoms by the id() of their word lists. Overrides with equal
    sets recur as distinct objects, and a dropped map's lists are freed, so
    a later list could take the id of one the memo saw unless the memo holds
    every list it has interned. Afterwards each map is rebuilt from its seed:
    its answer must equal a fresh memo's, its best set must be independent
    and no one-element extension of it may be.
    """
    sft, m = bernoulli.sft, bernoulli.measure
    a1, a2 = cylinder(sft, 0, "00"), cylinder(sft, 0, "01")
    window = range(8)

    def e_map(seed):
        return random_table_e(m, Fraction(1, 16), seed, max_shift=8, n_overrides=4)

    memo: dict = {}
    seen: set = set()  # override contents as strings, so no map's objects stay alive
    repeats = 0
    answers = []
    for seed in range(40):
        e = e_map(seed)
        for _s, value in e.overrides:
            content = f"{value.start}:{value.words}"
            repeats += content in seen
            seen.add(content)
        answers.append(max_independence_subset(sft, a1, a2, window, e, _memo=memo))
        del e
    assert repeats > 0
    for seed, got in enumerate(answers):
        e = e_map(seed)
        assert got == max_independence_subset(sft, a1, a2, window, e), seed
        assert independence_oracle(sft, a1, a2, got.best, e), seed
        for s in window:
            if s not in got.best:
                assert not independence_oracle(sft, a1, a2, sorted(got.best + (s,)), e), seed


def _oracle_greedy(sft, a1, a2, window, e, independent=independence_oracle) -> tuple[int, ...]:
    chosen: list[int] = []
    for s in window:
        if independent(sft, a1, a2, chosen + [s], e):
            chosen.append(s)
    return tuple(chosen)


def test_incremental_chains_match_word_oracle(systems):
    """Extend random sorted chains state by state and check every step.

    E is the whole space, a constant set, or a table whose overrides the
    chain reaches midway, so a new E value arrives after placements (and
    possibly closed segments) to its right. Each accepted state is also
    extended by a sibling shift from its parent state, which must still
    answer for the parent's prefix. Greedy chains over two windows, the
    second resuming the first, match greedy chains built on the oracle.
    Targets are single words, unions, the whole space or bridged sets; one
    memo serves all cases of a system.
    """
    rng = random.Random(41)
    memos: dict = {system.id: {} for system in systems}
    for _ in range(120):
        system = systems[rng.randrange(3)]
        sft = system.sft
        a1, a2 = _wide_target(rng, sft), _wide_target(rng, sft)
        roll = rng.random()
        if roll < 0.2:
            e = full_e(sft)
        elif roll < 0.4:
            e = TableE(_random_union(rng, sft).complement())
        else:
            overrides = tuple(
                (s, _random_union(rng, sft).complement())
                for s in sorted(rng.sample(range(1, 6), rng.randrange(1, 3)))
            )
            e = TableE(default=whole_space(sft), overrides=overrides)
        if any(v.is_empty for v in e.referenced(range(7))):
            continue
        checker = ind._Checker(
            sft, (ind._target_atoms(a1), ind._target_atoms(a2)), e, memos[system.id]
        )
        state, chosen = checker.empty, []
        for s in sorted(rng.sample(range(6), rng.randrange(2, 5))):
            nxt = checker.extend(state, s)
            want = independence_oracle(sft, a1, a2, chosen + [s], e)
            assert (nxt is not None) == want, (system.id, a1, a2, chosen + [s], e)
            if nxt is None:
                continue
            sibling = s + rng.randrange(1, 3)
            got = checker.extend(state, sibling) is not None
            assert got == independence_oracle(sft, a1, a2, chosen + [sibling], e)
            state, chosen = nxt, chosen + [s]
        chain: list = []  # the second window resumes the first one's chain where they agree
        for window in (range(rng.randrange(0, 2), 4), range(6)):
            got = ind._greedy_subset(window, checker, chain, len(window))
            assert got == _oracle_greedy(sft, a1, a2, window, e)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sweep_matches_sweep_oracle(systems, data):
    """`_sweep` against word enumeration on random segments of the panel
    systems: placements of one or two options, each of one or two atoms of
    one word or many; complement E atoms as one-option placements at their
    starts (in `_Checker._tip`'s order, targets first); random `firsts`."""
    system = data.draw(st.sampled_from(systems), label="system")
    sft = system.sft
    span = data.draw(st.integers(0, 6), label="span")

    def atom(lo):
        start = data.draw(st.integers(lo, span), label="start")
        legal = legal_words(sft, 0, data.draw(st.integers(0, min(2, span - start)), label="width"))
        many = data.draw(st.booleans(), label="many")
        count = data.draw(st.integers(2 if many and len(legal) > 1 else 1, len(legal)), label="words")
        return start, tuple(sorted(data.draw(st.permutations(legal), label="order")[:count]))

    placements = []
    for _ in range(data.draw(st.integers(0, 3), label="placements")):
        first = data.draw(st.integers(0, span), label="first")
        options = [
            tuple(atom(first) for _ in range(data.draw(st.integers(1, 2), label="atoms")))
            for _ in range(data.draw(st.integers(1, 2), label="options"))
        ]
        placements.append((first, options))
    for _ in range(data.draw(st.integers(0, 2), label="e atoms")):
        start, (word, *_) = atom(0)  # E is the complement of one word
        complement = tuple(w for w in legal_words(sft, 0, len(word) - 1) if w != word)
        if complement:
            placements.append((start, [((start, complement),)]))
    letters = range(sft.alphabet_size)
    firsts = frozenset(data.draw(st.sets(st.sampled_from(letters), min_size=1), label="firsts"))

    atoms = ind._Atoms(sft.alphabet_size)
    ids = [
        (first, [tuple([(start, atoms.id(ws)) for start, ws in option]) for option in options])
        for first, options in placements
    ]
    got = ind._sweep(sft, atoms, ids, span, firsts)
    assert got == sweep_oracle(sft, placements, span, firsts), (system.id, placements, firsts)


def test_long_chain_sweep(bernoulli):
    """Consistent-overlap chains too long to enumerate stay exact."""
    sft = bernoulli.sft
    u = cylinder(sft, -1, "111")
    v = cylinder(sft, -1, "101")
    chain = list(range(0, 26, 2))  # 13 pins, pairwise-overlapping placements
    assert is_independence_set(sft, u, v, chain, full_e(sft))
    assert not is_independence_set(sft, u, v, chain + [1], full_e(sft))


def test_monotone_pruning_soundness(systems):
    """Failing sets never succeed after adding elements."""
    rng = random.Random(55)
    for _ in range(120):
        system = systems[rng.randrange(3)]
        sft = system.sft
        a1 = _random_union(rng, sft, max_len=1)
        a2 = _random_union(rng, sft, max_len=1)
        base = sorted(rng.sample(range(8), rng.randrange(1, 4)))
        if is_independence_set(sft, a1, a2, base, full_e(sft)):
            continue
        extra = sorted(set(base) | set(rng.sample(range(10), 2)))
        assert not is_independence_set(sft, a1, a2, extra, full_e(sft))


# ---------------------------------------------------------------------------
# max_independence_subset
# ---------------------------------------------------------------------------


def test_max_subset_full_shift(bernoulli):
    sft = bernoulli.sft
    rep = max_independence_subset(
        sft, cylinder(sft, 0, "0"), cylinder(sft, 0, "1"), range(6), full_e(sft)
    )
    assert rep.best == (0, 1, 2, 3, 4, 5) and rep.ratio == 1 and rep.exhaustive


def test_max_subset_golden_law(golden):
    sft = golden.sft
    a0, a1 = cylinder(sft, 0, "0"), cylinder(sft, 0, "1")
    rep = max_independence_subset(sft, a0, a1, range(6), full_e(sft))
    assert rep.best == (0, 2, 4) and rep.ratio == Fraction(1, 2)


def test_max_subset_empty_target(golden):
    sft = golden.sft
    rep = max_independence_subset(
        sft, cylinder(sft, 0, "11"), cylinder(sft, 0, "0"), range(5), full_e(sft)
    )
    assert rep.best == () and rep.ratio == 0


def _zero_excludes_one_and_two(sft):
    """Targets [0]_0, [1]_0 with E(1) = E(2) = {x_0 = 0}, so shift 0 excludes
    shifts 1 and 2. E is not the whole space, which keeps the gap DP out."""
    x0_is_0 = cylinder(sft, 0, "1").complement()
    e = TableE(whole_space(sft), ((1, x0_is_0), (2, x0_is_0)))
    return cylinder(sft, 0, "0"), cylinder(sft, 0, "1"), e


def test_max_subset_past_window_cap_is_greedy(bernoulli):
    """Greedy keeps shift 0 and ends one short of the maximum, {1, ..., 24}."""
    sft = bernoulli.sft
    a1, a2, e = _zero_excludes_one_and_two(sft)
    window = range(EXHAUSTIVE_WINDOW_CAP + 1)
    rep = max_independence_subset(sft, a1, a2, window, e)
    assert not rep.exhaustive
    # The oracle takes 2^|I| assignments per step: the checker decides instead.
    assert rep.best == _oracle_greedy(sft, a1, a2, window, e, is_independence_set)
    assert len(rep.best) == len(window) - 2
    assert is_independence_set(sft, a1, a2, window[1:], e)


@pytest.mark.parametrize("budget", [1, 10])
def test_max_subset_past_node_budget(bernoulli, monkeypatch, budget):
    monkeypatch.setattr(ind, "NODE_BUDGET", budget)
    sft = bernoulli.sft
    a1, a2, e = _zero_excludes_one_and_two(sft)
    rep = max_independence_subset(sft, a1, a2, range(12), e)
    assert not rep.exhaustive
    assert is_independence_set(sft, a1, a2, rep.best, e)
    assert len(rep.best) >= len(_oracle_greedy(sft, a1, a2, range(12), e, is_independence_set))


def test_max_subset_matches_plain_enumeration(systems):
    rng = random.Random(71)
    for _ in range(25):
        system = systems[rng.randrange(3)]
        sft = system.sft
        a1 = _random_union(rng, sft, max_len=1)
        a2 = _random_union(rng, sft, max_len=1)
        n = rng.randrange(3, 9)
        e = full_e(sft)
        rep = max_independence_subset(sft, a1, a2, range(n), e)
        brute = 0
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            if len(subset) > brute and is_independence_set(sft, a1, a2, subset, e):
                brute = len(subset)
        assert len(rep.best) == brute, (system.id, a1, a2, n)


# ---------------------------------------------------------------------------
# ratio_meets
# ---------------------------------------------------------------------------


def test_ratio_meets_rejects_empty_window(bernoulli):
    sft = bernoulli.sft
    a0, a1 = cylinder(sft, 0, "0"), cylinder(sft, 0, "1")
    with pytest.raises(ValueError, match="window must be nonempty"):
        ratio_meets(sft, a0, a1, [], full_e(sft), ind.C_MIN)


def test_ratio_meets_stops_greedy_at_need(bernoulli):
    """On Bernoulli every shift is independent, so ceil(24 / 20) = 2 chosen
    shifts decide the 24-window: the saved chain holds 2 steps, not 24."""
    sft = bernoulli.sft
    a0, a1 = cylinder(sft, 0, "0"), cylinder(sft, 0, "1")
    e = full_e(sft)
    memo: dict = {}
    assert ratio_meets(sft, a0, a1, range(24), e, ind.C_MIN, _memo=memo)
    chain = memo[("greedy", (ind._target_atoms(a0), ind._target_atoms(a1)), e)]
    assert [s for s, _ in chain] == [0, 1]


_THRESHOLDS = [Fraction(0), Fraction(1, 20), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ratio_meets_matches_exact_max(systems, data):
    """ratio_meets equals max_independence_subset(...).ratio >= threshold on the
    classifier's windows, asked through one memo in ascending order (each
    window resumes the last one's chain) and then in descending order (each
    window truncates it)."""
    system = data.draw(st.sampled_from(systems), label="system")
    sft, m = system.sft, system.measure
    rng = random.Random(data.draw(st.integers(0, 2**16), label="seed"))
    words = sft.legal_words(rng.randrange(1, 3))

    def target():  # a cylinder or a two-word union at one start: width <= 2 keeps the exact max cheap
        start = rng.randrange(-1, 2)
        picks = rng.sample(words, data.draw(st.integers(1, min(2, len(words))), label="words"))
        return CylinderUnion(sft, [(start, w) for w in picks])

    a1, a2 = target(), target()
    kind = data.draw(st.sampled_from(["full", "random_table", "bad_constant"]), label="e")
    if kind == "full":
        e = full_e(sft)
    elif kind == "random_table":
        e = random_table_e(m, Fraction(1, 4), rng.randrange(1000))
    else:
        s = rng.randrange(0, 3)
        e = bad_constant_e(m, s, s + rng.randrange(1, 3), a1, a2)
    want = {n: max_independence_subset(sft, a1, a2, range(n), e).ratio for n in ind.N_LIST}
    memo: dict = {}
    for order in (ind.N_LIST, ind.N_LIST[::-1]):
        for n in order:
            for threshold in _THRESHOLDS:
                got = ratio_meets(sft, a1, a2, range(n), e, threshold, _memo=memo)
                assert got == (want[n] >= threshold), (system.id, a1, a2, kind, n, threshold)
    # One greedy over the largest window decides every window, on a fresh memo and a used one.
    window = tuple(range(max(ind.N_LIST)))
    for threshold in _THRESHOLDS:
        for prefix_memo in ({}, memo):
            got = ind._prefixes_meet(sft, a1, a2, window, ind.N_LIST, e, threshold, prefix_memo)
            assert got == all(want[n] >= threshold for n in ind.N_LIST), (system.id, kind, threshold)


def test_profile_shares_gap_checks_across_windows(systems):
    """One memo over the windows 1..24 gives the reports of a fresh memo per
    window: the gap compatibilities it keeps per target are the same for every
    window and E map. Each system's memo also serves every target pair drawn
    for it, so a gap answer kept for one pair must not leak into another."""
    rng = random.Random(23)
    memos: dict = {}
    for _ in range(8):
        system = systems[rng.randrange(3)]
        sft, m = system.sft, system.measure
        a1, a2 = _random_union(rng, sft), _random_union(rng, sft)
        family = [full_e(sft), random_table_e(m, Fraction(1, 8), rng.randrange(1000))]
        if rng.random() < 0.5:
            family.append(TableE(_random_union(rng, sft).complement()))
        family = [e for e in family if not e.default.is_empty]
        memo = memos.setdefault(system.id, {})
        shared = independence_density_profile(sft, m, a1, a2, range(1, 25), family, _memo=memo)
        fresh = [independence_density_profile(sft, m, a1, a2, [n], family)[0] for n in range(1, 25)]
        assert shared == fresh, (system.id, a1, a2)


PROFILE_ORDERS = {
    "ascending": list(range(1, 25)),
    "descending": list(range(24, 0, -1)),
    "shuffled": random.Random(29).sample(range(1, 25), 24),
    "repeats": [24, 4, 16, 8, 4, 1, 24, 1],
}


@pytest.mark.parametrize("order", sorted(PROFILE_ORDERS))
def test_profile_windows_share_one_gap_dp(systems, monkeypatch, order):
    """Single-word targets with E = X take the gap-DP path. In any window
    order, with repeats, one memo's profile equals fresh per-window searches
    and runs one DP per targets: the narrower windows read the widest's table."""
    tables = []
    real = ind._suffix_table
    monkeypatch.setattr(ind, "_suffix_table", lambda *args: tables.append(args) or real(*args))
    n_list = PROFILE_ORDERS[order]
    dp_targets = 0
    for system in systems:
        sft = system.sft
        for _label, x, y in canonical_pairs(system, 6):
            for d in (0, 1):
                ux, uy = point_neighborhood(x, d), point_neighborhood(y, d)
                memo: dict = {}
                tables.clear()
                shared = independence_density_profile(
                    sft, system.measure, ux, uy, n_list, [full_e(sft)], _memo=memo
                )
                dps = len(tables)
                fresh = [max_independence_subset(sft, ux, uy, range(n), full_e(sft)) for n in n_list]
                assert shared == fresh, (system.id, _label, d, order)
                took_dp = any(isinstance(key[0], str) and key[0] == "dp" for key in memo)
                assert dps == int(took_dp), (system.id, _label, d, order)
                dp_targets += took_dp
    assert dp_targets >= 30


def test_narrower_windows_read_the_table_tail(systems):
    """After a shared-memo profile on single-word targets, a narrower
    contiguous window of n shifts has its own suffix table in the stored
    table's last n entries, and its reconstruction reads only those: with
    every other entry poisoned, each narrower window still matches a fresh
    search."""
    poisoned_reads = 0
    for system in systems:
        sft = system.sft
        for _label, x, y in canonical_pairs(system, 6):
            for d in (0, 1):
                ux, uy = point_neighborhood(x, d), point_neighborhood(y, d)
                memo: dict = {}
                independence_density_profile(
                    sft, system.measure, ux, uy, range(1, 25), [full_e(sft)], _memo=memo
                )
                solved = next(
                    (v for k, v in memo.items() if isinstance(k[0], str) and k[0] == "dp"), None
                )
                if solved is None:
                    continue
                best, compat = solved["table"]
                widest = len(best)
                for n in range(1, widest):
                    tail = best[widest - n :]
                    own = ind._suffix_table(compat, tuple(range(n)))
                    assert tail == own, (system.id, _label, d, n)
                    # Poison the head: a reconstruction that read it would stop at
                    # shift 0, since index 0 outranks every true entry and the rest read 0.
                    head = (widest + 1,) + (0,) * (widest - n - 1)
                    solved["table"] = (head + tail, compat)
                    got = max_independence_subset(sft, ux, uy, range(n), full_e(sft), _memo=memo)
                    fresh = max_independence_subset(sft, ux, uy, range(n), full_e(sft))
                    assert got == fresh, (system.id, _label, d, n)
                    poisoned_reads += len(fresh.best) > 1
                solved["table"] = (best, compat)
    assert poisoned_reads >= 400, poisoned_reads


def test_prefixes_meet_counts_each_window_inside_it(bernoulli):
    """E is empty at shifts 0..3, so the 4-window holds no independence set
    while the 8-window holds 4 of 8: the greedy's shift 4 must not count
    for the 4-window."""
    sft = bernoulli.sft
    a0, a1 = cylinder(sft, 0, "0"), cylinder(sft, 0, "1")
    empty = whole_space(sft).complement()
    e = TableE(whole_space(sft), tuple((s, empty) for s in range(4)))
    window = tuple(range(8))
    assert not ind._prefixes_meet(sft, a0, a1, window, (4, 8), e, ind.C_MIN, {})
    assert ind._prefixes_meet(sft, a0, a1, window, (8,), e, ind.C_MIN, {})
    assert not ratio_meets(sft, a0, a1, range(4), e, ind.C_MIN)


def test_e_map_monotonicity(golden):
    """Shrinking E(s) never enlarges the best independence subset."""
    sft = golden.sft
    a0, a1 = cylinder(sft, 0, "0"), cylinder(sft, 0, "1")
    rng = random.Random(19)
    for _ in range(30):
        big = _random_union(rng, sft).complement()
        if big.is_empty:
            continue
        smaller_words = big.words[: max(1, len(big.words) - 1)]
        small = CylinderUnion(sft, [(big.start, w) for w in smaller_words])
        rep_big = max_independence_subset(sft, a0, a1, range(7), TableE(big))
        rep_small = max_independence_subset(sft, a0, a1, range(7), TableE(small))
        assert len(rep_small.best) <= len(rep_big.best)


def test_profile_examples(bernoulli, golden, cycle4):
    b = independence_density_profile(
        bernoulli.sft,
        bernoulli.measure,
        cylinder(bernoulli.sft, 0, "0"),
        cylinder(bernoulli.sft, 0, "1"),
        range(1, 13),
        [full_e(bernoulli.sft)],
    )
    assert all(rep.ratio == 1 for rep in b)
    g = independence_density_profile(
        golden.sft,
        golden.measure,
        cylinder(golden.sft, 0, "0"),
        cylinder(golden.sft, 0, "1"),
        range(1, 13),
        [full_e(golden.sft)],
    )
    for rep in g:
        n = len(rep.window)
        assert rep.ratio == Fraction((n + 1) // 2, n)
    c = independence_density_profile(
        cycle4.sft,
        cycle4.measure,
        cylinder(cycle4.sft, 0, [0]),
        cylinder(cycle4.sft, 0, [1]),
        [4, 8, 16],
        [full_e(cycle4.sft)],
    )
    assert [len(rep.best) for rep in c] == [1, 1, 1]


# ---------------------------------------------------------------------------
# Adversarial maps
# ---------------------------------------------------------------------------


def test_bad_constant_e_examples(bernoulli):
    m = bernoulli.measure
    sft = bernoulli.sft
    x = whole_space(sft)
    assert bad_constant_e(m, 0, 1, x, x).default.is_empty
    e = bad_constant_e(m, 0, 1, cylinder(sft, 0, "0"), cylinder(sft, 0, "1"))
    assert measure_of(m, e.default) == Fraction(3, 4)
    target = measure_of_constraints(m, [(0, cylinder(sft, 0, "0")), (1, cylinder(sft, 0, "1"))])
    assert measure_of(m, e.default) == 1 - target


def test_constant_complements_are_translates_per_gap(systems):
    """The map of (s, t) is the map of (0, t - s) translated by s, on the
    panel pairs at depths 0-2 and every 0 <= s < t <= RA_BOUND."""
    for system in systems:
        m = system.measure
        for label, x, y in canonical_pairs(system):
            for d in range(3):
                ux, uy = point_neighborhood(x, d), point_neighborhood(y, d)
                for s in range(ind.RA_BOUND + 1):
                    for t in range(s + 1, ind.RA_BOUND + 1):
                        shifted = bad_constant_e(m, 0, t - s, ux, uy).default.translate(s)
                        assert bad_constant_e(m, s, t, ux, uy) == TableE(shifted), (label, d, s, t)


def test_bad_constant_e_infeasible_pair(golden):
    one = cylinder(golden.sft, 0, "1")
    e = bad_constant_e(golden.measure, 0, 1, one, one)
    assert e.default.is_full and measure_of(golden.measure, e.default) == 1


def test_gap_kernel_measures_constant_complements(systems):
    """mu(Ux ∩ T^-(t-s) Uy) from one gap-kernel readout is 1 - the measure of
    the constant complement map of (s, t), for every 0 <= s < t <= RA_BOUND."""
    rng = random.Random(41)
    for _ in range(20):
        system = systems[rng.randrange(3)]
        sft, m = system.sft, system.measure
        words = sft.legal_words(rng.randrange(1, 4))
        ux, uy = (cylinder(sft, rng.randrange(-2, 1), rng.choice(words)) for _ in range(2))
        meets = _gap_nums(m, ux, uy, ind.RA_BOUND + 1)
        for s in range(ind.RA_BOUND + 1):
            for t in range(s + 1, ind.RA_BOUND + 1):
                e = bad_constant_e(m, s, t, ux, uy)
                num, den = meets[t - s]
                assert 1 - Fraction(num, den) == e_min_measure(e, m, range(24)), (system.id, ux, uy, s, t)


def test_random_table_e_measure_floor(systems):
    for system in systems:
        for seed in range(8):
            e = random_table_e(system.measure, Fraction(1, 50), seed=seed)
            assert e_min_measure(e, system.measure, range(24)) >= Fraction(49, 50)


# ---------------------------------------------------------------------------
# classify_in_pair
# ---------------------------------------------------------------------------


def test_classify_requires_distinct_points(bernoulli):
    zeros = periodic_point(bernoulli.sft, "0")
    with pytest.raises(ValueError):
        classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, zeros, 2)


def test_classify_panel_signs(bernoulli, cycle4):
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    assert classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 3).is_positive
    r0 = periodic_point(cycle4.sft, [0, 1, 2, 3])
    r1 = periodic_point(cycle4.sft, [1, 2, 3, 0])
    assert classify_in_pair(cycle4.sft, cycle4.measure, r0, r1, 1).is_negative


def test_classify_level_zero_builds_no_constant_map(bernoulli, monkeypatch):
    """Every level-0 meet on Bernoulli has mu = 1/4 > 1/50, so the gap kernel
    disqualifies all fifteen constant complements before any is built. At
    level 1 one complement is built per qualifying gap, at s = 0."""
    built = []
    real = ind.bad_constant_e
    monkeypatch.setattr(ind, "bad_constant_e", lambda *args: built.append(args) or real(*args))
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    assert classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 0).is_positive
    assert built == []
    # At level 1 the meets at gaps 3..5 measure 1/64 and qualify; gaps 1 and 2 are empty.
    assert classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, ones, 1).is_positive
    assert sorted(t - s for _m, s, t, _ux, _uy in built) == [1, 2, 3, 4, 5]


def _reference_classify(sft, m, x, y, depth, params) -> Verdict:
    """classify_in_pair's level loop before it qualified maps from the gap
    kernel: every constant complement built and measured with e_min_measure,
    then one ratio_meets per qualifying map and window."""
    memo: dict = {}
    eps = min(DEFAULT_EPS_GRID)
    witnesses = []
    for d in range(depth + 1):
        ux, uy = point_neighborhood(x, d), point_neighborhood(y, d)
        base = independence_density_profile(sft, m, ux, uy, ind.N_LIST, [full_e(sft)], _memo=memo)
        floor = min(rep.ratio for rep in base)
        if floor < ind.C_MIN:
            worst = min(base, key=lambda r: r.ratio)
            return Verdict(
                NEGATIVE,
                note=(
                    f"level {d}: unconstrained profile floor {floor} < c_min "
                    f"(window {len(worst.window)}, best |I| = {len(worst.best)})"
                ),
            )
        adversaries = [
            bad_constant_e(m, s, t, ux, uy)
            for s in range(ind.RA_BOUND + 1)
            for t in range(s + 1, ind.RA_BOUND + 1)
        ]
        adversaries.extend(params.extra_e_maps)
        qualifying = [
            e for e in adversaries
            if e_min_measure(e, m, range(max(ind.N_LIST))) >= 1 - Fraction(str(eps))
        ]
        if not all(
            ratio_meets(sft, ux, uy, range(n), e, ind.C_MIN, _memo=memo)
            for e in qualifying
            for n in ind.N_LIST
        ):
            return Verdict(NEGATIVE, note=f"level {d}: no eps in the grid keeps the floor above c_min")
        profile = tuple((len(rep.window), tuple(rep.best), rep.ratio) for rep in base)
        witnesses.append({"level": d, "eps": eps, "floor": floor, "profile": profile})
    return Verdict(POSITIVE, eps_certified=eps, witnesses=tuple(witnesses))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_classify_matches_reference_loop(systems, data):
    """Equal verdicts (class, eps, notes and witnesses) from the one-pass
    levels and the reference loop, on the panel pairs at depths 1-2 with
    0-4 random_table_e extras of measure >= 49/50."""
    system = data.draw(st.sampled_from(systems), label="system")
    _label, x, y = data.draw(st.sampled_from(canonical_pairs(system, 10)), label="pair")
    depth = data.draw(st.integers(1, 2), label="depth")
    seeds = data.draw(st.lists(st.integers(0, 63), max_size=4), label="extras")
    extras = tuple(random_table_e(system.measure, Fraction(1, 50), seed) for seed in seeds)
    params = InPairParams(extra_e_maps=extras)
    got = classify_in_pair(system.sft, system.measure, x, y, depth, params)
    assert got == _reference_classify(system.sft, system.measure, x, y, depth, params)


def _blocking_e(sft, u) -> TableE:
    """E(s) = the complement of T^-s U at every shift of the largest window:
    no shift can take U, and every E set has measure 1 - mu(U)."""
    ((start, words),) = u.blocks()
    return TableE(
        whole_space(sft),
        tuple(
            (s, CylinderUnion(sft, [(start + s, w) for w in words]).complement())
            for s in range(max(ind.N_LIST))
        ),
    )


def test_classify_thin_blocking_map_fails_every_eps(bernoulli):
    # At depth 3 the blocking map's sets have measure 127/128, so it takes
    # part at the smallest grid eps (and every larger one) and empties every
    # window at level 3. At depth 2 its sets measure 31/32 < 1 - 0.02, so it
    # takes part at no eps and the verdict matches the map-free one.
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    for depth, thin in ((3, True), (2, False)):
        e = _blocking_e(bernoulli.sft, point_neighborhood(zeros, depth))
        params = InPairParams(extra_e_maps=(e,))
        got = classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, ones, depth, params)
        if thin:
            assert got.is_negative
            assert got.note == "level 3: no eps in the grid keeps the floor above c_min"
        else:
            free = classify_in_pair(bernoulli.sft, bernoulli.measure, zeros, ones, depth)
            assert got == free and got.eps_certified == min(DEFAULT_EPS_GRID)
        assert got == _reference_classify(
            bernoulli.sft, bernoulli.measure, zeros, ones, depth, params
        )


def test_classify_eps_reads_the_grid_decimal():
    """Fraction(0.02) is a little above 1/50, so a map whose sets measure
    exactly 1 - Fraction(0.02) is thinner than eps = 0.02 allows: it takes no
    part, and the verdict is the map-free one. Read as Fraction(0.02), the
    floor would let it in, and it would block every shift from taking U_y."""
    q = Fraction(0.02)
    sft = Sft(2, [[True, True], [True, True]])
    m = MarkovMeasure(sft, [[1 - q, q], [1 - q, q]])
    assert m.stationary[1] == q
    zeros, ones = periodic_point(sft, "0"), periodic_point(sft, "1")
    e = _blocking_e(sft, point_neighborhood(ones, 0))
    assert e_min_measure(e, m, range(max(ind.N_LIST))) == 1 - q
    params = InPairParams(extra_e_maps=(e,))
    got = classify_in_pair(sft, m, zeros, ones, 0, params)
    assert got.is_positive and got == classify_in_pair(sft, m, zeros, ones, 0)
    assert got == _reference_classify(sft, m, zeros, ones, 0, params)


def test_separating_depth(bernoulli):
    zeros = periodic_point(bernoulli.sft, "0")
    ones = periodic_point(bernoulli.sft, "1")
    assert separating_depth(zeros, ones, 3) == 0
    assert separating_depth(zeros, zeros, 3) is None
    u = point_neighborhood(zeros, 1)
    assert u == cylinder(bernoulli.sft, -1, "000")
