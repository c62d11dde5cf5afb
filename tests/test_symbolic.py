import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import symbolic
from shiftlab.measures import MarkovMeasure, measure_of_constraints
from shiftlab.panel import panel_systems
from shiftlab.symbolic import (
    BridgedBlocks,
    ConstraintAutomaton,
    CylinderUnion,
    EventuallyPeriodic,
    SampledWindow,
    Sft,
    compile_atom,
    constraints_meet,
    cylinder,
    diam_of_set,
    full_shift,
    point_in_set,
    realizable_symbols,
    resolve_constraints,
    shift_point,
    step,
    whole_space,
)
from shiftlab.errors import WindowExceededError

from .oracles import (
    constraint_span,
    legal_words,
    reach_oracle,
    realizable_oracle,
    satisfiable_oracle,
    satisfies,
)


def golden_sft() -> Sft:
    return Sft(2, [[True, True], [True, False]])


def all_zeros(sft):
    return EventuallyPeriodic(sft, "0", "", "0")


# ---------------------------------------------------------------------------
# Sft construction
# ---------------------------------------------------------------------------


def test_sft_rejects_dead_symbols():
    with pytest.raises(ValueError):
        Sft(2, [[True, False], [True, False]])  # symbol 1 has no successor
    with pytest.raises(ValueError):
        Sft(1, [[False]])


def test_legal_words_match_oracle():
    for sft in KERNEL_SFTS:
        for length in range(1, 9):
            assert list(sft.legal_words(length)) == legal_words(sft, 0, length - 1)


def test_legal_words_golden_mean():
    words = list(golden_sft().legal_words(3))
    assert (1, 1, 0) not in words
    assert (0, 1, 0) in words
    assert len(words) == 5  # tribonacci-free count: 000 001 010 100 101


# ---------------------------------------------------------------------------
# Points and the action law
# ---------------------------------------------------------------------------


def test_shift_identity_and_fixed_point():
    sft = full_shift(2)
    x = EventuallyPeriodic(sft, "01", "0110", "10")
    same = shift_point(x, 0)
    assert all(same.eval(n) == x.eval(n) for n in range(-8, 8))
    zeros = all_zeros(sft)
    shifted = shift_point(zeros, 17)
    assert all(shifted.eval(n) == 0 for n in range(-5, 5))


def test_shift_example_coordinate():
    sft = full_shift(2)
    x = EventuallyPeriodic(sft, "0", "01", "1")
    assert shift_point(x, 1).eval(0) == x.eval(1) == 1


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-30, 30),
    b=st.integers(-30, 30),
    left=st.text(alphabet="01", min_size=1, max_size=3),
    core=st.text(alphabet="01", max_size=3),
    right=st.text(alphabet="01", min_size=1, max_size=3),
)
def test_action_law_composition(a, b, left, core, right):
    sft = full_shift(2)
    p = EventuallyPeriodic(sft, left, core, right)
    twice = shift_point(shift_point(p, a), b)
    once = shift_point(p, a + b)
    assert all(twice.eval(n) == once.eval(n) for n in range(-10, 10))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-6, 6),
    word=st.text(alphabet="01", min_size=1, max_size=3),
    start=st.integers(-3, 3),
)
def test_preimage_law(k, word, start):
    sft = full_shift(2)
    p = EventuallyPeriodic(sft, "011", "0", "010")
    u = cylinder(sft, start, word)
    assert point_in_set(p, u, k) == point_in_set(shift_point(p, k), u, 0)


def test_sampled_window_errors_outside():
    sft = full_shift(2)
    p = SampledWindow(sft, 0, 3, "0110", seed=1)
    assert p.eval(2) == 1
    with pytest.raises(WindowExceededError):
        p.eval(4)
    with pytest.raises(WindowExceededError):
        shift_point(p, 2).eval(2)


@pytest.mark.parametrize("as_array", [False, True], ids=["word", "array"])
def test_sampled_window_rejects_bad_windows(as_array):
    sft = golden_sft()

    def window(lo, hi, symbols):
        return SampledWindow(sft, lo, hi, np.array(symbols) if as_array else symbols, seed=0)

    with pytest.raises(ValueError, match="transition"):
        window(0, 3, [0, 1, 1, 0])  # golden mean forbids "11"
    with pytest.raises(ValueError, match="out of range"):
        window(0, 2, [0, 2, 0])
    with pytest.raises(ValueError, match="out of range"):
        window(0, 2, [0, -1, 0])
    with pytest.raises(ValueError, match="length"):
        window(0, 4, [0, 1, 0])
    with pytest.raises(ValueError, match="length"):
        window(-2, 0, [0, 1])
    assert window(-1, 1, [1, 0, 1]).symbols == (1, 0, 1)
    with pytest.raises(ValueError, match="transition"):
        SampledWindow(sft, 0, 1, "11", seed=0)

    # Coded pairs a * k + b past one and two bytes. Read as bytes, 257 -> 258
    # on 300 symbols would be the allowed 1 -> 2, and its code 77,358 kept in
    # 16 bits would be the allowed 39 -> 122; 16 -> 16 on 17 symbols (code
    # 288) kept in 8 bits would be the allowed 1 -> 15.
    for k, (a, b), aliases, legal, dtype in (
        (300, (257, 258), [1, 2, 39, 122], [258, 257, 257, 0, 1, 2, 39, 122], np.uint16),
        (17, (16, 16), [1, 15], [16, 0, 16, 1, 15], np.uint8),
    ):
        sft = Sft(k, [[(x, y) != (a, b) for y in range(k)] for x in range(k)])

        def window(symbols):
            spec = np.array(symbols, dtype=dtype) if as_array else symbols
            return SampledWindow(sft, 0, len(symbols) - 1, spec, seed=0)

        with pytest.raises(ValueError, match="transition"):
            window([b, a, b])
        with pytest.raises(ValueError, match="transition"):
            window(aliases + [a, b])
        assert window(legal).symbols == tuple(legal)


# The golden mean, the 4-cycle and a 300-symbol chain (each symbol stays or
# steps to the next), whose coded pairs a * k + b need more than a byte; each
# with one forbidden pair.
LEGALITY_CHAINS = {
    "golden_mean": (golden_sft, (1, 1)),
    "cycle4": (lambda: Sft(4, [[b == (a + 1) % 4 for b in range(4)] for a in range(4)]), (2, 0)),
    "wide300": (
        lambda: Sft(300, [[(b - a) % 300 in (0, 1) for b in range(300)] for a in range(300)]),
        (299, 2),
    ),
}


@pytest.mark.parametrize("as_array", [False, True], ids=["word", "array"])
@pytest.mark.parametrize("chain", sorted(LEGALITY_CHAINS))
def test_sampled_window_refuses_a_forbidden_pair_anywhere(chain, as_array):
    make, (a, b) = LEGALITY_CHAINS[chain]
    sft = make()
    k = sft.alphabet_size
    assert not sft.allowed[a][b]
    length = 40

    def window(symbols):
        dtype = np.min_scalar_type(k - 1) if min(symbols) >= 0 else np.int64
        spec = np.array(symbols, dtype=dtype) if as_array else symbols
        return SampledWindow(sft, 5, 5 + len(symbols) - 1, spec, seed=0)

    def legal_path(first, n, step):
        path = [first]
        while len(path) < n:
            path.append(step(path[-1])[-1])
        return path

    legal = legal_path(a, length, sft.successors)
    assert window(legal).symbols == tuple(legal)
    # The one forbidden pair a -> b at the first, a middle and the last
    # position: a legal path into a, then a legal path out of b.
    for at in (0, length // 2, length - 2):
        before = legal_path(a, at + 1, sft.predecessors)[::-1]
        symbols = before + legal_path(b, length - at - 1, sft.successors)
        assert symbols[at : at + 2] == [a, b]
        with pytest.raises(ValueError, match="violates the transition matrix"):
            window(symbols)
    for bad in (k, -1):
        with pytest.raises(ValueError, match="out of range"):
            window(legal[:-1] + [bad])


def test_point_membership_examples():
    sft = full_shift(2)
    zeros = all_zeros(sft)
    assert point_in_set(zeros, cylinder(sft, 0, "0"))
    assert not point_in_set(zeros, cylinder(sft, 0, "1"))
    window = SampledWindow(sft, 0, 3, "0110", seed=9)
    assert point_in_set(window, cylinder(sft, 1, "11"))


# ---------------------------------------------------------------------------
# Cylinders and normalization
# ---------------------------------------------------------------------------


def test_cylinder_words_checked_and_illegal_ones_empty():
    sft = golden_sft()
    assert cylinder(sft, 0, "11").is_empty
    # An illegal word drops out of a union; a bad word raises.
    assert CylinderUnion(sft, [(0, "11"), (1, "0")]) == cylinder(sft, 1, "0")
    for bad in ("", "2", (0, -1)):
        with pytest.raises(ValueError):
            cylinder(sft, 0, bad)


def test_whole_space_and_complement():
    sft = golden_sft()
    x = whole_space(sft)
    assert x.is_full and x.complement().is_empty
    c = cylinder(sft, 2, "0")
    comp = c.complement()
    assert comp == cylinder(sft, 2, "1")
    assert c.union(comp) == x


def test_normalization_canonicity_trim():
    sft = full_shift(2)
    # [0]_0 expressed via its four length-3 extensions equals the plain form.
    wide = CylinderUnion(sft, [(-1, (a, 0, b)) for a in (0, 1) for b in (0, 1)])
    assert wide == cylinder(sft, 0, "0")
    # Union of all symbols collapses to the canonical whole space.
    assert cylinder(sft, 5, "0").union(cylinder(sft, 5, "1")) == whole_space(sft)
    # Canonical forms of the extreme sets are translation-invariant.
    assert whole_space(sft).translate(7) == whole_space(sft)
    empty = cylinder(golden_sft(), 0, "11")
    assert empty.translate(3) == empty


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_complement_is_already_trimmed(data):
    """A union's complement comes out in minimal-support form: its (start,
    words) is a fixed point of _trim, and it equals the complement word list
    normalized from the union's support."""
    sft = data.draw(st.sampled_from(KERNEL_SFTS), label="sft")
    words = [w for length in (1, 2, 3) for w in sft.legal_words(length)]
    picks = data.draw(
        st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(words)), min_size=1, max_size=4),
        label="cylinders",
    )
    u = CylinderUnion(sft, picks)
    c = u.complement()
    if c.is_empty:
        assert u.is_full
        return
    assert symbolic._trim(sft, c.start, set(c.words)) == (c.start, set(c.words))
    rest = [w for w in sft.legal_words(u.width) if w not in set(u.words)]
    assert c == CylinderUnion._from_normal(sft, u.start, rest)
    assert c.complement() == u


def test_too_wide_union_raises_before_listing_words(monkeypatch):
    """[0]_0 and [0]_18 extend to 2^18 words each over [0, 18]: past the
    budget the union raises before it lists them."""
    monkeypatch.setattr(symbolic, "WORD_BUDGET", 1 << 10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="union too wide"):
            CylinderUnion(full_shift(2), [(0, "0"), (18, "0")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_union_at_word_budget_normalizes(monkeypatch):
    """[0]_0 extends to 2^10 words over [0, 10], the hull of a word inside it:
    a budget of 2^10 words normalizes the union, one word less raises."""
    sft = full_shift(2)
    pairs = [(0, "0"), (0, "0" * 11)]
    monkeypatch.setattr(symbolic, "WORD_BUDGET", 1 << 10)
    assert CylinderUnion(sft, pairs) == cylinder(sft, 0, "0")
    monkeypatch.setattr(symbolic, "WORD_BUDGET", (1 << 10) - 1)
    with pytest.raises(ValueError, match="union too wide"):
        CylinderUnion(sft, pairs)


def test_complement_checks_the_word_budget(monkeypatch):
    """A complement counts the legal words of its width before listing them:
    the full 2-shift has 2^12 words of width 12, past a budget of 2^10, so
    the complement of one 12-symbol word raises the budget's ValueError,
    naming its coordinates, where it used to list them all; 2^10 words of
    width 10 are at the budget and list."""
    sft = full_shift(2)
    monkeypatch.setattr(symbolic, "WORD_BUDGET", 1 << 10)
    with pytest.raises(ValueError, match=r"> 1024 words over \[3, 14\]"):
        cylinder(sft, 3, "0" * 12).complement()
    assert len(cylinder(sft, 3, "0" * 10).complement().words) == (1 << 10) - 1


def test_merged_run_past_word_budget_raises():
    """The complement a of [0]_-4 ∪ [0]_4 on the full 3-shift (8,748 words
    over [-4, 4]) meets its translate by 8 in one run of overlapping atoms
    over [-4, 12], which holds 2^3 * 3^14 words. Listing that run raises the
    budget's ValueError, naming the run's coordinates, once it passes
    WORD_BUDGET words, instead of running out of memory. The child process
    limits its own address space to 1.5 GB."""
    pytest.importorskip("resource")
    code = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
        from shiftlab.symbolic import CylinderUnion, full_shift, resolve_constraints
        sft = full_shift(3)
        a = CylinderUnion(sft, [(-4, "0"), (4, "0")]).complement()
        try:
            resolve_constraints([(0, a), (8, a)], sft, gap_cap=0)
        except ValueError as err:
            print(err)
        """
    )
    package_root = os.path.dirname(os.path.dirname(symbolic.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"union too wide for exact normalization (> {symbolic.WORD_BUDGET} words over [-4, 12])"


def test_every_merge_checks_the_word_budget(monkeypatch):
    """Resolution, measures and nonemptiness checks merge a run through one
    listing, so each raises past the budget: on the full 2-shift the
    complement of [0]_-4 ∪ [0]_4 meets its translate by 8 in a run over
    [-4, 12] of 2^14 words, past a budget of 2^10."""
    sft = full_shift(2)
    a, m = CylinderUnion(sft, [(-4, "0"), (4, "0")]).complement(), MarkovMeasure(sft, [["1/2"] * 2] * 2)
    monkeypatch.setattr(symbolic, "WORD_BUDGET", 1 << 10)
    for merge in (
        lambda: resolve_constraints([(0, a), (8, a)], sft, gap_cap=0),
        lambda: measure_of_constraints(m, [(0, a), (8, a)]),
        lambda: constraints_meet([(0, a), (8, a)], sft),
    ):
        with pytest.raises(ValueError, match=r"> 1024 words over \[-4, 12\]"):
            merge()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalization_canonicity_random(data):
    sft = golden_sft()
    words = [w for length in (1, 2) for w in sft.legal_words(length)]
    picks = data.draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.sampled_from(words)),
            min_size=1,
            max_size=4,
        )
    )
    shuffled = data.draw(st.permutations(picks))
    u1 = CylinderUnion(sft, picks)
    u2 = CylinderUnion(sft, list(shuffled))
    assert u1 == u2


# ---------------------------------------------------------------------------
# resolve_constraints against the word-enumeration oracle
# ---------------------------------------------------------------------------


def test_resolve_examples():
    sft = full_shift(2)
    r = resolve_constraints([(0, cylinder(sft, 0, "0")), (1, cylinder(sft, 0, "1"))], sft)
    assert r == cylinder(sft, 0, "01")

    gm = golden_sft()
    r = resolve_constraints([(0, cylinder(gm, 0, "1")), (1, cylinder(gm, 0, "1"))], gm)
    assert r.is_empty

    u = cylinder(gm, 0, "01")
    r = resolve_constraints([(3, u)], gm)
    assert r == u.translate(3)

    assert resolve_constraints([], gm) == whole_space(gm)


def test_resolve_matches_enumeration_oracle():
    rng = random.Random(4)
    for sft in (full_shift(2), golden_sft(), full_shift(3)):
        for _ in range(120):
            constraints = []
            for _ in range(rng.randrange(1, 4)):
                length = rng.randrange(1, 4)
                word = [rng.randrange(sft.alphabet_size) for _ in range(length)]
                c = cylinder(sft, rng.randrange(-2, 3), word)
                constraints.append((rng.randrange(0, 7), c))
            resolved = resolve_constraints(constraints, sft)
            live = [c for c in constraints if not c[1].is_empty]
            if resolved.is_empty:
                assert not satisfiable_oracle(sft, constraints)
                continue
            assert satisfiable_oracle(sft, constraints)
            lo, hi = constraint_span(live)
            expected = {
                w
                for w in legal_words(sft, lo, hi)
                if all(satisfies(c, w, lo) for c in live)
            }
            got = {
                w
                for w in legal_words(sft, lo, hi)
                if satisfies((0, resolved), w, lo)
            }
            assert got == expected


KERNEL_SFTS = tuple(system.sft for system in panel_systems()) + (full_shift(3),)


@st.composite
def automaton_cases(draw):
    """Atoms from unions, complements and single-word pins, inside a random window."""
    sft = draw(st.sampled_from(KERNEL_SFTS))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("pin", "union", "complement")))
        if kind == "pin":
            words = list(sft.legal_words(draw(st.integers(1, 3))))
            atoms.append((draw(st.integers(-2, 2)), (draw(st.sampled_from(words)),)))
            continue
        symbols = st.integers(0, sft.alphabet_size - 1)
        pieces = draw(
            st.lists(
                st.tuples(st.integers(-1, 1), st.lists(symbols, min_size=1, max_size=2)),
                min_size=1,
                max_size=3,
            )
        )
        u = CylinderUnion(sft, pieces)
        if kind == "complement":
            u = u.complement()
        if u.is_empty or u.is_full:
            continue
        # The kernel must not rely on the sorted order of normal forms.
        atoms += [(start, tuple(draw(st.permutations(words)))) for start, words in u.blocks()]
    if not atoms:
        atoms = [(0, ((0,),))]
    lo = min(start for start, _ in atoms) - draw(st.integers(0, 1))
    hi = max(start + len(words[0]) - 1 for start, words in atoms) + draw(st.integers(0, 1))
    return sft, atoms, lo, hi


# Fixed atoms with many words: a 63-word complement of one length-6 word and
# a 126-word union of two-symbol cylinders (every length-7 word using both
# symbols), on the full 2-shift and on the golden-mean shift.
_FULL2, _GOLDEN = full_shift(2), golden_sft()
_COMPLEMENT_63 = cylinder(_FULL2, 0, "010011").complement().words
_UNION_126 = CylinderUnion(_FULL2, [(i, w) for i in range(6) for w in ("01", "10")]).words
_GOLDEN_COMPLEMENT = cylinder(_GOLDEN, 0, "010010").complement().words


@settings(max_examples=300, deadline=None)
@given(automaton_cases())
@example((_FULL2, [(0, _COMPLEMENT_63)], -1, 6))
@example((_FULL2, [(0, _UNION_126), (2, _COMPLEMENT_63)], 0, 8))
@example((_FULL2, [(1, _UNION_126[::-1]), (0, _COMPLEMENT_63), (3, ((1, 1),))], 0, 8))
@example((_GOLDEN, [(0, _GOLDEN_COMPLEMENT), (2, _GOLDEN_COMPLEMENT)], -1, 8))
def test_automaton_readouts_match_word_oracle(case):
    sft, atoms, lo, hi = case
    expected = [
        w
        for w in legal_words(sft, lo, hi)
        if all(w[start - lo : start - lo + len(words[0])] in words for start, words in atoms)
    ]
    automaton = ConstraintAutomaton(sft, atoms, lo, hi)
    assert automaton.words() == tuple(expected)


def test_complement_atoms_compile_to_residual_states():
    """The complement of one length-L word on the full 2-shift has at most
    2L - 1 residual states, where prefix states would number 2^L - 1: every
    prefix that has left the excluded word has the same future. The
    automaton's steps reach no more states than that."""
    sft = full_shift(2)
    for length in range(1, 9):
        for word in sft.legal_words(length):
            words = cylinder(sft, 0, word).complement().words
            assert len(compile_atom(words, 2)) <= 2 * length - 1
            automaton = ConstraintAutomaton(sft, [(0, words)], 0, length - 1)
            configs, seen = {(None, automaton.initial)}, set()
            for p in range(length):
                configs = {
                    moved
                    for prev, states in configs
                    for moved in step(sft, prev, states, automaton.active[p])
                }
                seen |= {state for _, (state,) in configs}
            assert len(seen) <= 2 * length - 1
            assert automaton.words() == words


def test_resolve_bridged_blocks_far_apart():
    sft = full_shift(2)
    r = resolve_constraints(
        [(0, cylinder(sft, 0, "0")), (40, cylinder(sft, 0, "1"))], sft
    )
    assert isinstance(r, BridgedBlocks)
    assert not r.is_empty and r.bridged
    zeros_then = EventuallyPeriodic(sft, "0", "0" * 40 + "1", "1")
    assert point_in_set(zeros_then, r)


def test_resolve_bridged_respects_reachability():
    c4_allowed = [[j == (i + 1) % 4 for j in range(4)] for i in range(4)]
    sft = Sft(4, c4_allowed)
    # x_0 = 0 and x_21 = 1 holds (21 = 1 mod 4), x_22 = 1 does not.
    ok = resolve_constraints(
        [(0, cylinder(sft, 0, [0])), (21, cylinder(sft, 0, [1]))], sft
    )
    assert not ok.is_empty
    bad = resolve_constraints(
        [(0, cylinder(sft, 0, [0])), (22, cylinder(sft, 0, [1]))], sft
    )
    assert bad.is_empty


def test_cluster_blocks_hold_exactly_the_realizable_words():
    """Each block that _cluster_constraints keeps holds exactly the windows,
    over its interval, of the legal words on the hull that satisfy every
    atom, and None means no word does: the forward filter alone decides
    emptiness, the backward one prunes the words of the earlier blocks."""
    rng = random.Random(30)
    for sft in KERNEL_SFTS:
        for _ in range(150):
            constraints = []
            for _ in range(rng.randint(1, 3)):
                words = sft.legal_words(rng.randint(1, 2))
                u = CylinderUnion(sft, [(0, w) for w in rng.sample(words, rng.randint(1, min(len(words), 3)))])
                constraints.append((rng.randint(0, 5), u.complement() if rng.random() < 0.3 else u))
            atoms = symbolic.constraint_atoms(constraints, sft)
            if not atoms:
                continue
            lo, hi = constraint_span(constraints)
            points = [w for w in legal_words(sft, lo, hi) if all(satisfies(c, w, lo) for c in constraints)]
            blocks = symbolic._cluster_constraints(sft, atoms)
            assert (blocks is None) == (not points), constraints
            for start, words in blocks or ():
                window = slice(start - lo, start - lo + len(words[0]))
                assert words == tuple(sorted({p[window] for p in points})), (constraints, start)


# ---------------------------------------------------------------------------
# Diameters
# ---------------------------------------------------------------------------


def test_diam_examples():
    sft = full_shift(2)
    assert diam_of_set(whole_space(sft), sft) == 1
    assert diam_of_set(cylinder(sft, 0, "0"), sft) == Fraction(1, 2)
    deep = cylinder(sft, -3, "0000000")  # pinned on [-3, 3]
    assert diam_of_set(deep, sft) == Fraction(1, 16)
    with pytest.raises(ValueError):
        diam_of_set(cylinder(golden_sft(), 0, "11"), golden_sft())


def test_realizable_symbols_refuses_the_empty_set():
    """An empty union's blocks() is () as the whole space's is; is_empty
    tells them apart, and each gets its own refusal."""
    sft = golden_sft()
    with pytest.raises(ValueError, match="realizable_symbols of the empty set"):
        realizable_symbols(cylinder(sft, 0, "11"), 0)
    with pytest.raises(ValueError, match="whole space"):
        realizable_symbols(whole_space(sft), 0)


def _kernel_set(data, sft: Sft):
    """Two disjoint pieces of one legal word over [start, start + 5]: the union
    of their cylinders or its complement, or their meet resolved with
    gap_cap=0, a BridgedBlocks."""
    word = [data.draw(st.integers(0, sft.alphabet_size - 1))]
    for _ in range(5):
        word.append(data.draw(st.sampled_from(sft.successors(word[-1]))))
    start = data.draw(st.integers(-2, 0))
    a, b, c, d = sorted(data.draw(st.lists(st.integers(0, 6), min_size=4, max_size=4, unique=True)))
    pieces = [(start + a, word[a:b]), (start + c, word[c:d])]
    kind = data.draw(st.sampled_from(["bridged", "union", "complement"]))
    if kind == "bridged":
        return resolve_constraints([(0, cylinder(sft, *piece)) for piece in pieces], sft, gap_cap=0)
    u = CylinderUnion(sft, pieces)
    return u.complement() if kind == "complement" else u


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reach_realizable_diam_match_oracles(data):
    """Sft.reach, realizable_symbols and diam_of_set agree with stepping the
    transition matrix and with word enumeration. KERNEL_SFTS holds the panel
    and full_shift(3), the SFT of oracles.three_symbol_chain."""
    sft = data.draw(st.sampled_from(KERNEL_SFTS))
    k = sft.alphabet_size
    symbols = data.draw(st.frozensets(st.integers(0, k - 1), min_size=1))
    for forward in (True, False):
        for steps in range(3 * 2**k + 1):
            assert sft.reach(symbols, steps, forward) == reach_oracle(sft, symbols, steps, forward)

    s = _kernel_set(data, sft)
    if s.is_empty or not s.blocks():
        return
    blocks = s.blocks()
    lo, hi = constraint_span([(0, s)])
    inside = [start + data.draw(st.integers(0, len(words[0]) - 1)) for start, words in blocks]
    between = [
        data.draw(st.integers(start + len(words[0]), nxt - 1))
        for (start, words), (nxt, _) in zip(blocks, blocks[1:])
    ]
    outside = [lo - data.draw(st.integers(1, 2)), hi + data.draw(st.integers(1, 2))]
    for n in inside + between + outside:
        assert realizable_symbols(s, n) == realizable_oracle(sft, s, n), n

    # Reachable sets repeat within 2^k steps, so the coordinates from 0 and the
    # support to 2^k past them hold the nearest multi-valued coordinate if any
    # coordinate is multi-valued; none is iff the set is a single point.
    span = range(min(lo, 0) - 2**k, max(hi, 0) + 2**k + 1)
    nearest = next(
        (abs(n) for n in sorted(span, key=abs) if len(realizable_oracle(sft, s, n)) >= 2), None
    )
    assert diam_of_set(s, sft) == (0 if nearest is None else Fraction(1, 2**nearest))


def test_diam_tail_multivalued_one_step_past_support():
    """A set pinned on its whole support whose forward tail is multi-valued
    one step past it: 0 -> {1, 2} -> 3 forever, and only 4 precedes 4. A
    tails test that skipped step 1 of the orbits would call it a point."""
    succ = ({1, 2}, {3}, {3}, {3}, {4, 0})
    sft = Sft(5, [[b in row for b in range(5)] for row in succ])
    s = resolve_constraints([(0, cylinder(sft, -1, [4])), (0, cylinder(sft, 1, [0]))], sft, gap_cap=0)
    assert isinstance(s, BridgedBlocks)
    assert [len(realizable_oracle(sft, s, n)) for n in range(-3, 4)] == [1, 1, 1, 1, 1, 2, 1]
    assert diam_of_set(s, sft) == Fraction(1, 4)
