"""The acceptance battery: ten executable criteria with pinned tolerances.

Each criterion is a callable returning a CriterionResult; the CLI selfcheck
and the pytest acceptance module both run these. Tolerances and runtime
bounds are fixed here, not configurable.
"""

from __future__ import annotations

import filecmp
import functools
import math
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import entropy as ent
from .config import bundled_config_path
from .independence import (
    classify_in_pair,
    full_e,
    is_independence_set,
    max_independence_subset,
)
from .measures import measure_of, measure_of_constraints
from .panel import canonical_pairs, panel_systems
from .sensitivity import (
    diam_mean_profile,
    disjoint_family_counterexample,
    equivalence_crosscheck,
    extra_table_e,
    find_sensitivity_witnesses,
    pigeonhole_bound,
    pigeonhole_oracle,
)
from .symbolic import cylinder, resolve_constraints, whole_space
from .verdicts import InPairParams, WitnessParams


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _result(number, title, passed, detail, t0) -> CriterionResult:
    return CriterionResult(number, title, bool(passed), detail, time.perf_counter() - t0)


# -- shared expensive artifacts ---------------------------------------------


@functools.lru_cache(maxsize=1)
def _panel():
    return panel_systems()


@functools.lru_cache(maxsize=1)
def _crosscheck_base():
    return [
        row for system in _panel() for row in equivalence_crosscheck(system, canonical_pairs(system))
    ]


# -- criteria ----------------------------------------------------------------


def criterion_1() -> CriterionResult:
    title = "exact measure engine: chain formula == resolve-then-measure on 1000 random constraint sets"
    t0 = time.perf_counter()
    rng = random.Random(20240809)
    systems = _panel()
    checked = 0
    for i in range(1000):
        system = systems[i % 3]
        sft = system.sft
        constraints = []
        for _ in range(rng.randrange(1, 4)):
            shift = rng.randrange(0, 8)
            start = rng.randrange(-2, 2)
            length = rng.randrange(1, 4)
            word = [rng.randrange(sft.alphabet_size) for _ in range(length)]
            constraints.append((shift, cylinder(sft, start, word)))
        span_lo = min(s + c.support[0] for s, c in constraints if not c.is_empty) if any(
            not c.is_empty for _s, c in constraints
        ) else 0
        span_hi = max(s + c.support[1] for s, c in constraints if not c.is_empty) if any(
            not c.is_empty for _s, c in constraints
        ) else 0
        if span_hi - span_lo + 1 > 14:
            continue
        direct = measure_of_constraints(system.measure, constraints)
        resolved = resolve_constraints(constraints, sft)
        via_resolve = measure_of(system.measure, resolved)
        if direct != via_resolve:
            return _result(
                1, title, False,
                f"mismatch on iteration {i}: {direct} != {via_resolve}", t0,
            )
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60 and checked >= 900
    return _result(1, title, ok, f"{checked} sets agreed exactly in {elapsed:.1f}s (< 60s)", t0)


def criterion_2() -> CriterionResult:
    title = "entropy exactness on the panel (log 2 rates, golden H_1, cycle cap)"
    t0 = time.perf_counter()
    systems = {s.id: s for s in _panel()}
    b = systems["bernoulli"]
    rng = random.Random(77)
    part = ent.generator_partition(b.sft)
    for trial in range(5):
        seq = []
        value = rng.randrange(0, 4)
        for _ in range(12):
            seq.append(value)
            value += rng.randrange(1, 7)
        profile = ent.sequence_entropy_profile(b.measure, part, seq)
        for n, _h, rate in profile.rows:
            if abs(rate - math.log(2)) > 1e-12:
                return _result(2, title, False, f"S={seq}: H_{n}/{n} off by >1e-12", t0)
    gm = systems["golden_mean"]
    h1 = ent.shannon_entropy(gm.measure, ent.generator_partition(gm.sft))
    expected = math.log(3) - Fraction(2, 3) * math.log(2)
    if abs(h1 - expected) > 1e-12:
        return _result(2, title, False, f"golden H_1 = {h1!r} != log3 - (2/3)log2", t0)
    c4 = systems["cycle4"]
    profile = ent.sequence_entropy_profile(
        c4.measure, ent.generator_partition(c4.sft), list(range(12))
    )
    if any(h > math.log(4) + 1e-12 for _n, h, _r in profile.rows):
        return _result(2, title, False, "cycle4 exceeded log 4", t0)
    return _result(2, title, True, "5 random sequences at log 2; golden H_1 exact; cycle capped", t0)


def criterion_3() -> CriterionResult:
    title = "golden-mean independence law: max |I| = ceil(N/2), against full subset enumeration"
    t0 = time.perf_counter()
    gm = next(s for s in _panel() if s.id == "golden_mean")
    a1 = cylinder(gm.sft, 0, "0")
    a2 = cylinder(gm.sft, 0, "1")
    e = full_e(gm.sft)
    for n in range(1, 13):
        report = max_independence_subset(gm.sft, a1, a2, range(n), e)
        expected = (n + 1) // 2
        if len(report.best) != expected:
            return _result(3, title, False, f"N={n}: got {len(report.best)} != {expected}", t0)
        brute_best = 0
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            if len(subset) <= brute_best:
                continue
            if is_independence_set(gm.sft, a1, a2, subset, e):
                brute_best = len(subset)
        if brute_best != expected:
            return _result(3, title, False, f"N={n}: enumeration found {brute_best}", t0)
    elapsed = time.perf_counter() - t0
    return _result(3, title, elapsed < 60, f"N=1..12 verified in {elapsed:.1f}s (< 60s)", t0)


def criterion_4() -> CriterionResult:
    title = "Kushnirenko separation counts (full shift linear, cycle capped at 4)"
    t0 = time.perf_counter()
    b = next(s for s in _panel() if s.id == "bernoulli")
    base = cylinder(b.sft, 0, "0")
    for horizon in (1, 2, 4, 8, 16, 32, 64):
        count = ent.separation_count(b.measure, base, horizon, Fraction(1, 2))
        if count != horizon:
            return _result(4, title, False, f"bernoulli horizon {horizon}: count {count}", t0)
    pair_d2 = 2 * measure_of(b.measure, base) - 2 * measure_of_constraints(
        b.measure, [(0, base), (1, base)]
    )
    if pair_d2 != Fraction(1, 2):
        return _result(4, title, False, f"pairwise distance^2 = {pair_d2} != 1/2", t0)
    c4 = next(s for s in _panel() if s.id == "cycle4")
    cell = cylinder(c4.sft, 0, [0])
    for eps in (Fraction(1, 100), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)):
        for horizon in (64, 256):
            count = ent.separation_count(c4.measure, cell, horizon, eps)
            if count > 4:
                return _result(4, title, False, f"cycle4 eps={eps} h={horizon}: {count}", t0)
    return _result(4, title, True, "full shift counts equal horizons; cycle counts <= 4", t0)


def criterion_5() -> CriterionResult:
    title = "witness construction targets the exact density 1/4 (19/20 seeds within 0.02)"
    t0 = time.perf_counter()
    b = next(s for s in _panel() if s.id == "bernoulli")
    ux = cylinder(b.sft, 0, "0")
    uy = cylinder(b.sft, 0, "1")
    params = WitnessParams(density_horizon=100_000)
    hits = 0
    chosen_ok = True
    for seed in range(1000, 1020):
        verdict = find_sensitivity_witnesses(
            b.sft, b.measure, whole_space(b.sft), ux, uy, Fraction(1, 5), seed, params
        )
        w = verdict.witnesses[0]
        chosen_ok = chosen_ok and (w.s, w.t) == (0, 1) and w.target == Fraction(1, 4)
        if abs(w.empirical_upper - 0.25) <= 0.02:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and chosen_ok and elapsed < 120
    return _result(
        5, title, ok,
        f"{hits}/20 seeds within 0.02 of 1/4; (s,t)=(0,1) target 1/4; {elapsed:.1f}s (< 120s)", t0,
    )


def criterion_6() -> CriterionResult:
    title = "equivalence at desk scale: IN-verdict == MS-verdict on the 3x10 panel"
    t0 = time.perf_counter()
    rows = _crosscheck_base()
    if len(rows) != 30:
        return _result(6, title, False, f"{len(rows)} rows != 30", t0)
    disagreements = [f"{r.system_id}/{r.pair_label}" for r in rows if not r.in_eq_ms]
    if disagreements:
        return _result(6, title, False, "IN != MS on: " + ", ".join(disagreements), t0)
    cycle_rows = [r for r in rows if r.system_id == "cycle4"]
    if any(
        r.in_positive or r.ms_positive or r.diam_positive or r.kush_positive
        for r in cycle_rows
    ):
        return _result(6, title, False, "a periodic row was not all-negative", t0)
    generator = rows[0]
    if not (
        generator.system_id == "bernoulli"
        and generator.pair_label == "per(0)|per(1)"
        and generator.in_positive
        and generator.ms_positive
        and generator.diam_positive
        and generator.kush_positive
    ):
        return _result(6, title, False, "generator pair row not all-positive", t0)
    return _result(
        6, title, True,
        "30/30 rows agree; periodic all-negative; generator pair all-positive", t0,
    )


def criterion_7() -> CriterionResult:
    title = "constant-map reduction: 50 extra TableE adversaries change no verdict"
    t0 = time.perf_counter()
    base = {(r.system_id, r.pair_label): r.in_positive for r in _crosscheck_base()}
    changed = []
    for system in _panel():
        params = InPairParams(extra_e_maps=extra_table_e(system.measure, 50, Fraction(1, 50)))
        for label, x, y in canonical_pairs(system):
            verdict = classify_in_pair(system.sft, system.measure, x, y, 1, params)
            if base[(system.id, label)] != verdict.is_positive:
                changed.append(f"{system.id}/{label}")
    if changed:
        return _result(7, title, False, "verdicts changed: " + ", ".join(changed), t0)
    return _result(7, title, True, "30/30 independence verdicts unchanged", t0)


def criterion_8() -> CriterionResult:
    title = "pigeonhole bound: random-space oracle plus explicit disjoint refutations"
    t0 = time.perf_counter()
    for a in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)):
        if not pigeonhole_oracle(10_000, 12, a, seed=123):
            return _result(8, title, False, f"oracle failed at a={a}", t0)
    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)):
        weights, masks = disjoint_family_counterexample(a)
        total = sum(weights)
        if len(masks) != pigeonhole_bound(a) - 1:
            return _result(8, title, False, f"family size wrong at a={a}", t0)
        measures_ok = all(
            Fraction(sum(w for i, w in enumerate(weights) if mask >> i & 1), total) == a
            for mask in masks
        )
        disjoint = not any(
            masks[i] & masks[j] for i in range(len(masks)) for j in range(i + 1, len(masks))
        )
        if not (measures_ok and disjoint):
            return _result(8, title, False, f"counterexample invalid at a={a}", t0)
    return _result(8, title, True, "3 oracle panels passed; bound-1 refuted at 1/2, 1/3, 1/4", t0)


def criterion_9() -> CriterionResult:
    title = "mean-sensitive implies diam-sensitive; diam profile of X is exactly 1"
    t0 = time.perf_counter()
    bad = [
        f"{r.system_id}/{r.pair_label}"
        for r in _crosscheck_base()
        if r.ms_positive and not r.diam_positive
    ]
    if bad:
        return _result(9, title, False, "ms+ but diam- on: " + ", ".join(bad), t0)
    for system in _panel():
        profile = diam_mean_profile(system.sft, whole_space(system.sft))
        if profile != Fraction(1):
            return _result(9, title, False, f"{system.id}: diam profile {profile}", t0)
    return _result(9, title, True, "implication holds on 30 rows; diam(X) profile exactly 1", t0)


def criterion_10() -> CriterionResult:
    title = "determinism: the bundled acceptance config reruns to a byte-identical CSV"
    t0 = time.perf_counter()
    from click.testing import CliRunner

    from .cli import main as cli_main

    config = bundled_config_path("acceptance_panel")
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        out1 = Path(tmp) / "first"
        out2 = Path(tmp) / "second"
        for out in (out1, out2):
            result = runner.invoke(cli_main, ["run", str(config), "--out-dir", str(out)])
            if result.exit_code != 0:
                return _result(
                    10, title, False,
                    f"run exited {result.exit_code}: {result.output.strip()[:200]}", t0,
                )
        first = out1 / "acceptance_panel.csv"
        second = out2 / "acceptance_panel.csv"
        identical = filecmp.cmp(first, second, shallow=False)
        size = first.stat().st_size
    return _result(10, title, identical, f"two runs, {size} CSV bytes, identical={identical}", t0)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_criteria(numbers=None) -> list[CriterionResult]:
    selected = numbers or range(1, len(ALL_CRITERIA) + 1)
    return [ALL_CRITERIA[n - 1]() for n in selected]
