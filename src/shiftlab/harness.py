"""Experiment dispatch: turn parsed configs into report rows.

Exit-code conventions for the CLI: 0 success, 1 config error, 2 infeasible
or degenerate experiment (zero-measure cell, empty cylinder), 3 caps or
horizons exhausted with inconclusive verdicts present.
"""

from __future__ import annotations

import dataclasses
import time
from fractions import Fraction
from typing import Optional

from .config import Experiment, RunConfig, parse_checked, parse_point, parse_rational, parse_set
from .entropy import Partition, generator_partition, sequence_entropy_profile
from .errors import ConfigError, EntryTimeNotFoundError
from .folner import (
    FolnerWindows,
    birkhoff_average,
    density,
    density_from_indicator,
    membership_predicate,
    orbit_indicator,
)
from .independence import full_e, independence_density_profile, random_table_e
from .measures import measure_of, sample_point
from .panel import panel_pairs, panel_systems
from .reports import ReportRow
from .sensitivity import (
    EquivalenceParams,
    equivalence_crosscheck,
    find_sensitivity_witnesses,
)
from .verdicts import INCONCLUSIVE, WitnessParams


class InfeasibleExperiment(Exception):
    """Raised when an experiment is degenerate (exit code 2)."""


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000


def _run_entropy(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    sysb = exp.system
    partition_spec = exp.params.get("partition", "generators")
    path = f"{exp.experiment_id}.params.partition"
    if partition_spec == "generators":
        partition = generator_partition(sysb.sft)
    elif isinstance(partition_spec, list):
        atoms = [
            parse_set(atom, sysb.sft, f"{path}[{i}]")
            for i, atom in enumerate(partition_spec)
        ]
        partition = Partition(atoms)
        try:
            partition.validate_under(sysb.measure)
        except ValueError as err:
            raise ConfigError(path, str(err))
    else:
        raise ConfigError(path, "expected 'generators' or a list of atom sets")
    sequences = exp.params.get("sequences")
    if not isinstance(sequences, list) or not sequences:
        raise ConfigError(f"{exp.experiment_id}.params.sequences", "expected a nonempty list")
    rows = []
    for si, seq in enumerate(sequences):
        t0 = time.perf_counter()
        profile = sequence_entropy_profile(sysb.measure, partition, seq)
        dt = _ms_since(t0)
        for n, h, rate in profile.rows:
            rows.append(
                ReportRow(
                    experiment_id=exp.experiment_id,
                    system_id=sysb.id,
                    operation=f"sequence_entropy_profile[s{si}][n{n:02d}]",
                    inputs={"sequence": list(seq), "n": n, "partition": partition_spec},
                    outputs={"H_n": h, "H_n_over_n": rate},
                )
            )
        # One profile is one measured span: it lands on the sequence's last row.
        rows[-1].runtime_ms = dt
    return rows


def _run_independence(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    sysb = exp.system
    a1 = parse_set(exp.params.get("a1", "full"), sysb.sft, f"{exp.experiment_id}.params.a1")
    a2 = parse_set(exp.params.get("a2", "full"), sysb.sft, f"{exp.experiment_id}.params.a2")
    path = f"{exp.experiment_id}.params.n_list"
    n_list = exp.params.get("n_list")
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError(path, "expected a nonempty list")
    n_list = [parse_checked(n, f"{path}[{i}]", minimum=1) for i, n in enumerate(n_list)]
    if a1.is_empty or a2.is_empty:
        raise InfeasibleExperiment(f"{exp.experiment_id}: empty target cylinder")
    t0 = time.perf_counter()
    reports = independence_density_profile(
        sysb.sft, sysb.measure, a1, a2, n_list, [full_e(sysb.sft)]
    )
    dt = _ms_since(t0)
    rows = []
    for rep in reports:
        rows.append(
            ReportRow(
                experiment_id=exp.experiment_id,
                system_id=sysb.id,
                operation=f"max_independence_subset[N{len(rep.window):02d}]",
                inputs={"N": len(rep.window), "a1": repr(a1), "a2": repr(a2)},
                outputs={
                    "ratio": rep.ratio,
                    "best_size": len(rep.best),
                    "exhaustive": rep.exhaustive,
                },
                witness_summary="I=" + ",".join(map(str, rep.best)),
            )
        )
    rows[-1].runtime_ms = dt
    return rows


def _run_sensitivity(exp: Experiment, seed_override: Optional[int]) -> tuple[list[ReportRow], bool]:
    sysb = exp.system
    path = f"{exp.experiment_id}.params"
    a = parse_set(exp.params.get("a", "full"), sysb.sft, f"{path}.a")
    ux = parse_set(exp.params.get("ux"), sysb.sft, f"{path}.ux")
    uy = parse_set(exp.params.get("uy"), sysb.sft, f"{path}.uy")
    eps = parse_rational(exp.params.get("eps", "1/5"), f"{path}.eps")
    seeds = exp.params.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{path}.seeds", "expected a nonempty list of integers")
    seeds = [parse_checked(seed, f"{path}.seeds[{i}]") for i, seed in enumerate(seeds)]
    if seed_override is not None:
        seeds = [seed_override + i for i in range(len(seeds))]
    horizon = parse_checked(exp.params.get("horizon", 100_000), f"{path}.horizon", minimum=1)
    if measure_of(sysb.measure, a) == 0:
        raise InfeasibleExperiment(f"{exp.experiment_id}: zero-measure cell A")
    if ux.is_empty or uy.is_empty:
        raise InfeasibleExperiment(f"{exp.experiment_id}: empty neighbourhood")
    params = WitnessParams(density_horizon=horizon)
    rows = []
    inconclusive = False
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            verdict = find_sensitivity_witnesses(
                sysb.sft, sysb.measure, a, ux, uy, eps, seed, params
            )
        except EntryTimeNotFoundError as err:
            inconclusive = True
            rows.append(
                ReportRow(
                    experiment_id=exp.experiment_id,
                    system_id=sysb.id,
                    operation=f"find_sensitivity_witnesses[seed{seed}]",
                    inputs={"seed": seed, "eps": eps, "horizon": horizon},
                    outputs={},
                    verdict=INCONCLUSIVE,
                    witness_summary=str(err),
                    runtime_ms=_ms_since(t0),
                )
            )
            continue
        outputs = {}
        summary = verdict.note
        if verdict.witnesses:
            w = verdict.witnesses[0]
            outputs = {
                "s": w.s,
                "t": w.t,
                "entry_time": w.entry_time,
                "target": w.target,
                "density_upper": w.empirical_upper,
            }
            summary = f"(s,t)=({w.s},{w.t}) e={w.entry_time}"
        inconclusive = inconclusive or verdict.classification == INCONCLUSIVE
        rows.append(
            ReportRow(
                experiment_id=exp.experiment_id,
                system_id=sysb.id,
                operation=f"find_sensitivity_witnesses[seed{seed}]",
                inputs={"seed": seed, "eps": eps, "horizon": horizon},
                outputs=outputs,
                verdict=verdict.classification,
                witness_summary=summary,
                runtime_ms=_ms_since(t0),
            )
        )
    return rows, inconclusive


def _run_density(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    t0 = time.perf_counter()
    sysb = exp.system
    path = f"{exp.experiment_id}.params"
    target = parse_set(exp.params.get("set"), sysb.sft, f"{path}.set")
    point_spec = parse_point(exp.params.get("point"), sysb.sft, f"{path}.point")
    n_max = parse_checked(exp.params.get("n_max", 10_000), f"{path}.n_max", minimum=10)
    windows = FolnerWindows.canonical_windows()
    if isinstance(point_spec, dict):
        seed = point_spec["seed"] if seed_override is None else seed_override
        lo, hi = point_spec["lo"], point_spec["hi"]
        if not target.is_empty:
            s_lo, s_hi = target.support
            if lo > min(s_lo, 0) or hi < n_max - 1 + max(s_hi, 0):
                raise ConfigError(
                    f"{path}.point",
                    f"window [{lo}, {hi}] cannot cover n_max={n_max} orbit reads",
                )
        point = sample_point(sysb.measure, lo, hi, seed)
        point_desc = {"kind": "sampled", "seed": seed}
        # One window read serves the density estimate and the Birkhoff average.
        hits = orbit_indicator(point, target, 0, n_max)
        est = density_from_indicator(hits)
        avg = Fraction(int(hits.sum()), n_max)
    else:
        point = point_spec
        point_desc = {"kind": "periodic"}
        est = density(membership_predicate(point, target), windows, n_max=n_max)
        avg = birkhoff_average(point, target, windows, n_max)
    mu = measure_of(sysb.measure, target)
    return [
        ReportRow(
            experiment_id=exp.experiment_id,
            system_id=sysb.id,
            operation="birkhoff_density",
            inputs={"point": point_desc, "set": repr(target), "n_max": n_max},
            outputs={
                "birkhoff_average": avg,
                "density_lower": est.lower,
                "density_upper": est.upper,
                "measure": mu,
            },
            runtime_ms=_ms_since(t0),
        )
    ]


def _run_crosscheck(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    path = f"{exp.experiment_id}.params"
    pair_count = parse_checked(exp.params.get("pairs", 10), f"{path}.pairs", minimum=1)
    depth = parse_checked(exp.params.get("depth", 1), f"{path}.depth", minimum=0)
    extra = parse_checked(exp.params.get("extra_table_e", 0), f"{path}.extra_table_e", minimum=0)
    include_kush = parse_checked(exp.params.get("include_kush", True), f"{path}.include_kush", bool)
    eps = parse_rational(exp.params.get("table_e_eps", "1/50"), f"{path}.table_e_eps")
    systems = panel_systems()
    pairs = panel_pairs(pair_count)
    rows = []
    for system in systems:
        params = EquivalenceParams(depth=depth, include_kush=include_kush)
        if extra:
            extras = tuple(
                random_table_e(system.measure, eps, seed=900 + j) for j in range(extra)
            )
            params = dataclasses.replace(
                params, in_params=dataclasses.replace(params.in_params, extra_e_maps=extras)
            )
        t0 = time.perf_counter()
        report = equivalence_crosscheck([system], {system.id: pairs[system.id]}, params)
        dt = _ms_since(t0)
        for r in report.rows:
            outputs = {
                "in_positive": r.in_positive,
                "ms_positive": r.ms_positive,
                "diam_positive": bool(r.diam_positive),
                "in_eq_ms": r.in_eq_ms,
                "ms_implies_diam": r.ms_implies_diam,
            }
            if r.kush_positive is not None:
                outputs["kush_positive"] = bool(r.kush_positive)
            rows.append(
                ReportRow(
                    experiment_id=exp.experiment_id,
                    system_id=system.id,
                    operation=f"equivalence_crosscheck[{r.pair_label}]",
                    inputs={"pair": r.pair_label, "depth": depth, "extra_table_e": extra},
                    outputs=outputs,
                    verdict="agree" if r.in_eq_ms else "disagree",
                )
            )
        if report.rows:
            rows[-1].runtime_ms = dt
    return rows


def run_experiment(exp: Experiment, seed_override: Optional[int] = None) -> tuple[list[ReportRow], bool]:
    """Rows plus an inconclusive flag for one experiment.

    A row's runtime_ms is the measured span of the call that produced it;
    when one call yields several rows the span sits on the last of them and
    the others carry None.
    """
    inconclusive = False
    if exp.kind == "entropy":
        rows = _run_entropy(exp, seed_override)
    elif exp.kind == "independence":
        rows = _run_independence(exp, seed_override)
    elif exp.kind == "sensitivity":
        rows, inconclusive = _run_sensitivity(exp, seed_override)
    elif exp.kind == "density":
        rows = _run_density(exp, seed_override)
    elif exp.kind == "crosscheck":
        rows = _run_crosscheck(exp, seed_override)
    else:
        raise ConfigError("kind", f"unhandled kind {exp.kind!r}")
    return rows, inconclusive


def run_config(
    config: RunConfig, seed_override: Optional[int] = None
) -> tuple[list[ReportRow], int]:
    """All rows for a config plus the process exit code."""
    outcome_rows: list[ReportRow] = []
    inconclusive = False
    for exp in config.experiments:
        rows, flag = run_experiment(exp, seed_override)
        outcome_rows.extend(rows)
        inconclusive = inconclusive or flag
    return outcome_rows, (3 if inconclusive else 0)
