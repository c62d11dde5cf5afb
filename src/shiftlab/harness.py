"""Experiment dispatch: turn parsed configs into report rows.

Exit-code conventions for the CLI: 0 success, 1 config error, 2 infeasible
or degenerate experiment (zero-measure cell, empty cylinder), 3 caps or
horizons exhausted with inconclusive verdicts present.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Optional

from .config import KINDS, Experiment, RunConfig
from .entropy import JOIN_ASSIGNMENT_CAP, sequence_entropy_profile
from .errors import EntryTimeNotFoundError
from .folner import density, density_from_indicator, membership_predicate, orbit_indicator
from .independence import full_e, independence_density_profile
from .measures import measure_of, sample_point
from .panel import canonical_pairs, panel_systems
from .reports import ReportRow
from .sensitivity import equivalence_crosscheck, extra_table_e, find_sensitivity_witnesses
from .verdicts import INCONCLUSIVE, InPairParams, Verdict, WitnessParams


class InfeasibleExperiment(Exception):
    """Raised when an experiment is degenerate (exit code 2)."""


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000


def _row(exp: Experiment, operation: str, inputs: dict, outputs: dict, system_id=None, **extra):
    """A ReportRow of exp; `system_id` defaults to the experiment's system."""
    system_id = system_id or exp.system.id
    return ReportRow(exp.experiment_id, system_id, operation, inputs, outputs, **extra)


def _run_entropy(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    partition_spec, partition = exp.params["partition"]
    rows = []
    for si, seq in enumerate(exp.params["sequences"]):
        t0 = time.perf_counter()
        profile = sequence_entropy_profile(exp.system.measure, partition, seq)
        dt = _ms_since(t0)
        for n, h, rate in profile.rows:
            inputs = {"sequence": list(seq), "n": n, "partition": partition_spec}
            operation = f"sequence_entropy_profile[s{si}][n{n:02d}]"
            rows.append(_row(exp, operation, inputs, {"H_n": h, "H_n_over_n": rate}))
        # One profile is one measured span: it lands on the sequence's last
        # row, with the lumped join's size after each prefix.
        rows[-1].runtime_ms = dt
        rows[-1].details = {
            "join_directions": [d for d, _a in profile.join_sizes],
            "join_assignments": [a for _d, a in profile.join_sizes],
            "join_assignment_cap": JOIN_ASSIGNMENT_CAP,
        }
    return rows


def _run_independence(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    sysb, a1, a2 = exp.system, exp.params["a1"], exp.params["a2"]
    if a1.is_empty or a2.is_empty:
        raise InfeasibleExperiment(f"{exp.experiment_id}: empty target cylinder")
    t0 = time.perf_counter()
    reports = independence_density_profile(
        sysb.sft, sysb.measure, a1, a2, exp.params["n_list"], [full_e(sysb.sft)]
    )
    dt = _ms_since(t0)
    rows = []
    for rep in reports:
        inputs = {"N": len(rep.window), "a1": repr(a1), "a2": repr(a2)}
        outputs = {"ratio": rep.ratio, "best_size": len(rep.best), "exhaustive": rep.exhaustive}
        rows.append(_row(exp, f"max_independence_subset[N{len(rep.window):02d}]", inputs, outputs,
                         witness_summary="I=" + ",".join(map(str, rep.best))))
    rows[-1].runtime_ms = dt
    return rows


def _run_sensitivity(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    sft, m = exp.system.sft, exp.system.measure
    a, ux, uy = exp.params["a"], exp.params["ux"], exp.params["uy"]
    eps, seeds, horizon = exp.params["eps"], exp.params["seeds"], exp.params["horizon"]
    if seed_override is not None:
        seeds = [seed_override + i for i in range(len(seeds))]
    if measure_of(m, a) == 0:
        raise InfeasibleExperiment(f"{exp.experiment_id}: zero-measure cell A")
    if ux.is_empty or uy.is_empty:
        raise InfeasibleExperiment(f"{exp.experiment_id}: empty neighbourhood")
    params = WitnessParams(density_horizon=horizon)
    rows = []
    for seed in seeds:
        t0 = time.perf_counter()
        try:
            verdict = find_sensitivity_witnesses(sft, m, a, ux, uy, eps, seed, params)
        except EntryTimeNotFoundError as err:
            verdict = Verdict(INCONCLUSIVE, note=str(err))
        outputs, summary = {}, verdict.note
        if verdict.witnesses:
            w = verdict.witnesses[0]
            outputs = {"s": w.s, "t": w.t, "entry_time": w.entry_time, "target": w.target,
                       "density_upper": w.empirical_upper}
            summary = f"(s,t)=({w.s},{w.t}) e={w.entry_time}"
        inputs = {"seed": seed, "eps": eps, "horizon": horizon}
        rows.append(_row(exp, f"find_sensitivity_witnesses[seed{seed}]", inputs, outputs,
                         verdict=verdict.classification, witness_summary=summary,
                         runtime_ms=_ms_since(t0)))
    return rows


def _run_density(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    t0 = time.perf_counter()
    m, target, point = exp.system.measure, exp.params["set"], exp.params["point"]
    n_max = exp.params["n_max"]
    # One orbit read per point gives the Birkhoff average. A sampled point's
    # density is the tail estimate of that read; a periodic point's is exact.
    if isinstance(point, dict):
        seed = point["seed"] if seed_override is None else seed_override
        point_desc = {"kind": "sampled", "seed": seed}
        hits = orbit_indicator(sample_point(m, point["lo"], point["hi"], seed), target, 0, n_max)
        est = density_from_indicator(hits)
    else:
        point_desc = {"kind": "periodic"}
        hits = orbit_indicator(point, target, 0, n_max)
        est = density(membership_predicate(point, target), n_max=n_max)
    avg = Fraction(int(hits.sum()), n_max)
    outputs = {"birkhoff_average": avg, "density_lower": est.lower, "density_upper": est.upper,
               "measure": measure_of(m, target)}
    inputs = {"point": point_desc, "set": repr(target), "n_max": n_max}
    return [_row(exp, "birkhoff_density", inputs, outputs, runtime_ms=_ms_since(t0))]


def _run_crosscheck(exp: Experiment, seed_override: Optional[int]) -> list[ReportRow]:
    depth, extra, eps = exp.params["depth"], exp.params["extra_table_e"], exp.params["table_e_eps"]
    rows = []
    for system in panel_systems():
        in_params = InPairParams(extra_e_maps=extra_table_e(system.measure, extra, eps))
        t0 = time.perf_counter()
        pairs = canonical_pairs(system, exp.params["pairs"])
        report = equivalence_crosscheck(system, pairs, depth, in_params, exp.params["include_kush"])
        dt = _ms_since(t0)
        for r in report:
            outputs = {"in_positive": r.in_positive, "ms_positive": r.ms_positive,
                       "diam_positive": r.diam_positive, "in_eq_ms": r.in_eq_ms,
                       "ms_implies_diam": r.ms_implies_diam}
            if r.kush_positive is not None:
                outputs["kush_positive"] = bool(r.kush_positive)
            inputs = {"pair": r.pair_label, "depth": depth, "extra_table_e": extra}
            rows.append(_row(exp, f"equivalence_crosscheck[{r.pair_label}]", inputs, outputs,
                             system_id=system.id, verdict="agree" if r.in_eq_ms else "disagree"))
        if report:
            rows[-1].runtime_ms = dt
    return rows


# One runner per config kind, named `_run_<kind>`; a kind without one fails at import.
RUNNERS = {kind: globals()[f"_run_{kind}"] for kind in KINDS}


def run_experiment(exp: Experiment, seed_override: Optional[int] = None) -> list[ReportRow]:
    """The rows of one experiment.

    A row's runtime_ms is the measured span of the call that produced it;
    when one call yields several rows the span sits on the last of them and
    the others carry None.
    """
    return RUNNERS[exp.kind](exp, seed_override)


def run_config(config: RunConfig, seed_override: Optional[int] = None):
    """All rows for a config plus the process exit code: 3 when any verdict is inconclusive."""
    rows = [row for exp in config.experiments for row in run_experiment(exp, seed_override)]
    return rows, (3 if any(row.verdict == INCONCLUSIVE for row in rows) else 0)
