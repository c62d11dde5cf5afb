"""Seeded inputs for the four workloads and the shiftlab call each item makes.

A workload is a prelude (items run once at the start of every run, before
the timed rounds start counting towards `--seconds`) followed by a pool of
rounds. Every round of a workload has the same composition of
item slots; the seed only chooses the inputs inside each slot and the order
of the slots in the round. A run executes whole rounds, so every run does
the same mix of work whatever its seed, and runs longer than the pool start
again at its first round.

Round compositions are chosen so that each latency percentile falls inside
a block of items of one kind (see the comments at the slot tables), and so
that a 20-second run has at least 100 items even when the machine runs
slow, leaving ten samples beyond the 90th percentile; cheap items that
bypass the expensive path (separation counts, 4-cycle pairs) make up the
count.

Each item is built at set-up time into an `Item` whose `call` makes exactly
one call into shiftlab. `summarize` turns the result into the JSON-able
summary that the correctness gate checks (`gate.py`); it runs outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from shiftlab import cli, entropy, independence, measures, sensitivity
from shiftlab.config import bundled_config_path, parse_set
from shiftlab.panel import canonical_pairs, panel_systems
from shiftlab.verdicts import MsFunctionParams, InPairParams, WitnessParams

WORKLOADS = ("entropy_join", "independence_adversarial", "witness_sampling", "config_run")

# Rounds generated per run; a run that finishes them starts again at the first.
POOL_ROUNDS = {
    "entropy_join": 24,
    "independence_adversarial": 24,
    "witness_sampling": 32,
    "config_run": 48,
}

# Profile lengths per round. The two 9-term Bernoulli profiles form the block
# of items that holds the 90th latency percentile, so that percentile does not
# jump between item kinds from one run to the next.
ENTROPY_LENGTHS = {"bernoulli": (6, 7, 8, 9, 9), "golden_mean": (6, 7, 8, 9, 10), "cycle4": (6, 7, 8, 9, 10)}
# (panel pair index, number of TableE extras) per independence slot. The two
# extras-free golden-mean slots form the block of items that holds the median
# latency, above the nine 4-cycle slots that stop at the base profile.
IN_SLOTS = {
    "bernoulli": ((0, 0), (1, 8), (2, 4), (3, 6), (4, 2)),
    "golden_mean": ((0, 8), (1, 0), (2, 6), (3, 0), (4, 4)),
    "cycle4": ((0, 4), (1, 8), (2, 0), (3, 6), (4, 2), (5, 1), (6, 3), (7, 5), (8, 7)),
}
TABLE_E_POOL = 32
TABLE_E_EPS = Fraction(1, 50)
WITNESS_HORIZON = 100_000
BUNDLED_CONFIGS = ("goldenmean_independence", "bernoulli_entropy", "acceptance_panel")


@dataclass
class Item:
    kind: str
    system: str
    spec: dict  # JSON description of the inputs, recorded with the reference
    call: Callable[[], Any]
    summarize: Callable[[Any], dict]
    id: str = ""


@dataclass
class Workload:
    name: str
    seed: int
    prelude: list[Item]
    rounds: list[list[Item]]
    workdir: Path | None = None
    context: dict = field(default_factory=dict)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None


def fmt_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _increasing_sequence(rng: random.Random, length: int) -> list[int]:
    seq = [rng.randrange(0, 4)]
    while len(seq) < length:
        seq.append(seq[-1] + rng.randint(1, 6))
    return seq


def _cylinder_spec(rng: random.Random, system, lengths=(1, 2), start=(-2, 2)) -> dict:
    """A positive-measure cylinder {"start", "word"} with a seeded legal word."""
    length = rng.choice(lengths)
    words = [w for w in system.sft.legal_words(length) if system.measure.word_weight(w) > 0]
    word = words[rng.randrange(len(words))]
    return {"start": rng.randint(*start), "word": "".join(map(str, word))}


def _verdict_summary(verdict) -> dict:
    return {"classification": verdict.classification, "eps": verdict.eps_certified}


# ---------------------------------------------------------------------------
# entropy_join
# ---------------------------------------------------------------------------


def _entropy_round(rng: random.Random, systems: dict) -> list[Item]:
    items = []
    for sid, lengths in ENTROPY_LENGTHS.items():
        system = systems[sid]
        partition = entropy.generator_partition(system.sft)
        for length in lengths:
            seq = _increasing_sequence(rng, length)
            items.append(Item(
                "profile", sid, {"sequence": seq},
                lambda m=system.measure, p=partition, s=seq: entropy.sequence_entropy_profile(m, p, s),
                lambda r: {"H": [h for _, h, _ in r.rows]},
            ))
    for sid, system in systems.items():
        spec = _cylinder_spec(rng, system)
        partition = entropy.two_set_partition(parse_set(spec, system.sft, "u"))
        items.append(Item(
            "greedy", sid, {"u": spec, "length": 4, "horizon": 10},
            lambda m=system.measure, p=partition: entropy.greedy_entropy_sequence(m, p, 4, 10),
            lambda r: {"sequence": list(r)},
        ))
    for sid, system in [*systems.items(), *systems.items()]:
        spec = _cylinder_spec(rng, system)
        base = parse_set(spec, system.sft, "base")
        mu = measures.measure_of(system.measure, base)
        items.append(Item(
            "separation", sid, {"base": spec, "horizon": 64, "eps_sq": fmt_fraction(mu * (1 - mu))},
            lambda m=system.measure, b=base, e=mu * (1 - mu): entropy.separation_count(m, b, 64, eps_sq=e),
            lambda r: {"count": r},
        ))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# independence_adversarial
# ---------------------------------------------------------------------------


def _table_e_pool(systems: dict) -> dict:
    """The same TableE population for every seed; the seed picks from it.

    A per-seed population would make the run's average search cost depend
    on the seed, since some override tables force the exact search and
    others are settled by the greedy bound.
    """
    return {
        sid: [(s, independence.random_table_e(system.measure, TABLE_E_EPS, seed=s))
              for s in range(TABLE_E_POOL)]
        for sid, system in systems.items()
    }


def _independence_round(rng: random.Random, systems: dict, pool: dict, pairs: dict) -> list[Item]:
    items = []
    for sid, slots in IN_SLOTS.items():
        system = systems[sid]
        for pair_index, n_extras in slots:
            label, x, y = pairs[sid][pair_index]
            chosen = rng.sample(pool[sid], n_extras)
            params = InPairParams(extra_e_maps=tuple(e for _, e in chosen))
            items.append(Item(
                "in_pair", sid,
                {"pair": label, "pair_index": pair_index, "depth": 1,
                 "table_e_seeds": [s for s, _ in chosen]},
                lambda sy=system, x=x, y=y, p=params: independence.classify_in_pair(
                    sy.sft, sy.measure, x, y, 1, p),
                _verdict_summary,
            ))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# witness_sampling
# ---------------------------------------------------------------------------

GENERATOR_UX = {"start": 0, "word": "0"}
GENERATOR_UY = {"start": 0, "word": "1"}


def _witness_item(system, a_spec, ux_spec, uy_spec, eps: Fraction, seed: int, expect: str) -> Item:
    sft = system.sft
    a, ux, uy = (parse_set(s, sft, n) for s, n in ((a_spec, "a"), (ux_spec, "ux"), (uy_spec, "uy")))
    params = WitnessParams(density_horizon=WITNESS_HORIZON)

    def summarize(verdict) -> dict:
        out = _verdict_summary(verdict)
        if verdict.witnesses:
            w = verdict.witnesses[0]
            out.update(s=w.s, t=w.t, entry_time=w.entry_time,
                       target=fmt_fraction(w.target), density_upper=w.empirical_upper)
        return out

    return Item(
        "witness", system.id,
        {"a": a_spec, "ux": ux_spec, "uy": uy_spec, "eps": fmt_fraction(eps), "seed": seed,
         "expect": expect},
        lambda: sensitivity.find_sensitivity_witnesses(sft, system.measure, a, ux, uy, eps, seed, params),
        summarize,
    )


def _witness_round(rng: random.Random, systems: dict) -> list[Item]:
    bern, gm, c4 = systems["bernoulli"], systems["golden_mean"], systems["cycle4"]
    cells = ["full", {"start": 0, "word": "0"}, {"start": 0, "word": "1"}]

    def seed() -> int:
        return rng.randrange(1 << 31)

    items = [
        # The Bernoulli generator pair: the exact target is 1/4.
        _witness_item(bern, rng.choice(cells), GENERATOR_UX, GENERATOR_UY, Fraction(1, 5), seed(), "positive"),
        _witness_item(bern, rng.choice(cells), GENERATOR_UX, GENERATOR_UY, Fraction(1, 5), seed(), "positive"),
        _witness_item(bern, rng.choice(cells), _cylinder_spec(rng, bern, start=(0, 0)),
                      _cylinder_spec(rng, bern, start=(0, 0)), Fraction(1, 20), seed(), "positive"),
        _witness_item(gm, rng.choice(cells), _cylinder_spec(rng, gm, start=(0, 0)),
                      _cylinder_spec(rng, gm, start=(0, 0)), Fraction(1, 20), seed(), "positive"),
        _witness_item(gm, rng.choice(cells), _cylinder_spec(rng, gm, start=(0, 0)),
                      _cylinder_spec(rng, gm, start=(0, 0)), Fraction(1, 20), seed(), "positive"),
    ]
    # On the 4-cycle the whole space always has a witness; inside a one-symbol
    # cell only shift pairs 4 apart are admissible, so distinct symbols give none.
    ux_sym, uy_sym = rng.sample(range(4), 2)
    items.append(_witness_item(c4, "full", {"start": 0, "word": str(ux_sym)},
                               {"start": 0, "word": str(uy_sym)}, Fraction(1, 5), seed(), "positive"))
    for _ in range(4):
        ux_sym, uy_sym = rng.sample(range(4), 2)
        items.append(_witness_item(c4, {"start": 0, "word": str(rng.randrange(4))},
                                   {"start": 0, "word": str(ux_sym)}, {"start": 0, "word": str(uy_sym)},
                                   Fraction(1, 5), seed(), "negative"))
    # Two 4-cycle tests (negative: every cell is searched) form the block of
    # items that holds the 90th latency percentile.
    for sid in ("bernoulli", "golden_mean", "cycle4", "cycle4"):
        system = systems[sid]
        spec = _cylinder_spec(rng, system)
        b = parse_set(spec, system.sft, "b")
        params = MsFunctionParams(pair_attempts=2, seed=seed())
        items.append(Item(
            "ms_function", sid, {"b": spec, "pair_attempts": 2, "seed": params.seed},
            lambda m=system.measure, b=b, cells=system.cell_family, p=params:
                entropy.ms_function_test(m, b, cells, p),
            _verdict_summary,
        ))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# config_run
# ---------------------------------------------------------------------------


def _config_item(workdir: Path, name: str, config: dict | Path, spec: dict) -> Item:
    """One in-process `shiftlab run CONFIG --out-dir DIR`."""
    if isinstance(config, Path):
        path = config
    else:
        path = workdir / "configs" / f"{name}.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    counter = [0]

    def call():
        counter[0] += 1
        out_dir = workdir / "out" / f"{name}-{counter[0]}"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["run", str(path), "--out-dir", str(out_dir)], standalone_mode=False)
                code = 0
            except SystemExit as stop:
                code = stop.code
        return code, out_dir

    def summarize(result) -> dict:
        code, out_dir = result
        csv_files = sorted(out_dir.glob("*.csv"))
        json_files = sorted(out_dir.glob("*.json"))
        if len(csv_files) != 1 or len(json_files) != 1:
            return {"exit": code, "csv_sha256": None, "rows": None}
        csv_bytes = csv_files[0].read_bytes()
        mirror = json.loads(json_files[0].read_text(encoding="utf-8"))
        shutil.rmtree(out_dir, ignore_errors=True)
        return {
            "exit": code,
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "rows": len(mirror["rows"]),
            "csv_rows": csv_bytes.count(b"\n") - 1,
            "mirror": [
                {k: r[k] for k in ("experiment_id", "system_id", "operation", "inputs", "outputs", "verdict")}
                for r in mirror["rows"]
            ],
        }

    return Item("config", spec.get("system", "panel"), {"name": name, **spec}, call, summarize)


def _entropy_experiment(rng, eid, system, lengths):
    return {"experiment_id": eid, "kind": "entropy", "system": system,
            "params": {"partition": "generators",
                       "sequences": [_increasing_sequence(rng, n) for n in lengths]}}


def _independence_experiment(eid, system, n_max):
    return {"experiment_id": eid, "kind": "independence", "system": system,
            "params": {"a1": {"start": 0, "word": "0"}, "a2": {"start": 0, "word": "1"},
                       "n_list": list(range(1, n_max + 1))}}


def _sensitivity_experiment(rng, eid, system, ux, uy, eps):
    return {"experiment_id": eid, "kind": "sensitivity", "system": system,
            "params": {"a": rng.choice(["full", {"start": 0, "word": "0"}]), "ux": ux, "uy": uy,
                       "eps": eps, "seeds": [rng.randrange(1 << 31)], "horizon": 20_000}}


def _density_experiment(rng, eid, system):
    return {"experiment_id": eid, "kind": "density", "system": system,
            "params": {"point": {"kind": "sampled", "lo": 0, "hi": 10_000, "seed": rng.randrange(1 << 31)},
                       "set": {"start": 0, "word": str(rng.randrange(2))}, "n_max": 10_000}}


def _config_round(rng: random.Random, index: int, workdir: Path) -> list[Item]:
    gm_sym = rng.sample(["0", "1"], 2)
    configs = {
        "entropy_bernoulli": _entropy_experiment(rng, "e_bern", "bernoulli", [6]),
        "entropy_golden_mean": _entropy_experiment(rng, "e_gm", "golden_mean", [5, 5]),
        "entropy_cycle4": _entropy_experiment(rng, "e_c4", "cycle4", [7]),
        "independence_golden_mean": _independence_experiment("i_gm", "golden_mean", rng.randint(8, 12)),
        "independence_bernoulli": _independence_experiment("i_bern", "bernoulli", rng.randint(6, 10)),
        "independence_cycle4": _independence_experiment("i_c4", "cycle4", rng.randint(6, 12)),
        "sensitivity_bernoulli": _sensitivity_experiment(
            rng, "s_bern", "bernoulli", GENERATOR_UX, GENERATOR_UY, "1/5"),
        "sensitivity_golden_mean": _sensitivity_experiment(
            rng, "s_gm", "golden_mean", {"start": 0, "word": gm_sym[0]}, {"start": 0, "word": gm_sym[1]}, "1/20"),
        "density": _density_experiment(rng, "d", rng.choice(["bernoulli", "golden_mean"])),
    }
    # Two multi-experiment configs form the block of items that holds the 90th
    # latency percentile.
    configs["mixed"] = {"experiments": [
        _entropy_experiment(rng, "m_e_c4", "cycle4", [6]),
        _independence_experiment("m_i_gm", "golden_mean", rng.randint(6, 10)),
        _density_experiment(rng, "m_d", "bernoulli"),
    ]}
    configs["mixed_b"] = {"experiments": [
        _entropy_experiment(rng, "m_e_bern", "bernoulli", [5]),
        _sensitivity_experiment(rng, "m_s_gm", "golden_mean", {"start": 0, "word": "0"},
                                {"start": 0, "word": "1"}, "1/20"),
        _independence_experiment("m_i_c4", "cycle4", rng.randint(6, 10)),
    ]}
    items = []
    for slot, config in configs.items():
        system = config.get("system")
        spec = {"slot": slot, "config": config}
        if system:
            spec["system"] = system
        items.append(_config_item(workdir, f"r{index:02d}-{slot}", config, spec))
    rng.shuffle(items)
    return items


def _config_prelude(rng: random.Random, workdir: Path) -> list[Item]:
    """The bundled configs plus a crosscheck with the Kushnirenko column, cheapest first."""
    bundled = [
        _config_item(workdir, name, bundled_config_path(name), {"bundled": name})
        for name in BUNDLED_CONFIGS
    ]
    crosscheck = {"experiment_id": "crosscheck_kush", "kind": "crosscheck",
                  "params": {"pairs": 1, "depth": 1, "include_kush": True,
                             "extra_table_e": rng.randint(0, 1)}}
    return bundled[:1] + [_config_item(workdir, "crosscheck_kush", crosscheck, {"config": crosscheck})] + bundled[1:]


# ---------------------------------------------------------------------------


def build(name: str, seed: int, scratch: Path) -> Workload:
    """Generate every input of one workload. `scratch` receives config files."""
    systems = {s.id: s for s in panel_systems()}
    rounds: list[list[Item]] = []
    prelude: list[Item] = []
    workload = Workload(name, seed, prelude, rounds)
    if name == "entropy_join":
        for r in range(POOL_ROUNDS[name]):
            rounds.append(_entropy_round(_rng(name, seed, f"round{r}"), systems))
    elif name == "independence_adversarial":
        pool = _table_e_pool(systems)
        pairs = {sid: canonical_pairs(system, len(IN_SLOTS[sid])) for sid, system in systems.items()}
        for r in range(POOL_ROUNDS[name]):
            rounds.append(_independence_round(_rng(name, seed, f"round{r}"), systems, pool, pairs))
        workload.context["pairs"] = pairs
    elif name == "witness_sampling":
        for r in range(POOL_ROUNDS[name]):
            rounds.append(_witness_round(_rng(name, seed, f"round{r}"), systems))
    elif name == "config_run":
        scratch.mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="config_run-", dir=scratch))
        (workdir / "configs").mkdir()
        workload.workdir = workdir
        prelude.extend(_config_prelude(_rng(name, seed, "prelude"), workdir))
        for r in range(POOL_ROUNDS[name]):
            rounds.append(_config_round(_rng(name, seed, f"round{r}"), r, workdir))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    workload.context["systems"] = systems
    for i, item in enumerate(prelude):
        item.id = f"p{i}"
    for r, items in enumerate(rounds):
        for i, item in enumerate(items):
            item.id = f"r{r:02d}i{i:02d}"
    return workload
