"""Correctness gate: every item's summary is checked after the timed phase.

Two kinds of check:

* closed forms that hold for any seed (Bernoulli H_n / n = log 2, 4-cycle
  H_n <= log 4, the golden-mean independence ratio ceil(N/2)/N, TableE
  extras leaving the IN verdict unchanged, the Bernoulli generator witness
  target 1/4, ...);
* for seeds with a recorded reference (`reference/seed<N>/<workload>.json`),
  equality with the reference: exact rationals as "p/q", verdict labels,
  entropies to 1e-12 and the CSV bytes (as SHA-256) of every config run.
  The bundled configs do not depend on the seed, so their CSV bytes are
  checked on every seed against `reference/bundled.json`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from shiftlab import independence
from shiftlab.verdicts import InPairParams

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_TOLERANCE = 1e-12
LOG2 = math.log(2)
LOG4 = math.log(4)
# Witness densities are tail maxima of running averages over 100k
# (or 20k) reads of an ergodic chain; their standard error is below 0.005.
DENSITY_TOLERANCE = 0.02
EXPECTED_CLASS = {"bernoulli": "positive", "golden_mean": "positive", "cycle4": "negative"}
REFERENCE_KEYS = {"config": ("exit", "csv_sha256", "rows", "csv_rows")}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"seed{seed}" / f"{workload}.json"


def load_reference(path: Path) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def load_bundled() -> dict:
    return json.loads((REFERENCE_DIR / "bundled.json").read_text(encoding="utf-8"))


def reference_view(kind: str, summary: dict) -> dict:
    """The part of a summary that is recorded in, and compared with, a reference."""
    keys = REFERENCE_KEYS.get(kind)
    return summary if keys is None else {k: summary.get(k) for k in keys}


def _differences(expected, actual, where: str) -> list[str]:
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(actual, (int, float)):
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        if abs(expected - actual) > FLOAT_TOLERANCE:
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            out += _differences(expected.get(key), actual.get(key), f"{where}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: expected {len(expected)} entries, got {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += _differences(e, a, f"{where}[{i}]")
        return out
    if expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []


class Gate:
    def __init__(self, workload, reference: dict | None, bundled: dict | None = None):
        self.workload = workload
        self.reference = reference
        if bundled is None and workload.name == "config_run":
            bundled = load_bundled()
        self.bundled = bundled or {}
        self._extras_free: dict = {}

    def check(self, item, summary: dict) -> list[str]:
        """Problems found with one item's summary; empty when it is correct."""
        problems = getattr(self, f"_check_{item.kind}")(item, summary)
        if self.reference is not None:
            entry = self.reference["items"].get(item.id)
            if entry is None:
                problems.append("no reference entry for this item")
            else:
                problems += _differences(entry["input"], item.spec, "input")
                problems += _differences(entry["output"], reference_view(item.kind, summary), "output")
        return problems

    # -- entropy_join ------------------------------------------------------

    def _check_profile(self, item, s):
        problems = []
        hs = s["H"]
        k = self.workload.context["systems"][item.system].sft.alphabet_size
        if len(hs) != len(item.spec["sequence"]):
            problems.append(f"{len(hs)} profile rows for a sequence of {len(item.spec['sequence'])}")
        for n, h in enumerate(hs, start=1):
            if item.system == "bernoulli" and abs(h / n - LOG2) > FLOAT_TOLERANCE:
                problems.append(f"bernoulli H_{n}/{n} = {h / n!r}, expected log 2")
            if item.system == "cycle4" and h > LOG4 + FLOAT_TOLERANCE:
                problems.append(f"cycle4 H_{n} = {h!r} exceeds log 4")
            if h > n * math.log(k) + FLOAT_TOLERANCE:
                problems.append(f"H_{n} = {h!r} exceeds n log {k}")
            if n > 1 and h < hs[n - 2] - FLOAT_TOLERANCE:
                problems.append(f"H_{n} = {h!r} decreased from H_{n - 1}")
        return problems

    def _check_greedy(self, item, s):
        seq = s["sequence"]
        if len(seq) != item.spec["length"] or sorted(set(seq)) != seq or seq[-1] >= item.spec["horizon"]:
            return [f"greedy sequence {seq} is not {item.spec['length']} increasing shifts below the horizon"]
        return []

    def _check_separation(self, item, s):
        count = s["count"]
        limit = 4 if item.system == "cycle4" else item.spec["horizon"]
        if not 1 <= count <= limit:
            return [f"separation count {count} outside [1, {limit}]"]
        return []

    # -- independence_adversarial -----------------------------------------

    def _check_in_pair(self, item, s):
        problems = []
        if s["classification"] != EXPECTED_CLASS[item.system]:
            problems.append(f"{item.system} pair classified {s['classification']}")
        key = (item.system, item.spec["pair_index"])
        if key not in self._extras_free:
            system = self.workload.context["systems"][item.system]
            _, x, y = self.workload.context["pairs"][item.system][item.spec["pair_index"]]
            verdict = independence.classify_in_pair(system.sft, system.measure, x, y, 1, InPairParams())
            self._extras_free[key] = {"classification": verdict.classification, "eps": verdict.eps_certified}
        problems += _differences(self._extras_free[key], s, "verdict without TableE extras")
        return problems

    # -- witness_sampling -------------------------------------------------

    def _check_witness(self, item, s):
        problems = []
        spec = item.spec
        if s["classification"] != spec["expect"]:
            problems.append(f"witness search classified {s['classification']}, expected {spec['expect']}")
        if "target" in s:
            target = Fraction(s["target"])
            if target < Fraction(spec["eps"]):
                problems.append(f"target {s['target']} below eps {spec['eps']}")
            if abs(s["density_upper"] - float(target)) > DENSITY_TOLERANCE:
                problems.append(f"density {s['density_upper']!r} far from target {s['target']}")
            if item.system == "bernoulli" and spec["ux"] == {"start": 0, "word": "0"} \
                    and spec["uy"] == {"start": 0, "word": "1"} and target != Fraction(1, 4):
                problems.append(f"bernoulli generator target {s['target']}, expected 1/4")
        return problems

    def _check_ms_function(self, item, s):
        if s["classification"] != EXPECTED_CLASS[item.system]:
            return [f"{item.system} indicator classified {s['classification']}"]
        return []

    # -- config_run -------------------------------------------------------

    def _check_config(self, item, s):
        problems = []
        if s["exit"] != 0:
            problems.append(f"shiftlab run exited with {s['exit']}")
        if s["rows"] is None:
            return problems + ["shiftlab run did not write one CSV and one JSON report"]
        if s["rows"] != s["csv_rows"]:
            problems.append(f"JSON mirror has {s['rows']} rows, CSV has {s['csv_rows']}")
        bundled = item.spec.get("bundled")
        if bundled is not None:
            problems += _differences(self.bundled[bundled], reference_view("config", s), f"bundled {bundled}")
        for row in s["mirror"]:
            problems += _row_problems(row)
        return problems


def _row_problems(row: dict) -> list[str]:
    """Closed forms on one JSON-mirror row of a config run."""
    system, op, out = row["system_id"], row["operation"], row["outputs"]
    where = f"{row['experiment_id']}/{op}"
    if op.startswith("sequence_entropy_profile"):
        n, h = row["inputs"]["n"], float(out["H_n"])
        # The mirror prints reals with 12 decimals.
        if system == "bernoulli" and abs(float(out["H_n_over_n"]) - LOG2) > 1e-11:
            return [f"{where}: H_n/n = {out['H_n_over_n']}, expected log 2"]
        if system == "cycle4" and h > LOG4 + 1e-11:
            return [f"{where}: H_n = {h} exceeds log 4"]
    elif op.startswith("max_independence_subset"):
        n = row["inputs"]["N"]
        expected = {"golden_mean": Fraction(math.ceil(n / 2), n), "bernoulli": Fraction(1),
                    "cycle4": Fraction(1, n)}[system]
        if row["inputs"]["a1"] == "CylinderUnion(@0: 0)" and row["inputs"]["a2"] == "CylinderUnion(@0: 1)" \
                and Fraction(out["ratio"]) != expected:
            return [f"{where}: ratio {out['ratio']}, expected {expected}"]
    elif op.startswith("find_sensitivity_witnesses"):
        if row["verdict"] != "positive":
            return [f"{where}: verdict {row['verdict']}"]
        if abs(float(out["density_upper"]) - float(Fraction(out["target"]))) > DENSITY_TOLERANCE:
            return [f"{where}: density {out['density_upper']} far from target {out['target']}"]
        # Every Bernoulli sensitivity experiment here uses the generator
        # neighbourhoods Ux = [0]_0, Uy = [1]_0.
        if system == "bernoulli" and out["target"] != "1/4":
            return [f"{where}: generator target {out['target']}, expected 1/4"]
    elif op == "birkhoff_density":
        if abs(float(Fraction(out["birkhoff_average"])) - float(Fraction(out["measure"]))) > 0.05:
            return [f"{where}: Birkhoff average {out['birkhoff_average']} far from {out['measure']}"]
    elif op.startswith("equivalence_crosscheck"):
        if row["verdict"] != "agree":
            return [f"{where}: IN and MS verdicts disagree"]
    return []
