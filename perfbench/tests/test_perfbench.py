"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

Tiny runs of every workload must emit exactly the metrics BENCHMARK.json
names, a perturbed reference must be reported as a failure (so the gate is
live), and without program sources the benchmark must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--max-items", "2")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def _perturbed_reference(tmp_path: Path, workload: str, perturb) -> Path:
    reference = json.loads((BENCH / "reference" / "seed1" / f"{workload}.json").read_text())
    perturb(reference["items"]["r00i00"]["output"])
    path = tmp_path / f"{workload}.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    return path


def _shift_last_entropy(output: dict) -> None:
    key = next(k for k in ("H", "sequence", "count") if k in output)
    if key == "H":
        output["H"][-1] += 1e-9  # just past the 1e-12 tolerance
    elif key == "sequence":
        output["sequence"][-1] += 1
    else:
        output["count"] += 1


def _flip_label(output: dict) -> None:
    output["classification"] = "negative" if output["classification"] == "positive" else "positive"


@pytest.mark.parametrize(
    "workload, perturb",
    [("entropy_join", _shift_last_entropy), ("witness_sampling", _flip_label)],
)
def test_perturbed_reference_is_a_failure(tmp_path, workload, perturb):
    path = _perturbed_reference(tmp_path, workload, perturb)
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
                     "--max-items", "2", "--reference", str(path))
    assert proc.returncode == 1
    out = last_json(proc)
    assert out["correct"] is False and out["failed"] == 1 and out["attempted"] == 2
    assert "FAILED r00i00" in proc.stderr


def test_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.lstrip().startswith("{") for line in proc.stdout.splitlines())


def test_tracer_patches_every_importing_module():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        from shiftlab import entropy, measures
        from shiftlab.panel import bernoulli_system
        from spans import Tracer

        system = bernoulli_system()
        original = measures.measure_of_constraints
        tracer = Tracer()
        tracer.install()
        try:
            assert entropy.measure_of_constraints is measures.measure_of_constraints is not original
            entropy.sequence_entropy_profile(system.measure, entropy.generator_partition(system.sft), [0, 2])
        finally:
            tracer.remove()
        assert entropy.measure_of_constraints is original and measures.measure_of_constraints is original
        values = tracer.metrics()
        assert values["entropy.sequence_entropy_profile.calls"] == 1
        # Two prefixes: 2 extensions for n = 1 and 2 + 4 for n = 2.
        assert values["measures.measure_of_constraints.calls"] == 8
        assert values["symbolic.constraint_atoms.calls"] == 8
        profile_total = values["entropy.sequence_entropy_profile.total_s"]
        assert values["entropy.sequence_entropy_profile.self_s"] < profile_total
        assert len(tracer.starts) == 17
    finally:
        del sys.path[:2]
