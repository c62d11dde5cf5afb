#!/usr/bin/env python3
"""The shiftlab benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload entropy_join --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; shiftlab is imported from `src/`.
The run

1. times set-up (import, panel construction, input generation) in
   `SETUP_REPEATS` fresh processes and keeps the median;
2. builds the seeded inputs, runs the workload's prelude (if any), then
   runs whole rounds of items, one after another (a closed loop with one
   client), until the rounds have taken `--seconds`; each item is timed
   from outside, around one call into shiftlab, and followed by the
   calibration probe of `calibration.py`;
3. checks every item's output after the timed phase (`gate.py`);
4. writes a run record under `.perfbench/records/` and prints one JSON
   object as the last line of standard output.

With `--trace 0` the metrics are the end-to-end ones: set-up seconds (at
the reference probe speed), item throughput and latency percentiles in
probe units, and peak RSS. The run record also holds the raw seconds. With `--trace 1` each round
runs twice, untraced and then traced with spans around every public
shiftlab function listed in `spans.LAYERS`; the metrics are the per-layer
ones (in seconds and counts) plus `trace.overhead_ratio` (traced over
untraced item time), and the spans are written to `.perfbench/spans/`.

The exit code is 0 only when every item passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from calibration import REFERENCE_PROBE_S, probe, probe_median, probe_units
from spans import OVERHEAD_METRIC, Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3

# Item timings are in probe units (see calibration.py); set-up is in seconds.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_kprobe", "1/kprobe"),
    ("item_p50_probes", "probe"),
    ("item_p90_probes", "probe"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import shiftlab from this checkout's sources, never from elsewhere."""
    package = SRC / "shiftlab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no shiftlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shiftlab

    if Path(shiftlab.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported shiftlab from {shiftlab.__file__}, not {package}")
    return shiftlab


@dataclass
class Record:
    item: object
    seconds: float
    summary: dict | None
    error: str | None
    traced: bool
    probe_s: float = 0.0
    prelude: bool = False


def execute(item, traced: bool) -> Record:
    """Time one item's call, summarize its result, then run the calibration probe."""
    start = time.perf_counter()
    try:
        result = item.call()
        elapsed = time.perf_counter() - start
        record = Record(item, elapsed, item.summarize(result), None, traced)
    except Exception:
        record = Record(item, time.perf_counter() - start, None, traceback.format_exc(), traced)
    record.probe_s = probe()
    return record


def batches(workload):
    if workload.prelude:
        yield workload.prelude
    for r in itertools.count():
        yield workload.rounds[r % len(workload.rounds)]


def timed_phase(workload, seconds: float, max_items: int | None, trace: bool):
    """Run the prelude, then whole rounds until they have taken `seconds`.

    `max_items` caps the round items (the prelude always runs in full).
    Returns the records, the untraced and traced wall times, and the tracer.
    """
    tracer = Tracer() if trace else None
    records: list[Record] = []
    walls = {"untraced": 0.0, "traced": 0.0}
    round_items = 0
    gc.collect()
    rounds_start = None
    for batch in batches(workload):
        prelude = batch is workload.prelude
        if not prelude:
            if rounds_start is None:
                rounds_start = time.perf_counter()
            if max_items is not None:
                batch = batch[: max(0, max_items - round_items)]
                round_items += len(batch)
        for traced in ([False, True] if trace else [False]):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                for item in batch:
                    if traced:
                        tracer.item = len(records)
                    records.append(execute(item, traced))
                    records[-1].prelude = prelude
            finally:
                if traced:
                    tracer.remove()
            walls["traced" if traced else "untraced"] += time.perf_counter() - t0
        if max_items is not None and round_items >= max_items:
            break
        if rounds_start is not None and time.perf_counter() - rounds_start >= seconds:
            break
    return records, walls, tracer


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh processes that import, build the panel and the
    inputs, raw and scaled to the reference probe speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_median()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        speed = statistics.median([before, probe_median()])
        scaled.append(raw[-1] * REFERENCE_PROBE_S / speed)
    return raw, scaled


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def report_failures(failures: list[dict]) -> None:
    for failure in failures[:20]:
        print(f"FAILED {failure['item']}: " + "; ".join(failure["problems"]), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-items", type=int, default=None,
                        help="stop after this many round items (for smoke tests)")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file to check against instead of the recorded one")
    parser.add_argument("--setup-only", action="store_true",
                        help="only import, build the panel and generate the inputs")
    args = parser.parse_args(argv)

    setup_raw = setup_scaled = None
    if not args.setup_only:
        # Fail before spending time on set-up when there is nothing to run.
        if not (SRC / "shiftlab" / "__init__.py").is_file():
            sys.exit(f"perfbench: no shiftlab sources under {SRC}")
        setup_raw, setup_scaled = measure_setup(args.workload, args.seed)

    import_program()
    import workloads
    import gate

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    if args.reference is not None and not args.reference.is_file():
        sys.exit(f"perfbench: no reference file {args.reference}")
    reference_file = args.reference or gate.reference_path(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, SCRATCH / "tmp")
    try:
        if args.setup_only:
            return 0
        records, walls, tracer = timed_phase(workload, args.seconds, args.max_items, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checker = gate.Gate(workload, gate.load_reference(reference_file))
        failures = []
        for rec in records:
            problems = [rec.error] if rec.error else checker.check(rec.item, rec.summary)
            if problems:
                failures.append({"item": rec.item.id, "traced": rec.traced, "problems": problems})
    finally:
        workload.close()

    # The prelude runs once whatever the run length, so it would weigh more in
    # short runs than in long ones; the timing metrics come from the rounds,
    # whose mix is the same in every run. Prelude times stay in the record.
    def passed(traced: bool) -> list[Record]:
        return [r for r in records if r.traced == traced and r.error is None and not r.prelude]

    untraced = passed(False)
    if not untraced:
        report_failures(failures)
        sys.exit("perfbench: every item raised an exception")
    seconds = [r.seconds for r in untraced]
    units = probe_units(seconds, [r.probe_s for r in untraced])
    if args.trace:
        traced = passed(True)
        metric_units = dict(metric_names())
        values = tracer.metrics()
        values[OVERHEAD_METRIC] = sum(probe_units([r.seconds for r in traced], [r.probe_s for r in traced])) / sum(units)
        tracer.write(SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.tsv.gz")
    else:
        metric_units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "items_per_kprobe": 1000 * len(units) / sum(units),
            "item_p50_probes": percentile(units, 50),
            "item_p90_probes": percentile(units, 90),
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()}

    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "reference": str(reference_file) if checker.reference is not None else None,
        "items_attempted": len(records),
        "items_failed": len(failures),
        "failed_ratio": len(failures) / len(records),
        "percentile_samples": len(untraced),
        "setup_seconds_raw": setup_raw,
        "setup_seconds_at_reference_probe": setup_scaled,
        "wall_s": walls,
        "seconds_untraced": {
            "items_per_s": len(seconds) / sum(seconds),
            "item_p50_s": percentile(seconds, 50),
            "item_p90_s": percentile(seconds, 90),
        },
        "probe_s_median": statistics.median(r.probe_s for r in records),
        "items": [[r.item.id, r.item.kind, r.item.system, r.traced, r.seconds, r.probe_s] for r in records],
        "prelude_seconds": {r.item.id: r.seconds for r in records if r.prelude},
        "metrics": metrics,
        "failures": failures,
    }
    record_path = SCRATCH / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    report_failures(failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
