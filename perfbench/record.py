#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py --workload entropy_join --seed 1

Runs every item of the workload's pool once (untimed), checks the closed
forms, and writes `reference/seed<N>/<workload>.json`. For `config_run` it
also writes `reference/bundled.json`, the CSV digests of the bundled
configs, which every seed is checked against. Record only from a commit
whose outputs are known to be right: the gate treats these files as truth.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    run.import_program()
    import gate
    import workloads

    workload = workloads.build(args.workload, args.seed, run.SCRATCH / "tmp")
    try:
        items = workload.prelude + [item for rnd in workload.rounds for item in rnd]
        records = [run.execute(item, traced=False) for item in items]
    finally:
        workload.close()
    bundled = {
        rec.item.spec["bundled"]: gate.reference_view("config", rec.summary)
        for rec in records if rec.summary is not None and "bundled" in rec.item.spec
    }
    checker = gate.Gate(workload, None, bundled)
    failed = False
    for rec in records:
        problems = [rec.error] if rec.error else checker.check(rec.item, rec.summary)
        if problems:
            failed = True
            print(f"FAILED {rec.item.id}: " + "; ".join(problems), file=sys.stderr)
    if failed:
        return 1

    path = gate.reference_path(args.workload, args.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    reference = {
        "workload": args.workload,
        "seed": args.seed,
        "items": {
            rec.item.id: {"input": rec.item.spec, "output": gate.reference_view(rec.item.kind, rec.summary)}
            for rec in records
        },
    }
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if bundled:
        (gate.REFERENCE_DIR / "bundled.json").write_text(
            json.dumps(bundled, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path} ({len(records)} items)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
