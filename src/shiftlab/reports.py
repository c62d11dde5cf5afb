"""Deterministic report emission: CSV rows plus a JSON mirror.

The CSV is the plot interface and must be byte-identical across reruns of
the same config: rationals print as "p/q", reals at fixed 12-decimal
precision, rows sorted by their declared key, LF line endings. Wall-clock
runtimes are inherently nondeterministic, so the CSV runtime_ms column is
left empty and real timings live only in the JSON mirror.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

CSV_COLUMNS = (
    "experiment_id",
    "system_id",
    "operation",
    "inputs_digest",
    "outputs",
    "verdict",
    "witness_summary",
    "runtime_ms",
)


def fmt_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def fmt_real(value: float) -> str:
    return f"{value:.12f}"


def fmt_value(value: Any) -> str:
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(fmt_value(v) for v in value) + "]"
    return str(value)


def inputs_digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ReportRow:
    experiment_id: str
    system_id: str
    operation: str
    inputs: dict
    outputs: dict
    verdict: str = ""
    witness_summary: str = ""
    runtime_ms: Optional[float] = None
    details: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return inputs_digest(self.inputs)

    def sort_key(self):
        return (self.experiment_id, self.system_id, self.operation, self.digest)

    def csv_record(self) -> dict:
        outputs = "; ".join(f"{k}={fmt_value(v)}" for k, v in sorted(self.outputs.items()))
        return {
            "experiment_id": self.experiment_id,
            "system_id": self.system_id,
            "operation": self.operation,
            "inputs_digest": self.digest,
            "outputs": outputs,
            "verdict": self.verdict,
            "witness_summary": self.witness_summary,
            "runtime_ms": "",
        }

    def json_record(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "system_id": self.system_id,
            "operation": self.operation,
            "inputs_digest": self.digest,
            "inputs": _jsonable(self.inputs),
            "outputs": _jsonable(self.outputs),
            "verdict": self.verdict,
            "witness_summary": self.witness_summary,
            "runtime_ms": None if self.runtime_ms is None else round(self.runtime_ms, 3),
            "details": _jsonable(self.details),
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return fmt_rational(value)
    if isinstance(value, float):
        return fmt_real(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def render_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sorted(rows, key=ReportRow.sort_key):
        writer.writerow(row.csv_record())
    return buf.getvalue()


def render_json(rows: list[ReportRow], config_echo: Any) -> str:
    payload = {
        "config": _jsonable(config_echo),
        "rows": [r.json_record() for r in sorted(rows, key=ReportRow.sort_key)],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
