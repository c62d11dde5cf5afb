"""Experiment configuration: strict JSON with string-encoded rationals.

No floating-point inputs anywhere; every probability, eps, and tolerance is
an exact "p/q" (or integer) string, so a config determines its results
bit-for-bit. Validation errors name the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Union

from .errors import ConfigError
from .measures import MarkovMeasure
from .panel import PanelSystem, get_system
from .symbolic import Cylinder, CylinderUnion, EventuallyPeriodic, Sft, whole_space

KINDS = ("entropy", "independence", "sensitivity", "crosscheck", "density")


def parse_rational(value: Any, field_path: str) -> Fraction:
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(field_path, f"invalid rational {value!r} ({err})")
        return f
    raise ConfigError(field_path, f"expected a rational string, got {type(value).__name__}")


def parse_checked(value: Any, field_path: str, kind: type = int, minimum: Optional[int] = None):
    """A JSON integer (or, with kind=bool, a JSON boolean) taken exactly as given.

    Strings, floats and bool-for-int are refused rather than coerced, so
    "1e3", 2000.7 and "false" cannot silently become 1000, 2000 and True.
    """
    if type(value) is not kind:
        expected = "an integer" if kind is int else "true or false"
        raise ConfigError(field_path, f"expected {expected}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(field_path, f"must be >= {minimum}, got {value}")
    return value


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def parse_system(spec: Any, path: str) -> PanelSystem:
    if isinstance(spec, str):
        try:
            return get_system(spec)
        except KeyError:
            raise ConfigError(path, f"unknown bundled system {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a system id or object")
    system_id = _require(spec, "id", path)
    k = _require(spec, "alphabet_size", path)
    allowed = _require(spec, "allowed", path)
    transition = _require(spec, "transition", path)
    try:
        sft = Sft(k, allowed)
    except ValueError as err:
        raise ConfigError(f"{path}.allowed", str(err))
    rows = [
        [parse_rational(v, f"{path}.transition[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(transition)
    ]
    try:
        measure = MarkovMeasure(sft, rows)
    except ValueError as err:
        raise ConfigError(f"{path}.transition", str(err))
    from .entropy import default_cell_family

    return PanelSystem(system_id, sft, measure, tuple(default_cell_family(measure, 1)), "custom system")


def serialize_system(system: PanelSystem) -> dict:
    return {
        "id": system.id,
        "alphabet_size": system.sft.alphabet_size,
        "allowed": [list(row) for row in system.sft.allowed],
        "transition": [
            [f"{v.numerator}/{v.denominator}" for v in row]
            for row in system.measure.transition
        ],
    }


def parse_set(spec: Any, sft: Sft, path: str) -> CylinderUnion:
    if spec == "full":
        return whole_space(sft)
    if isinstance(spec, dict):
        spec = [spec]
    if not isinstance(spec, list) or not spec:
        raise ConfigError(path, "expected 'full', a cylinder object, or a list of them")
    cylinders = []
    for i, c in enumerate(spec):
        if not isinstance(c, dict):
            raise ConfigError(f"{path}[{i}]", "expected a cylinder object")
        start = _require(c, "start", f"{path}[{i}]")
        word = _require(c, "word", f"{path}[{i}]")
        try:
            cylinders.append(Cylinder(sft, int(start), str(word)))
        except ValueError as err:
            raise ConfigError(f"{path}[{i}].word", str(err))
    return CylinderUnion(sft, cylinders)


def parse_point(spec: Any, sft: Sft, path: str):
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a point object")
    kind = _require(spec, "kind", path)
    if kind == "periodic":
        left = spec.get("left", _require(spec, "right", path))
        core = spec.get("core", "")
        right = _require(spec, "right", path)
        try:
            return EventuallyPeriodic(sft, left, core, right)
        except ValueError as err:
            raise ConfigError(path, str(err))
    if kind == "sampled":
        point = {
            key: parse_checked(_require(spec, key, path), f"{path}.{key}")
            for key in ("lo", "hi", "seed")
        }
        if point["lo"] > point["hi"]:
            raise ConfigError(f"{path}.hi", f"must be >= lo ({point['lo']}), got {point['hi']}")
        return point
    raise ConfigError(f"{path}.kind", f"unknown point kind {kind!r}")


@dataclass(frozen=True)
class Experiment:
    experiment_id: str
    kind: str
    system: Optional[PanelSystem]  # None for panel-wide kinds
    params: dict
    raw: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[Experiment, ...]
    csv_name: str
    json_name: str


def parse_experiment(obj: dict, path: str) -> Experiment:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an experiment object")
    exp_id = _require(obj, "experiment_id", path)
    kind = _require(obj, "kind", path)
    if kind not in KINDS:
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected one of {KINDS}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params", "expected an object")
    system = None
    if kind != "crosscheck":
        system = parse_system(_require(obj, "system", path), f"{path}.system")
    return Experiment(str(exp_id), kind, system, params, raw=obj)


def load_config(source: Union[str, Path, dict]) -> RunConfig:
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(str(source), f"not valid JSON: {err}")
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if "experiments" in data:
        entries = data["experiments"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("experiments", "expected a nonempty list")
        experiments = tuple(
            parse_experiment(e, f"experiments[{i}]") for i, e in enumerate(entries)
        )
    else:
        experiments = (parse_experiment(data, "<root>"),)
    output = data.get("output", {})
    csv_name = output.get("csv", "report.csv")
    json_name = output.get("json", "report.json")
    return RunConfig(experiments, csv_name, json_name)


def bundled_config_path(name: str) -> Path:
    from importlib import resources

    base = resources.files("shiftlab") / "configs" / f"{name}.json"
    return Path(str(base))


def roundtrip_system(system: PanelSystem) -> PanelSystem:
    """Serialize and re-parse a bundled system (round-trip identity check)."""
    return parse_system(serialize_system(system), "roundtrip")
