"""Experiment configuration: strict JSON with string-encoded rationals.

No floating-point inputs anywhere; every probability, eps, and tolerance is
an exact "p/q" (or integer) string, so a config determines its results
bit-for-bit. Every JSON object is read in one pass against a table of its
fields (`FIELDS` holds one per experiment kind): unknown and duplicate keys
are refused, no JSON value is coerced, and every error names the field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Union

from .entropy import Partition, default_cell_family, generator_partition
from .errors import ConfigError
from .independence import separating_depth
from .measures import MarkovMeasure
from .panel import PanelSystem, canonical_pairs, get_system, panel_systems
from .symbolic import CylinderUnion, EventuallyPeriodic, Sft, cylinder, whole_space


def parse_rational(value: Any, field_path: str, context: Any = None) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(field_path, f"invalid rational {value!r} ({err})")
        return f
    raise ConfigError(field_path, f"expected a rational string, got {value!r}")


def _positive(value: Any, path: str, context: Any = None) -> Fraction:
    if (f := parse_rational(value, path)) <= 0:
        raise ConfigError(path, f"must be > 0, got {value!r}")
    return f


# A field is (key, parser, default). A parser takes (JSON value, field path,
# context) and returns the parsed value; the context is the experiment's
# system for params fields. A default is a JSON value and goes through the
# parser; REQUIRED marks a key with none.
REQUIRED = object()


def _walk(obj: Any, fields: tuple, path: str, context: Any = None) -> dict:
    """One pass over a JSON object: unknown keys are refused, every field parsed."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    names = tuple(name for name, _parse, _default in fields)
    for key in obj:
        if key not in names:
            raise ConfigError(f"{path}.{key}", f"unknown field; expected one of {names}")
    parsed = {}
    for name, parse, default in fields:
        value = obj.get(name, default)
        if value is REQUIRED:
            raise ConfigError(f"{path}.{name}", "missing required field")
        parsed[name] = parse(value, f"{path}.{name}", context)
    return parsed


def _checked(kind: type = int, minimum: Optional[int] = None, maximum: Optional[int] = None):
    """A parser for a JSON integer (or, with kind=bool or str, a JSON boolean
    or string) taken exactly as given.

    Strings, floats and bool-for-int are refused rather than coerced, so
    "1e3", 2000.7 and "false" cannot silently become 1000, 2000 and True.
    """
    def parse(value: Any, path: str, context: Any = None):
        if type(value) is not kind:
            expected = {int: "an integer", bool: "true or false", str: "a string"}[kind]
            raise ConfigError(path, f"expected {expected}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(path, f"must be <= {maximum}, got {value}")
        return value
    return parse


def _each(parse):
    """A parser for a nonempty list of items that `parse` takes."""
    def parse_list(value: Any, path: str, context: Any = None) -> list:
        if not isinstance(value, list) or not value:
            raise ConfigError(path, "expected a nonempty list")
        return [parse(v, f"{path}[{i}]", context) for i, v in enumerate(value)]
    return parse_list


_SYSTEM = (
    ("id", _checked(str), REQUIRED),
    ("alphabet_size", _checked(minimum=1), REQUIRED),
    ("allowed", _each(_each(_checked(bool))), REQUIRED),
    ("transition", _each(_each(parse_rational)), REQUIRED),
)


def parse_system(spec: Any, path: str, context: Any = None) -> PanelSystem:
    if isinstance(spec, str):
        try:
            return get_system(spec)
        except KeyError:
            raise ConfigError(path, f"unknown bundled system {spec!r}")
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a system id or object")
    s = _walk(spec, _SYSTEM, path)
    try:  # Sft and MarkovMeasure check the matrix shapes against alphabet_size
        sft = Sft(s["alphabet_size"], s["allowed"])
    except ValueError as err:
        raise ConfigError(f"{path}.allowed", str(err))
    try:
        measure = MarkovMeasure(sft, s["transition"])
    except ValueError as err:
        raise ConfigError(f"{path}.transition", str(err))
    cells = tuple(default_cell_family(measure, 1))
    return PanelSystem(s["id"], sft, measure, cells, "custom system")


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


_CYLINDER = (("start", _checked(), REQUIRED), ("word", _checked(str), REQUIRED))


def parse_set(spec: Any, sft: Sft, path: str) -> CylinderUnion:
    if spec == "full":
        return whole_space(sft)
    if isinstance(spec, dict):
        spec = [spec]
    if not isinstance(spec, list) or not spec:
        raise ConfigError(path, "expected 'full', a cylinder object, or a list of them")
    pairs = []
    for i, c in enumerate(spec):
        c = _walk(c, _CYLINDER, f"{path}[{i}]")
        try:
            cylinder(sft, c["start"], c["word"])  # a bad word fails here, under its own path
        except ValueError as err:
            raise ConfigError(f"{path}[{i}].word", str(err))
        pairs.append((c["start"], c["word"]))
    try:
        return CylinderUnion(sft, pairs)
    except ValueError as err:  # a union too wide to normalize exactly
        raise ConfigError(path, str(err))


_POINTS = {
    "periodic": (
        ("kind", _checked(str), REQUIRED),
        ("right", _checked(str), REQUIRED),
        ("left", _checked(str), REQUIRED),  # parse_point defaults it to right
        ("core", _checked(str), ""),
    ),
    "sampled": (("kind", _checked(str), REQUIRED),)
    + tuple((key, _checked(), REQUIRED) for key in ("lo", "hi", "seed")),
}


def parse_point(spec: Any, sft: Sft, path: str):
    """An EventuallyPeriodic point, or a sampled point's {kind, lo, hi, seed}."""
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected a point object")
    kind = spec.get("kind")
    if kind == "periodic":
        p = _walk({"left": spec.get("right"), **spec}, _POINTS[kind], path)
        try:
            return EventuallyPeriodic(sft, p["left"], p["core"], p["right"])
        except ValueError as err:
            raise ConfigError(path, str(err))
    if kind == "sampled":
        point = _walk(spec, _POINTS[kind], path)
        if point["lo"] > point["hi"]:
            raise ConfigError(f"{path}.hi", f"must be >= lo ({point['lo']}), got {point['hi']}")
        return point
    raise ConfigError(f"{path}.kind", f"unknown point kind {kind!r}")


def _set(value, path, system):
    return parse_set(value, system.sft, path)


def _partition(value, path, system):
    """(the spec rows echo, the Partition)."""
    if value == "generators":
        return value, generator_partition(system.sft)
    if not isinstance(value, list):
        raise ConfigError(path, "expected 'generators' or a nonempty list of atom sets")
    partition = Partition(_each(_set)(value, path, system))
    try:
        partition.validate_under(system.measure)
    except ValueError as err:
        raise ConfigError(path, str(err))
    return value, partition


def _increasing(value, path, system):
    """A nonempty, nonnegative, strictly increasing list of integers."""
    seq = _each(_checked(minimum=0))(value, path)
    for j in range(1, len(seq)):
        _checked(minimum=seq[j - 1] + 1)(seq[j], f"{path}[{j}]")
    return seq


# The params fields of each experiment kind; its keys are the kinds.
FIELDS = {
    "entropy": (
        ("partition", _partition, "generators"),
        ("sequences", _each(_increasing), REQUIRED),
    ),
    "independence": (
        ("a1", _set, "full"),
        ("a2", _set, "full"),
        ("n_list", _each(_checked(minimum=1)), REQUIRED),
    ),
    "sensitivity": (
        ("a", _set, "full"),
        ("ux", _set, REQUIRED),
        ("uy", _set, REQUIRED),
        ("eps", _positive, "1/5"),
        ("seeds", _each(_checked()), REQUIRED),
        ("horizon", _checked(minimum=1), 100_000),
    ),
    "crosscheck": (
        ("pairs", _checked(minimum=1, maximum=12), 10),  # cycle4 has 12 ordered pairs
        ("depth", _checked(minimum=1), 1),  # the panel's pairs first differ at |n| = 1
        ("extra_table_e", _checked(minimum=0), 0),
        ("include_kush", _checked(bool), True),
        ("table_e_eps", _positive, "1/50"),
    ),
    "density": (
        ("set", _set, REQUIRED),
        ("point", lambda value, path, system: parse_point(value, system.sft, path), REQUIRED),
        ("n_max", _checked(minimum=10), 10_000),
    ),
}
KINDS = tuple(FIELDS)


def _kind(value, path, context):
    if not isinstance(value, str) or value not in FIELDS:
        raise ConfigError(path, f"unknown kind {value!r}; expected one of {KINDS}")
    return value


# "system" comes last: panel-wide kinds (crosscheck) run over the bundled
# panel and take none.
_EXPERIMENT = (
    ("experiment_id", _checked(str), REQUIRED),
    ("kind", _kind, REQUIRED),
    ("params", lambda value, path, context: value, {}),
    ("system", parse_system, REQUIRED),
)


def _experiment_fields(obj: Any) -> tuple:
    panel_wide = isinstance(obj, dict) and obj.get("kind") == "crosscheck"
    return _EXPERIMENT[:-1] if panel_wide else _EXPERIMENT


def _check_window(params: dict, path: str) -> None:
    """A sampled point's window must hold every orbit read of the density run."""
    point, target, n_max = params["point"], params["set"], params["n_max"]
    if isinstance(point, dict) and not target.is_empty:
        s_lo, s_hi = target.support
        if point["lo"] > min(s_lo, 0) or point["hi"] < n_max - 1 + max(s_hi, 0):
            msg = f"window [{point['lo']}, {point['hi']}] cannot cover n_max={n_max} orbit reads"
            raise ConfigError(f"{path}.point", msg)


def _check_pairs(params: dict, path: str) -> None:
    """Every crosscheck pair must differ on [-depth, depth], where its neighbourhoods live."""
    depth = params["depth"]
    for system in panel_systems():
        for label, x, y in canonical_pairs(system, params["pairs"]):
            if separating_depth(x, y, depth) is None:
                msg = f"{system.id} pair {label} agrees on [-{depth}, {depth}]"
                raise ConfigError(f"{path}.pairs", f"{msg}; raise depth or lower pairs")


@dataclass(frozen=True)
class Experiment:
    experiment_id: str
    kind: str
    system: Optional[PanelSystem]  # None for panel-wide kinds
    params: dict  # parsed values, keyed as in FIELDS[kind]


@dataclass(frozen=True)
class RunConfig:
    experiments: tuple[Experiment, ...]
    csv_name: str
    json_name: str
    source: dict  # the JSON as loaded, echoed into the report's JSON mirror


def _experiment(e: dict) -> Experiment:
    """The Experiment of a walked experiment object; its params are walked here."""
    path = f"{e['experiment_id']}.params"
    params = _walk(e["params"], FIELDS[e["kind"]], path, e.get("system"))
    if e["kind"] == "density":
        _check_window(params, path)
    elif e["kind"] == "crosscheck":
        _check_pairs(params, path)
    return Experiment(e["experiment_id"], e["kind"], e.get("system"), params)


def parse_experiment(obj: Any, path: str, context: Any = None) -> Experiment:
    return _experiment(_walk(obj, _experiment_fields(obj), path))


def _file_name(value: Any, path: str, context: Any = None) -> str:
    name = _checked(str)(value, path)
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(path, f"expected a file name inside the output directory, got {name!r}")
    return name


_OUTPUT = (("csv", _file_name, "report.csv"), ("json", _file_name, "report.json"))
_BATCH = (
    ("experiments", _each(parse_experiment), REQUIRED),
    ("output", lambda value, path, context: _walk(value, _OUTPUT, path), {}),
)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(key, "duplicate key")
        obj[key] = value
    return obj


def load_config(source: Union[str, Path, dict]) -> RunConfig:
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(str(source), f"not valid JSON: {err}")
    else:
        data = source
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    if "experiments" in data:
        run = _walk(data, _BATCH, "<root>")
        experiments = tuple(run["experiments"])
    else:  # one experiment at the root, beside the output names
        run = _walk(data, _experiment_fields(data) + _BATCH[1:], "<root>")
        experiments = (_experiment(run),)
    output = run["output"]
    if output["csv"] == output["json"]:
        raise ConfigError("<root>.output.json", f"must differ from output.csv ({output['csv']!r})")
    return RunConfig(experiments, output["csv"], output["json"], data)


def bundled_config_path(name: str) -> Path:
    return Path(__file__).parent / "configs" / f"{name}.json"
