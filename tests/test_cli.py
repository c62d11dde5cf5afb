import csv
import hashlib
import json
import re

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab import symbolic
from shiftlab.cli import main
from shiftlab.config import ConfigError, bundled_config_path, load_config
from shiftlab.harness import run_config


@pytest.fixture()
def runner():
    return CliRunner()


def test_list_panel(runner):
    result = runner.invoke(main, ["list-panel"])
    assert result.exit_code == 0
    assert "bernoulli" in result.output
    assert "golden_mean" in result.output
    assert "(2/3, 1/3)" in result.output
    assert result.output.count("pairs:") == 3


def test_run_bernoulli_entropy(runner, tmp_path):
    config = bundled_config_path("bernoulli_entropy")
    result = runner.invoke(main, ["run", str(config), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    csv_text = (tmp_path / "bernoulli_entropy.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0] == (
        "experiment_id,system_id,operation,inputs_digest,outputs,verdict,"
        "witness_summary,runtime_ms"
    )
    rates = re.findall(r"H_n_over_n=([0-9.]+)", csv_text)
    assert len(rates) == 12
    assert all(rate == "0.693147180560" for rate in rates)
    assert "\r" not in csv_text


def test_run_goldenmean_independence(runner, tmp_path):
    config = bundled_config_path("goldenmean_independence")
    result = runner.invoke(main, ["run", str(config), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    csv_text = (tmp_path / "goldenmean_independence.csv").read_text(encoding="utf-8")
    ratios = re.findall(r"ratio=([0-9]+/[0-9]+)", csv_text)
    from fractions import Fraction

    expected = [Fraction((n + 1) // 2, n) for n in range(1, 13)]
    assert [Fraction(r) for r in ratios] == expected


def test_malformed_rational_exits_1(runner, tmp_path):
    config = {
        "experiment_id": "broken",
        "kind": "entropy",
        "system": {
            "id": "x",
            "alphabet_size": 2,
            "allowed": [[True, True], [True, True]],
            "transition": [["1/0", "1/2"], ["1/2", "1/2"]],
        },
        "params": {"sequences": [[0, 1]]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert "transition[0][0]" in result.output


def test_zero_measure_cell_exits_2(runner, tmp_path):
    config = {
        "experiment_id": "degenerate",
        "kind": "sensitivity",
        "system": "golden_mean",
        "params": {
            "a": {"start": 0, "word": "11"},
            "ux": {"start": 0, "word": "0"},
            "uy": {"start": 0, "word": "1"},
            "eps": "1/5",
            "seeds": [1],
            "horizon": 1000,
        },
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 2


def test_seed_override_changes_samples(runner, tmp_path):
    config = {
        "experiment_id": "density_seeded",
        "kind": "density",
        "system": "bernoulli",
        "params": {
            "point": {"kind": "sampled", "lo": 0, "hi": 3000, "seed": 5},
            "set": {"start": 0, "word": "0"},
            "n_max": 3000,
        },
        "output": {"csv": "d.csv", "json": "d.json"},
    }
    path = tmp_path / "density.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    r1 = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path / "a")])
    r2 = runner.invoke(
        main, ["run", str(path), "--out-dir", str(tmp_path / "b"), "--seed-override", "6"]
    )
    assert r1.exit_code == 0 and r2.exit_code == 0
    a = (tmp_path / "a" / "d.csv").read_text()
    b = (tmp_path / "b" / "d.csv").read_text()
    assert a != b


def test_json_mirror_carries_witness_data(runner, tmp_path):
    config = bundled_config_path("acceptance_panel")
    result = runner.invoke(main, ["run", str(config), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0
    payload = json.loads((tmp_path / "acceptance_panel.json").read_text())
    assert payload["rows"]
    witness_rows = [
        r for r in payload["rows"] if r["operation"].startswith("find_sensitivity")
    ]
    assert witness_rows and all("target" in r["outputs"] for r in witness_rows)
    assert all("runtime_ms" in r for r in payload["rows"])


def test_load_config_errors_name_fields(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config({"experiments": []})
    assert "experiments" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_config({"experiment_id": "x", "kind": "entropy"})
    assert "system" in str(err.value)
    with pytest.raises(ConfigError) as err:
        load_config({"experiment_id": "x", "kind": "wat", "system": "bernoulli"})
    assert "kind" in str(err.value)


_SENSITIVITY = {
    "experiment_id": "s",
    "kind": "sensitivity",
    "system": "bernoulli",
    "params": {
        "ux": {"start": 0, "word": "0"},
        "uy": {"start": 0, "word": "1"},
        "seeds": [1],
        "horizon": 2000,
    },
}
_INDEPENDENCE = {
    "experiment_id": "i",
    "kind": "independence",
    "system": "golden_mean",
    "params": {"a1": {"start": 0, "word": "0"}, "a2": {"start": 0, "word": "1"}, "n_list": [2, 3]},
}
_ENTROPY = {
    "experiment_id": "e",
    "kind": "entropy",
    "system": "bernoulli",
    "params": {"sequences": [[0, 1]]},
}
_CROSSCHECK = {"experiment_id": "c", "kind": "crosscheck", "params": {"pairs": 1, "depth": 1}}
_DENSITY_EMPTY = {
    "experiment_id": "d",
    "kind": "density",
    "system": "golden_mean",
    "params": {
        "point": {"kind": "sampled", "lo": 0, "hi": 10, "seed": 1},
        "set": {"start": 0, "word": "11"},
        "n_max": 5,
    },
}


_INLINE = {
    "experiment_id": "x",
    "kind": "entropy",
    "system": {
        "id": "x",
        "alphabet_size": 2,
        "allowed": [[True, True], [True, True]],
        "transition": [["1/2", "1/2"], ["1/2", "1/2"]],
    },
    "params": {"sequences": [[0, 1]]},
}


def _put(*keys_and_value):
    """A config edit: set the value at the key path, then write the JSON."""
    *parents, key, value = keys_and_value

    def edit(config):
        node = config
        for step in parents:
            node = node[step]
        node[key] = value
        return json.dumps(config)

    return edit


def _twice(key):
    """A config edit: write a root key a second time (json.dumps cannot)."""
    return lambda config: json.dumps(config)[:-1] + f', "{key}": {json.dumps(config[key])}}}'


@pytest.mark.parametrize(
    "base, edit, field",
    [
        (_SENSITIVITY, _put("params", "horizon", "1e3"), "s.params.horizon"),
        (_SENSITIVITY, _put("params", "horizon", 2000.7), "s.params.horizon"),
        (_SENSITIVITY, _put("params", "seeds", [1, "2"]), "s.params.seeds[1]"),
        (_INDEPENDENCE, _put("params", "n_list", [2, 3.5]), "i.params.n_list[1]"),
        (_CROSSCHECK, _put("params", "include_kush", "false"), "c.params.include_kush"),
        (
            _DENSITY_EMPTY,
            _put("params", "point", {"kind": "sampled", "lo": 5, "hi": 0, "seed": 1}),
            "d.params.point.hi",
        ),
        (_DENSITY_EMPTY, _put("params", "n_max", 5), "d.params.n_max"),
        (_ENTROPY, _put("params", "sequences", [[0, 3, 1]]), "e.params.sequences[0][2]"),
        (_ENTROPY, _put("params", "sequences", [["a"]]), "e.params.sequences[0][0]"),
        (_ENTROPY, _put("params", "sequences", [[[1]]]), "e.params.sequences[0][0]"),
        (_ENTROPY, _put("params", "sequences", [[-1, 2]]), "e.params.sequences[0][0]"),
        (_ENTROPY, _put("params", "sequences", [[]]), "e.params.sequences[0]"),
        (_ENTROPY, _put("params", "sequences", [[0.5, 2]]), "e.params.sequences[0][0]"),
        (_ENTROPY, _put("output", "x"), "<root>.output"),
        (_ENTROPY, _put("output", {"csv": 5}), "<root>.output.csv"),
        (_INLINE, _put("system", "alphabet_size", "2"), "<root>.system.alphabet_size"),
        (_INLINE, _put("system", "transition", 5), "<root>.system.transition"),
        (
            _DENSITY_EMPTY,
            _put("params", "point", {"kind": "periodic", "right": 1}),
            "d.params.point.right",
        ),
        (_INDEPENDENCE, _put("params", "a1", {"start": 0.7, "word": "0"}), "i.params.a1[0].start"),
        (_INDEPENDENCE, _put("params", "a1", {"start": 0, "word": 10}), "i.params.a1[0].word"),
        (_INDEPENDENCE, _put("params", "a1", {"start": 0, "word": "2"}), "i.params.a1[0].word"),
        (_INDEPENDENCE, _put("params", "a1", {"start": 0, "word": ""}), "i.params.a1[0].word"),
        (_INDEPENDENCE, _put("params", "a1", {"start": 0, "word": "0a"}), "i.params.a1[0].word"),
        (_ENTROPY, _put("params", "nmax", 7), "e.params.nmax"),
        (_ENTROPY, _twice("kind"), "kind"),
        (_SENSITIVITY, _put("params", "eps", "0"), "s.params.eps"),
        (_CROSSCHECK, _put("params", "depth", 0), "c.params.depth"),
        (_CROSSCHECK, _put("params", "pairs", 13), "c.params.pairs"),
        (_CROSSCHECK, _put("params", "pairs", 12), "c.params.pairs"),
        (_CROSSCHECK, _put("params", "table_e_eps", "0"), "c.params.table_e_eps"),
        (_CROSSCHECK, _put("params", "table_e_eps", "-1"), "c.params.table_e_eps"),
        (
            _INDEPENDENCE,
            _put("params", "a1", [{"start": 0, "word": "0"}, {"start": 20, "word": "0"}]),
            "i.params.a1",
        ),
    ],
    ids=[
        "horizon-string",
        "horizon-float",
        "seed-string",
        "n-float",
        "include-kush-string",
        "sampled-lo-above-hi",
        "density-n-max-below-10",
        "sequence-decreasing",
        "sequence-string",
        "sequence-nested",
        "sequence-negative",
        "sequence-empty",
        "sequence-float",
        "output-string",
        "output-csv-integer",
        "alphabet-size-string",
        "transition-integer",
        "periodic-right-integer",
        "cylinder-start-float",
        "cylinder-word-integer",
        "cylinder-word-out-of-range",
        "cylinder-word-empty",
        "cylinder-word-not-digits",
        "unknown-param",
        "duplicate-key",
        "eps-zero",
        "crosscheck-depth-zero",
        "crosscheck-pairs-above-panel",
        "crosscheck-pair-agrees-at-depth",
        "table-e-eps-zero",
        "table-e-eps-negative",
        "union-too-wide",
    ],
)
def test_bad_config_scalars_exit_1(runner, tmp_path, monkeypatch, base, edit, field):
    # A small budget makes the too-wide union fail fast; every other case's sets
    # normalize to a few words.
    monkeypatch.setattr(symbolic, "WORD_BUDGET", 1 << 10)
    path = tmp_path / "bad.json"
    path.write_text(edit(json.loads(json.dumps(base))), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"config error: {field}:" in result.output
    assert "Traceback" not in result.output


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_DUPLICATE = "@duplicate@"


def _containers(node):
    """Every nonempty object or list of a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_configs_raise_only_config_errors(tmp_path_factory, data):
    """Dropped, retyped, duplicated or added keys, out-of-range values and
    wrong shapes anywhere in a config surface as ConfigError at load time."""
    names = sorted(BUNDLED_CSV_SHA256)
    name = data.draw(st.sampled_from(names + ["inline"]))
    if name == "inline":
        config = json.loads(json.dumps(_INLINE))
    else:
        config = json.loads(bundled_config_path(name).read_text(encoding="utf-8"))
    node = data.draw(st.sampled_from(list(_containers(config))))
    key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    mutation = data.draw(st.sampled_from(["drop", "retype", "range", "shape", "add", "duplicate"]))
    value = node[key]
    if mutation == "drop":
        del node[key]
    elif mutation == "retype":
        node[key] = data.draw(_JSON)
    elif mutation == "range":
        node[key] = data.draw(st.sampled_from([-1, 0, 1, 10**9, -(10**9)]))
    elif mutation == "shape":
        node[key] = data.draw(st.sampled_from([[value], {"x": value}, [], {}, [value, value]]))
    elif mutation == "add" and isinstance(node, dict):
        node[data.draw(st.text(min_size=1, max_size=8))] = data.draw(_JSON)
    elif mutation == "add":
        node.append(data.draw(_JSON))
    text = json.dumps(config)
    if mutation == "duplicate" and isinstance(node, dict):
        node[key] = _DUPLICATE
        pair = f"{json.dumps(key)}: {json.dumps(value)}"
        text = json.dumps(config).replace(f"{json.dumps(key)}: {json.dumps(_DUPLICATE)}", f"{pair}, {pair}")
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text, encoding="utf-8")
    try:
        load_config(path)
    except ConfigError:
        pass


_DENSITY = {
    "experiment_id": "d",
    "kind": "density",
    "system": "golden_mean",
    "params": {
        "point": {"kind": "sampled", "lo": 0, "hi": 200, "seed": 1},
        "set": {"start": 0, "word": "0"},
        "n_max": 100,
    },
}


def _drop(*keys):
    """A config edit: delete the key at the key path, then write the JSON."""
    *parents, key = keys

    def edit(config):
        node = config
        for step in parents:
            node = node[step]
        del node[key]
        return json.dumps(config)

    return edit


@pytest.mark.parametrize(
    "base, edit",
    [
        (_ENTROPY, _put("system", "cycle4")),
        (_ENTROPY, _put("params", "partition", [{"start": 0, "word": "0"}, {"start": 0, "word": "1"}])),
        (_ENTROPY, _put("params", "partition", [{"start": 0, "word": "00"}, {"start": 0, "word": "1"}])),
        (_ENTROPY, _drop("params", "sequences")),
        (_INDEPENDENCE, _put("params", "a1", "full")),
        (_INDEPENDENCE, _put("params", "a2", {"start": 0, "word": "11"})),
        (_INDEPENDENCE, _put("params", "n_list", [1, 1])),
        (_INDEPENDENCE, _put("system", "cycle4")),
        (_SENSITIVITY, _put("params", "horizon", 1)),
        (_SENSITIVITY, _put("params", "seeds", [])),
        (_SENSITIVITY, _put("params", "a", {"start": 0, "word": "0"})),
        (_SENSITIVITY, _put("system", "golden_mean")),
        (_DENSITY, _put("params", "n_max", 1000)),
        (_DENSITY, _put("params", "point", {"kind": "periodic", "right": "01"})),
        (_DENSITY, _put("params", "point", {"kind": "periodic", "right": "11"})),
        (_DENSITY, _put("params", "set", {"start": 0, "word": "11"})),
        (_CROSSCHECK, _put("params", "include_kush", False)),
        (_CROSSCHECK, _put("params", "extra_table_e", 1)),
        (_CROSSCHECK, _put("params", "table_e_eps", "1")),
        (_CROSSCHECK, _put("params", "depth", 2)),
    ],
    ids=[
        "entropy-cycle4",
        "entropy-two-set-partition",
        "entropy-partition-short",
        "entropy-no-sequences",
        "independence-a1-full",
        "independence-a2-empty",
        "independence-n-repeated",
        "independence-cycle4",
        "sensitivity-horizon-1",
        "sensitivity-no-seeds",
        "sensitivity-a-cylinder",
        "sensitivity-golden-mean",
        "density-n-max-past-window",
        "density-periodic-point",
        "density-illegal-periodic-point",
        "density-empty-set",
        "crosscheck-no-kush",
        "crosscheck-extra-table-e",
        "crosscheck-table-e-eps-1",
        "crosscheck-depth-2",
    ],
)
def test_mutated_configs_run_cleanly(runner, tmp_path, base, edit):
    """The run half of the mutation property: a mutated config under
    `shiftlab run` ends with one of the documented exit codes and no traceback."""
    path = tmp_path / "mutated.json"
    path.write_text(edit(json.loads(json.dumps(base))), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in result.output


# The CSV digests of the bundled configs, as recorded in perfbench/reference/bundled.json.
BUNDLED_CSV_SHA256 = {
    "acceptance_panel": "90d97a2db20f079e3d337596d6ad572fd32ba700c888d735860ac447290dc8ea",
    "bernoulli_entropy": "382c72eb9fba47967fc0c0786df9cfda5cde6eb944187a0f505a33fb698961fb",
    "goldenmean_independence": "52e381224daad23ff4912da4300845059d93e056c162b11d86b53f893154c5d2",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_CSV_SHA256))
def test_bundled_csv_bytes_pinned(runner, tmp_path, name):
    result = runner.invoke(main, ["run", str(bundled_config_path(name)), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    (csv_path,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == BUNDLED_CSV_SHA256[name]


@pytest.mark.parametrize(
    "depth, pair",
    [(1, "bernoulli pair per(01)|per(011)"), (2, "golden_mean pair per(001)|per(00101)")],
)
def test_crosscheck_refuses_pairs_that_agree_at_depth(depth, pair):
    """12 pairs reach points that agree on [-1, 1] (and one on [-2, 2]); the
    config names the first such pair instead of failing in the classifiers."""
    config = json.loads(json.dumps(_CROSSCHECK))
    config["params"].update(pairs=12, depth=depth)
    with pytest.raises(ConfigError) as err:
        load_config(config)
    assert err.value.field == "c.params.pairs"
    assert f"{pair} agrees on [-{depth}, {depth}]" in str(err.value)
    config["params"]["depth"] = 3
    load_config(config)


def test_crosscheck_csv_bytes_pinned(runner, tmp_path):
    """A crosscheck with the Kushnirenko column and two extra TableE
    adversaries: 30 rows, all agreeing, at one pinned digest."""
    config = {"experiment_id": "xc", "kind": "crosscheck",
              "params": {"pairs": 10, "depth": 1, "include_kush": True, "extra_table_e": 2}}
    path = tmp_path / "xc.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    (csv_path,) = tmp_path.glob("*.csv")
    text = csv_path.read_text(encoding="utf-8")
    assert text.count(",agree,") == 30 and "kush_positive=" in text
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "7dd34427662d8669f754eda3d848c06688ca533c69fb0de4d5b66f359e7ba275"
    )


@pytest.mark.parametrize(
    "system, point, target, n_max, outputs",
    [
        (
            "golden_mean",
            {"kind": "periodic", "right": "01", "core": "000"},
            {"start": 0, "word": "0"},
            100,
            "birkhoff_average=13/25; density_lower=0.500000000000; "
            "density_upper=0.500000000000; measure=2/3",
        ),
        (
            "golden_mean",
            {"kind": "periodic", "left": "0", "core": "10", "right": "001"},
            {"start": -2, "word": "010"},
            101,
            "birkhoff_average=33/101; density_lower=0.333333333333; "
            "density_upper=0.333333333333; measure=1/3",
        ),
        (
            "bernoulli",
            {"kind": "periodic", "core": "1", "right": "0111"},
            [{"start": 0, "word": "0"}, {"start": 3, "word": "11"}],
            10,
            "birkhoff_average=4/5; density_lower=0.750000000000; "
            "density_upper=0.750000000000; measure=5/8",
        ),
    ],
    ids=["golden-core", "golden-left-tail", "bernoulli-union"],
)
def test_periodic_density_outputs_pinned(runner, tmp_path, system, point, target, n_max, outputs):
    """A periodic point's density row: the exact Birkhoff average of the first
    n_max orbit reads and the exact frequency of the periodic predicate."""
    config = {"experiment_id": "d", "kind": "density", "system": system,
              "params": {"point": point, "set": target, "n_max": n_max}}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    (csv_path,) = tmp_path.glob("*.csv")
    (row,) = list(csv.DictReader(csv_path.read_text(encoding="utf-8").splitlines()))
    assert row["outputs"] == outputs


def test_run_config_in_process():
    config = load_config(bundled_config_path("goldenmean_independence"))
    rows, code = run_config(config)
    assert code == 0 and len(rows) == 12


def test_selfcheck_single_criterion(runner):
    result = runner.invoke(main, ["selfcheck", "--only", "8"])
    assert result.exit_code == 0, result.output
    assert "[PASS] criterion 8" in result.output


@pytest.mark.parametrize("only", ["0", "-2", "11", "x"])
def test_selfcheck_refuses_unknown_criteria(runner, only):
    result = runner.invoke(main, ["selfcheck", "--only", only])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "criterion number" in result.output
    assert "[PASS]" not in result.output


@pytest.mark.parametrize("only", [",", " ", " , "])
def test_selfcheck_refuses_empty_criteria_list(runner, monkeypatch, only):
    """An --only that names no criterion exits 2 before any criterion runs;
    only a missing --only means every criterion."""
    from shiftlab import acceptance

    calls = []
    monkeypatch.setattr(acceptance, "run_criteria", lambda numbers=None: calls.append(numbers) or [])
    result = runner.invoke(main, ["selfcheck", "--only", only])
    assert result.exit_code == 2, result.output
    assert "criterion number" in result.output
    assert calls == []
    result = runner.invoke(main, ["selfcheck"])
    assert result.exit_code == 0, result.output
    assert calls == [None]


def test_inconclusive_verdicts_exit_3(tmp_path, monkeypatch):
    import shiftlab.harness as harness
    from shiftlab.verdicts import Verdict

    def fake_witnesses(*args, **kwargs):
        return Verdict("inconclusive", note="forced for the exit-code test")

    monkeypatch.setattr(harness, "find_sensitivity_witnesses", fake_witnesses)
    config = load_config(
        {
            "experiment_id": "forced_inconclusive",
            "kind": "sensitivity",
            "system": "bernoulli",
            "params": {
                "a": "full",
                "ux": {"start": 0, "word": "0"},
                "uy": {"start": 0, "word": "1"},
                "eps": "1/5",
                "seeds": [1],
                "horizon": 1000,
            },
        }
    )
    rows, code = harness.run_config(config)
    assert code == 3
    assert rows[0].verdict == "inconclusive"


def test_custom_partition_entropy(runner, tmp_path):
    config = {
        "experiment_id": "two_set",
        "kind": "entropy",
        "system": "golden_mean",
        "params": {
            "partition": [
                {"start": 0, "word": "0"},
                {"start": 0, "word": "1"},
            ],
            "sequences": [[0, 2, 4]],
        },
        "output": {"csv": "t.csv", "json": "t.json"},
    }
    path = tmp_path / "two_set.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "H_n=" in (tmp_path / "t.csv").read_text()


def test_invalid_partition_named_in_error(runner, tmp_path):
    config = {
        "experiment_id": "bad_partition",
        "kind": "entropy",
        "system": "golden_mean",
        "params": {
            "partition": [{"start": 0, "word": "0"}],
            "sequences": [[0, 1]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert "partition" in result.output


def _entropy_config(experiment_id, partition, sequences):
    return {
        "experiment_id": experiment_id,
        "kind": "entropy",
        "system": "golden_mean",
        "params": {"partition": partition, "sequences": sequences},
    }


def test_custom_partitions_get_distinct_digests():
    two = [{"start": 0, "word": "0"}, {"start": 0, "word": "1"}]
    three = [{"start": 0, "word": "00"}, {"start": 0, "word": "01"}, {"start": 0, "word": "1"}]
    config = load_config(
        {
            "experiments": [
                _entropy_config("two", two, [[0, 2]]),
                _entropy_config("three", three, [[0, 2]]),
                _entropy_config("gen", "generators", [[0, 2]]),
            ]
        }
    )
    rows, code = run_config(config)
    assert code == 0
    digests = {(r.experiment_id, r.inputs["n"]): r.digest for r in rows}
    for n in (1, 2):
        assert len({digests[(eid, n)] for eid in ("two", "three", "gen")}) == 3
    assert [r.inputs["partition"] for r in rows if r.experiment_id == "three"] == [three, three]
    assert all(r.inputs["partition"] == "generators" for r in rows if r.experiment_id == "gen")


def test_entropy_runtime_on_final_row_only(runner, tmp_path):
    config = _entropy_config("timed", "generators", [[0, 1, 3], [2, 5]])
    config["output"] = {"csv": "t.csv", "json": "t.json"}
    path = tmp_path / "timed.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    rows = json.loads((tmp_path / "t.json").read_text())["rows"]
    for si, length in ((0, 3), (1, 2)):
        seq_rows = [r for r in rows if r["operation"].startswith(f"sequence_entropy_profile[s{si}]")]
        assert len(seq_rows) == length
        timed = [r for r in seq_rows if r["runtime_ms"] is not None]
        assert len(timed) == 1 and timed[0]["inputs"]["n"] == length
    csv_lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert len(csv_lines) == 5 and all(line.endswith(",") for line in csv_lines)


@pytest.mark.parametrize("length", [14, 15])
def test_join_cap_exits_3(runner, tmp_path, length):
    """A Bernoulli generator profile holds 2^n join atoms after n terms: 14
    terms reach JOIN_ASSIGNMENT_CAP and run, 15 pass it and exit 3. The last
    row's JSON details carry the lumped join's size per prefix."""
    config = {
        "experiment_id": "cap",
        "kind": "entropy",
        "system": "bernoulli",
        "params": {"partition": "generators", "sequences": [list(range(length))]},
        "output": {"csv": "cap.csv", "json": "cap.json"},
    }
    path = tmp_path / "cap_config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert "Traceback" not in result.output
    if length == 15:
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "cap exhausted" in result.output
        assert not (tmp_path / "cap.csv").exists()
        return
    assert result.exit_code == 0, result.output
    assert "H_n=9.704060527839" in (tmp_path / "cap.csv").read_text()
    rows = json.loads((tmp_path / "cap.json").read_text())["rows"]
    assert [r["details"] for r in rows[:-1]] == [{}] * 13
    assert rows[-1]["details"] == {
        "join_directions": [2] * 14,
        "join_assignments": [2**n for n in range(1, 15)],
        "join_assignment_cap": 2**14,
    }
