import json
import re

import pytest
from click.testing import CliRunner

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


@pytest.mark.parametrize(
    "base, key, value, field",
    [
        (_SENSITIVITY, "horizon", "1e3", "s.params.horizon"),
        (_SENSITIVITY, "horizon", 2000.7, "s.params.horizon"),
        (_SENSITIVITY, "seeds", [1, "2"], "s.params.seeds[1]"),
        (_INDEPENDENCE, "n_list", [2, 3.5], "i.params.n_list[1]"),
        (_CROSSCHECK, "include_kush", "false", "c.params.include_kush"),
        (
            _DENSITY_EMPTY,
            "point",
            {"kind": "sampled", "lo": 5, "hi": 0, "seed": 1},
            "d.params.point.hi",
        ),
        (_DENSITY_EMPTY, "n_max", 5, "d.params.n_max"),
    ],
    ids=[
        "horizon-string",
        "horizon-float",
        "seed-string",
        "n-float",
        "include-kush-string",
        "sampled-lo-above-hi",
        "density-n-max-below-10",
    ],
)
def test_bad_config_scalars_exit_1(runner, tmp_path, base, key, value, field):
    config = json.loads(json.dumps(base))
    config["params"][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    result = runner.invoke(main, ["run", str(path), "--out-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"config error: {field}:" in result.output
    assert "Traceback" not in result.output


def test_run_config_in_process():
    config = load_config(bundled_config_path("goldenmean_independence"))
    rows, code = run_config(config)
    assert code == 0 and len(rows) == 12


def test_selfcheck_single_criterion(runner):
    result = runner.invoke(main, ["selfcheck", "--only", "8"])
    assert result.exit_code == 0, result.output
    assert "[PASS] criterion 8" in result.output


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
