"""Tests for config parsing, result emission, scenario running, and the
command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from shadowtomo import scenarios
from shadowtomo.cli import main
from shadowtomo.errors import BudgetExhaustedError, ConfigError
from shadowtomo.results import (
    CSV_HEADER,
    TrialRow,
    aggregate,
    csv_text,
    success_rate,
    write_csv,
    write_json,
)
from shadowtomo.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    build_config,
    load_config,
    parse_config_text,
    resolve,
    run_scenario,
    run_trial,
)
from shadowtomo.shadow import ShadowRun, Transcript

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


EXPECTED_SCENARIOS = {
    "verify-gentle",
    "verify-union-bound",
    "orbound",
    "random-order-or",
    "search",
    "shadow",
    "gap",
    "classical",
    "lower-classical",
    "lower-quantum",
    "hlw",
    "money-demo",
}


def make_row(**over):
    kw = dict(
        scenario="gap",
        trial=0,
        seed=1,
        d=4,
        m=16,
        epsilon=0.2,
        delta=0.1,
        mode="per_copy_collapse",
        copies_consumed=10,
        copies_predicted=12,
        max_error=0.0,
        success=True,
        iterations=16,
    )
    kw.update(over)
    return TrialRow(**kw)


def test_scenario_catalog_is_complete():
    assert set(SCENARIOS) == EXPECTED_SCENARIOS
    assert len(SCENARIOS) == 12


def test_parse_config_text_basics():
    pairs = parse_config_text("a = 1\n# comment\nb=two\n\na = 3\n")
    assert pairs == {"a": "3", "b": "two"}  # later assignment wins


def test_parse_config_text_rejects_garbage_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("scenario = gap\nnot a pair\n", origin="demo.cfg")
    assert "demo.cfg:2" in str(exc.value)


def test_build_config_requires_scenario():
    with pytest.raises(ConfigError):
        build_config({"trials": "5"})


def test_build_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        build_config({"scenario": "gap", "bogus": "1"})
    assert "bogus" in str(exc.value)


def test_build_config_maps_uppercase_dimension_names():
    cfg = build_config({"scenario": "gap", "D": "8", "M": "4"})
    assert cfg.d == 8
    assert cfg.m == 4
    with pytest.raises(ConfigError) as exc:
        build_config({"scenario": "gap", "d": "8"})
    assert "'d'" in str(exc.value)


def test_build_config_parses_each_field_to_its_type():
    cfg = build_config({"scenario": "gap", "trials": "7", "epsilon": "0.25", "mode": "exact_tensor"})
    assert cfg.trials == 7 and type(cfg.trials) is int
    assert cfg.epsilon == 0.25 and type(cfg.epsilon) is float
    assert cfg.mode == "exact_tensor" and type(cfg.mode) is str


def test_build_config_rejects_bad_int():
    with pytest.raises(ConfigError):
        build_config({"scenario": "gap", "trials": "three"})
    with pytest.raises(ConfigError):
        build_config({"scenario": "gap", "trials": "1.5"})
    with pytest.raises(ConfigError):
        build_config({"scenario": "gap", "epsilon": "small"})


def test_resolve_fills_scenario_defaults():
    cfg = resolve(build_config({"scenario": "gap"}))
    assert cfg.trials == 200
    assert cfg.d == 4
    assert cfg.m == 16
    assert cfg.mode == "per_copy_collapse"


def test_resolve_rejects_gap_in_fresh_mode():
    with pytest.raises(ConfigError):
        resolve(build_config({"scenario": "gap", "mode": "fresh_copy_statistical"}))


def test_resolve_rejects_unknown_scenario_and_bad_values():
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="wibble"))
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="gap", trials=0))
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="gap", epsilon=2.0))


def test_csv_header_is_pinned():
    assert CSV_HEADER == [
        "scenario",
        "trial",
        "seed",
        "D",
        "M",
        "epsilon",
        "delta",
        "mode",
        "copies_consumed",
        "copies_predicted",
        "max_error",
        "success",
        "iterations",
    ]


def test_csv_text_layout():
    text = csv_text([make_row()])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1].startswith("gap,0,1,4,16,0.2,0.1,per_copy_collapse,10,12,0.0,True,16")


def test_csv_zero_rows_is_header_only():
    text = csv_text([])
    assert text == ",".join(CSV_HEADER) + "\n"


def test_write_csv_and_json(tmp_path):
    rows = [make_row(), make_row(trial=1, success=False, max_error=0.5)]
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "s.json"
    write_csv(csv_path, rows)
    write_json(json_path, {"x": np.float64(0.5), "n": np.int64(3)})
    assert csv_path.read_text().count("\n") == 3
    doc = json.loads(json_path.read_text())
    assert doc == {"x": 0.5, "n": 3}


def test_success_rate_and_aggregate():
    rows = [make_row(), make_row(trial=1, success=False), make_row(trial=2)]
    assert abs(success_rate(rows) - 2 / 3) < 1e-15
    assert success_rate([]) == 0.0
    agg = aggregate(rows)
    assert agg["trials"] == 3
    assert agg["successes"] == 2
    assert agg["copies_consumed_total"] == 30
    assert agg["within_predicted_rate"] == 1.0


def test_run_trial_row_shape():
    cfg = resolve(ScenarioConfig(scenario="verify-gentle", trials=1, seed=9))
    row, extras = run_trial(cfg, 0)
    assert row.scenario == "verify-gentle"
    assert row.trial == 0
    assert row.seed == 9
    assert isinstance(extras, dict)


def test_run_scenario_emits_files_and_is_reproducible(tmp_path):
    cfg = ScenarioConfig(scenario="gap", trials=4, seed=11)
    out1 = run_scenario(cfg, out_dir=tmp_path / "a")
    out2 = run_scenario(cfg, out_dir=tmp_path / "b")
    csv1 = (tmp_path / "a" / "results.csv").read_bytes()
    csv2 = (tmp_path / "b" / "results.csv").read_bytes()
    assert csv1 == csv2
    assert out1.thresholds_met and out2.thresholds_met
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["scenario"] == "gap"
    assert summary["aggregate"]["trials"] == 4
    # parameters are echoed under their config-file keys
    assert summary["parameters"]["D"] == 4 and summary["parameters"]["M"] == 16
    assert "d" not in summary["parameters"] and "m" not in summary["parameters"]


def test_run_scenario_workers_match_serial(tmp_path):
    cfg1 = ScenarioConfig(scenario="orbound", trials=6, seed=2, workers=1)
    cfg2 = ScenarioConfig(scenario="orbound", trials=6, seed=2, workers=3)
    run_scenario(cfg1, out_dir=tmp_path / "serial")
    run_scenario(cfg2, out_dir=tmp_path / "pool")
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "pool" / "results.csv"
    ).read_bytes()


def test_run_scenario_transcripts_emitted_for_shadow(tmp_path):
    cfg = ScenarioConfig(scenario="shadow", trials=1, seed=3)
    run_scenario(cfg, out_dir=tmp_path)
    doc = json.loads((tmp_path / "transcripts.json").read_text())
    assert isinstance(doc, list) and len(doc) == 1
    assert doc[0]["trial"] == 0
    for step in doc[0]["transcript"]["steps"]:
        assert set(step) == {
            "iteration",
            "index",
            "sign",
            "p_before",
            "p_after",
            "copies_debited",
            "bar_values",
        }


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_SCENARIOS:
        assert name in out


def test_cli_validate_config(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("scenario = hlw\ntrials = 10\n")
    assert main(["validate-config", str(p)]) == 0
    assert "scenario=hlw" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
def test_cli_validate_shipped_configs(path, capsys):
    assert main(["validate-config", str(path)]) == 0


def test_cli_validate_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("scenario = gap\nwibble = 1\n")
    assert main(["validate-config", str(p)]) == 2


def test_cli_run_writes_outputs_and_exit_status(tmp_path, capsys):
    p = tmp_path / "c.cfg"
    p.write_text("scenario = hlw\n")
    code = main(
        ["run", "--config", str(p), "--set", "trials=50", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_set_overrides_and_env_seed(tmp_path, monkeypatch):
    p = tmp_path / "c.cfg"
    p.write_text("scenario = hlw\ntrials = 5\nseed = 1\n")
    out = tmp_path / "env"
    monkeypatch.setenv("SHADOWTOMO_SEED", "42")
    assert main(["run", "--config", str(p), "--out-dir", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")
    assert rows[1].split(",")[2] == "42"  # env seed applied

    out2 = tmp_path / "set"
    assert (
        main(["run", "--config", str(p), "--set", "seed=7", "--out-dir", str(out2)]) == 0
    )
    rows2 = (out2 / "results.csv").read_text().strip().split("\n")
    assert rows2[1].split(",")[2] == "7"  # --set beats the env variable


def test_cli_rerun_byte_identical(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("scenario = verify-union-bound\ntrials = 5\nseed = 4\n")
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--config", str(p), "--out-dir", str(a)]) == 0
    assert main(["run", "--config", str(p), "--out-dir", str(b)]) == 0
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_shadow_budget_exhaustion_raises_and_exits_3(tmp_path, capsys):
    cfg = resolve(ScenarioConfig(scenario="shadow", trials=1, budget=1))
    with pytest.raises(BudgetExhaustedError):
        run_trial(cfg, 0)
    code = main(
        ["run", "--config", str(CONFIGS / "shadow.cfg"), "--set", "trials=1", "--set", "budget=1",
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 3
    assert "BudgetExhaustedError" in capsys.readouterr().err
    # a worker process hands the same error back to the CLI
    code = main(
        ["run", "--config", str(CONFIGS / "shadow.cfg"), "--set", "trials=2", "--set", "budget=1",
         "--workers", "2", "--out-dir", str(tmp_path / "pool")]
    )
    assert code == 3
    assert "BudgetExhaustedError" in capsys.readouterr().err


def test_iteration_bound_failure_names_its_reason(tmp_path, capsys):
    # c_t=0.001 caps the search count at 1, so both trials raise
    # IterationBoundExceededError and no transcript is ever checked
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(CONFIGS / "shadow-quick.cfg"), "--set", "trials=2",
         "--set", "c_t=0.001", "--out-dir", str(out)]
    )
    assert code == 1
    printed = capsys.readouterr().out
    assert "trials_unchecked: 2" in printed
    assert "trial 0: IterationBoundExceededError: " in printed
    thresholds = json.loads((out / "summary.json").read_text())["thresholds"]
    assert thresholds["trials_unchecked"] == 2
    assert [e.split(":")[0] for e in thresholds["errors"]] == ["trial 0", "trial 1"]
    assert all("IterationBoundExceededError: " in e for e in thresholds["errors"])
    cfg = resolve(build_config({**scenarios.load_config_pairs(CONFIGS / "shadow-quick.cfg"),
                                "c_t": "0.001"}))
    _, extras = run_trial(cfg, 0)
    assert "error" in extras and "markov_ok" not in extras


def test_money_true_key_check_reads_the_minted_key(monkeypatch):
    def fake_run(effects, source, params, mode):
        truth = np.array([source.ground_truth_accept_prob(e) for e in effects])
        estimates = truth.copy()
        # the minted key accepts with certainty, so the least-accepted key is another one
        estimates[int(np.argmin(truth))] += 0.5
        return ShadowRun(estimates, Transcript((), "no deviation detector confirmed", 0), 0, 1.0)

    monkeypatch.setattr(scenarios, "run_shadow_tomography", fake_run)
    row, extras = run_trial(resolve(ScenarioConfig(scenario="money-demo", trials=1)), 0)
    assert row.max_error == pytest.approx(0.5)
    assert extras["true_key_within_eps"]
