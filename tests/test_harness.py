"""Tests for config parsing, result emission, scenario running, and the
command-line interface."""

import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from shadowtomo import modes, scenarios, shadow
from shadowtomo.cli import main
from shadowtomo.errors import BudgetExhaustedError, ConfigError
from shadowtomo.modes import GAP_REUSE_REASON, PER_COPY_OR_REASON, FidelityMode
from shadowtomo.money import make_wiesner_instance
from shadowtomo.quantum import accept_prob
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
    parse_config_text,
    resolve,
    run_scenario,
    run_trial,
)
from shadowtomo.rng import substream
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


@pytest.mark.parametrize("key", ["c_or", "c_q", "c_t", "c_gap", "c_search", "dim_cap"])
def test_derived_parameter_constants_are_not_config_keys(key, tmp_path, capsys):
    # the constants are pinned in config.py: a per-run value would move q*
    # and the other derived sizes while non_theoretical still read False,
    # and the dimension cap is one limit for every run
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        build_config({"scenario": "shadow", key: "0.25"})
    code = main(
        ["run", "--config", str(CONFIGS / "shadow.cfg"), "--set", f"{key}=0.25",
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_build_config_maps_uppercase_dimension_names():
    cfg = build_config({"scenario": "gap", "D": "8", "M": "4"})
    assert cfg.d == 8
    assert cfg.m == 4
    with pytest.raises(ConfigError) as exc:
        build_config({"scenario": "gap", "d": "8"})
    assert "'d'" in str(exc.value)


def test_build_config_parses_each_field_to_its_type():
    cfg = build_config(
        {"scenario": "gap", "trials": "7", "epsilon": "0.25", "mode": "per_copy_collapse"}
    )
    assert cfg.trials == 7 and type(cfg.trials) is int
    assert cfg.epsilon == 0.25 and type(cfg.epsilon) is float
    assert cfg.mode == "per_copy_collapse" and type(cfg.mode) is str


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


def test_resolve_rejects_unknown_scenario_and_bad_values():
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="wibble"))
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="gap", trials=0))
    with pytest.raises(ConfigError):
        resolve(ScenarioConfig(scenario="gap", epsilon=2.0))


# a valid value for every scenario key, for the keys a scenario leaves unset
_SAMPLE = dict(
    trials=1, mode="per_copy_collapse", d=2, m=2, n=4, k=4, qubits=1, epsilon=0.1, delta=0.1,
    c=0.9, q=2, t_samples=3, case="planted", planted_value=0.9, low_cap=0.1, budget=10,
)


@pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
def test_resolve_accepts_exactly_the_declared_keys(name):
    defaults = SCENARIOS[name].defaults
    assert set(_SAMPLE) | {"scenario", "seed", "out_dir", "workers"} == {
        f.name for f in fields(ScenarioConfig)
    }
    for key, sample in _SAMPLE.items():
        cfg = ScenarioConfig(scenario=name, **{key: defaults.get(key) or sample})
        if key in defaults:
            assert getattr(resolve(cfg), key) == (defaults.get(key) or sample)
        else:
            with pytest.raises(ConfigError, match=f"scenario '{name}' does not read"):
                resolve(cfg)


class _ReadRecorder:
    """A resolved config that records the name of every attribute read."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


@pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
def test_each_scenario_reads_exactly_the_keys_its_defaults_declare(name):
    # a declared key nothing reads would be accepted and echoed for nothing;
    # a read key left undeclared could never be set
    scenario = SCENARIOS[name]
    cfg = _ReadRecorder(resolve(ScenarioConfig(scenario=name)))
    row, extras = run_trial(cfg, 0)
    scenario.check(cfg, [row], [extras])
    if scenario.operating_point is not None:
        scenario.operating_point(cfg)
    # trials is read by the run loop, scenario and seed by run_trial and _row
    assert (cfg.read | {"trials"}) - {"scenario", "seed"} == set(scenario.defaults)


def test_cli_rejects_a_key_the_scenario_does_not_read(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(CONFIGS / "hlw.cfg"), "--set", "budget=5", "--set", "case=planted",
         "--set", "q=3", "--out-dir", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: scenario 'hlw' does not read 'q', 'case', 'budget'" in err
    assert "it reads trials, N, epsilon, delta" in err
    assert not out.exists()


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
    out1 = run_scenario(replace(cfg, out_dir=str(tmp_path / "a")))
    out2 = run_scenario(replace(cfg, out_dir=str(tmp_path / "b")))
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
    assert "dim_cap" not in summary["parameters"]
    assert "operating_point" not in summary  # only shadow-style scenarios derive one


def test_run_scenario_workers_match_serial(tmp_path):
    cfg1 = ScenarioConfig(scenario="orbound", trials=6, seed=2, workers=1)
    cfg2 = ScenarioConfig(scenario="orbound", trials=6, seed=2, workers=3)
    run_scenario(replace(cfg1, out_dir=str(tmp_path / "serial")))
    run_scenario(replace(cfg2, out_dir=str(tmp_path / "pool")))
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "pool" / "results.csv"
    ).read_bytes()


def test_run_scenario_transcripts_emitted_for_shadow(tmp_path):
    cfg = ScenarioConfig(scenario="shadow", trials=1, seed=3)
    run_scenario(replace(cfg, out_dir=str(tmp_path)))
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


@pytest.mark.parametrize("scenario, d, m", [("shadow", 2, 8), ("money-demo", 4, 16)])
def test_shadow_style_summary_states_the_operating_point(scenario, d, m, tmp_path):
    run_scenario(ScenarioConfig(scenario=scenario, trials=1, q=3, out_dir=str(tmp_path)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary)[4:6] == ["constants", "operating_point"]
    point = summary["operating_point"]
    want = shadow.derive_params(d, m, 0.25, 1.0 / 3.0, q=3).as_dict()
    assert {k: point[k] for k in want} == want and want["non_theoretical"] is True
    assert point["realized_exponents"].startswith("log^4(M) * log(D) * eps^-5")


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


def test_cli_set_overrides_and_env_seed(tmp_path):
    # --set is the one override of the config's seed; no environment
    # variable sets it
    p = tmp_path / "c.cfg"
    p.write_text("scenario = hlw\ntrials = 5\nseed = 1\n")
    out = tmp_path / "set"
    assert main(["run", "--config", str(p), "--set", "seed=7", "--out-dir", str(out)]) == 0
    rows = (out / "results.csv").read_text().strip().split("\n")
    assert rows[1].split(",")[2] == "7"


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


def test_classical_family_failure_exits_3_and_names_the_error(tmp_path, capsys):
    # no family of 200 half-size subsets of 4 elements meets the overlap band
    code = main(
        ["run", "--config", str(CONFIGS / "classical.cfg"), "--set", "trials=1", "--set", "N=4",
         "--set", "K=200", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 3
    assert "RejectionLimitError: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, setting, message",
    [
        ("shadow-quick", "q=0", "ValueError: q must be at least 1"),
        ("shadow-quick", "M=0", "ValueError: need at least one target effect"),
        ("classical", "N=5", "ValueError: N must be even"),
        ("classical", "epsilon=0.2", "ValueError: epsilon must be in (0, 1/6]"),
        ("orbound", "low_cap=2", "ValueError: low cap must be in [0, 1]"),
        # 2**13 exceeds the pinned dimension cap of 4096
        ("shadow-quick", "q=13", "DimensionCapError: amplified hypothesis of dimension 8192"),
        # 2**20000 is past the digits Python prints of an integer
        (
            "shadow-quick", "q=20000",
            "DimensionCapError: amplified hypothesis of dimension at least 2^20000",
        ),
        # a state on no dimension is not a matrix the package can hold
        ("verify-gentle", "D=0", "DimensionMismatchError: expected a non-empty square matrix"),
        ("orbound", "D=0", "DimensionMismatchError: expected a non-empty square matrix"),
        ("gap", "D=0", "DimensionMismatchError: expected a non-empty square matrix"),
    ],
    ids=[
        "q=0", "M=0", "N=5", "epsilon=0.2", "low_cap=2", "q=13", "q=20000",
        "verify-gentle-D=0", "orbound-D=0", "gap-D=0",
    ],
)
def test_value_the_scenario_cannot_use_exits_3(config, setting, message, tmp_path, capsys):
    # exit 1 means "thresholds NOT met"; a run that raised on its inputs is not that
    code = main(
        ["run", "--config", str(CONFIGS / f"{config}.cfg"), "--set", setting, "--set", "trials=2",
         "--out-dir", str(tmp_path / "out")]
    )
    assert code == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


REFUSED = [
    # a per-copy store cannot hold the OR round's gentle collective measurement
    ("orbound", FidelityMode.PER_COPY_COLLAPSE, PER_COPY_OR_REASON),
    ("search", FidelityMode.PER_COPY_COLLAPSE, PER_COPY_OR_REASON),
    ("shadow-quick", FidelityMode.PER_COPY_COLLAPSE, PER_COPY_OR_REASON),
    ("money-demo", FidelityMode.PER_COPY_COLLAPSE, PER_COPY_OR_REASON),
    # fresh mode draws every measurement anew, so the copies the gap test
    # reuses would never carry the damage of the earlier decisions
    ("gap", FidelityMode.FRESH_COPY_STATISTICAL, GAP_REUSE_REASON),
]


@pytest.mark.parametrize("config, mode, reason", REFUSED, ids=[r[0] for r in REFUSED])
def test_refused_mode_exits_2_before_any_trial(config, mode, reason, tmp_path, capsys):
    cfg = replace(scenarios.load_config(CONFIGS / f"{config}.cfg"), mode=mode.value)
    with pytest.raises(ConfigError, match=re.escape(reason)):
        resolve(cfg)
    code = main(
        ["run", "--config", str(CONFIGS / f"{config}.cfg"), "--set", f"mode={mode}",
         "--set", "trials=1", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: scenario '{cfg.scenario}' refuses {mode}: {reason}" in err
    assert not (tmp_path / "out").exists()


def test_catalog_refuses_only_modes_a_source_scenario_could_run():
    accepted = 0
    for name, scenario in SCENARIOS.items():
        # mode and budget are both the copy source's, so they come together
        assert ("mode" in scenario.defaults) == ("budget" in scenario.defaults), name
        assert all(isinstance(mode, FidelityMode) for mode in scenario.refuses), name
        if "mode" not in scenario.defaults:
            assert not scenario.refuses, name
            continue
        assert FidelityMode(scenario.defaults["mode"]) not in scenario.refuses, name
        for mode in FidelityMode:
            cfg = ScenarioConfig(scenario=name, mode=mode.value)
            if mode in scenario.refuses:
                with pytest.raises(ConfigError, match=re.escape(scenario.refuses[mode])):
                    resolve(cfg)
            else:
                assert resolve(cfg).mode == mode
                accepted += 1
    # seven source scenarios in two modes, less the five refused pairs
    assert accepted == 9


def test_unknown_mode_exits_2_and_names_the_valid_modes(tmp_path, capsys):
    # the dense joint-state realization is a test reference, not a mode
    code = main(
        ["run", "--config", str(CONFIGS / "shadow-quick.cfg"), "--set", "mode=exact_tensor",
         "--set", "trials=1", "--out-dir", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: unknown fidelity mode 'exact_tensor'; valid: " in err
    assert all(mode.value in err for mode in FidelityMode)
    assert not (tmp_path / "out").exists()


def test_capability_table_lists_exactly_the_fidelity_modes():
    # the table's rows are the indented lines that start with a mode-like
    # name; a mode added to or removed from the enum must show in it
    rows = re.findall(r"^ {4}([a-z]+(?:_[a-z]+)+) ", modes.__doc__, flags=re.MULTILINE)
    assert rows == [mode.value for mode in FidelityMode]


def test_iteration_bound_failure_names_its_reason(tmp_path, capsys, monkeypatch):
    # c_t=0.001 caps the search count at 1, so both trials raise
    # IterationBoundExceededError and no transcript is ever checked
    monkeypatch.setattr(shadow, "DEFAULT_CONSTANTS", replace(shadow.DEFAULT_CONSTANTS, c_t=0.001))
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(CONFIGS / "shadow-quick.cfg"), "--set", "trials=2",
         "--out-dir", str(out)]
    )
    assert code == 1
    printed = capsys.readouterr().out
    assert "trials_unchecked: 2" in printed
    assert "trial 0: IterationBoundExceededError: " in printed
    thresholds = json.loads((out / "summary.json").read_text())["thresholds"]
    assert thresholds["trials_unchecked"] == 2
    assert [e.split(":")[0] for e in thresholds["errors"]] == ["trial 0", "trial 1"]
    assert all("IterationBoundExceededError: " in e for e in thresholds["errors"])
    # the one search the bound allows still debits its exact budget
    assert thresholds["exact_consumption"] is True
    cfg = resolve(scenarios.load_config(CONFIGS / "shadow-quick.cfg"))
    _, extras = run_trial(cfg, 0)
    assert "error" in extras and "markov_ok" not in extras


def test_shadow_gate_requires_exact_consumption(monkeypatch):
    # each search debits exactly q * ell_search copies; one copy more in any
    # search fails the gate, whatever the other gates read
    cfg = resolve(replace(scenarios.load_config(CONFIGS / "shadow-quick.cfg"), q=3))
    check = SCENARIOS["shadow"].check
    row, extras = run_trial(cfg, 0)
    info, _ = check(cfg, [row], [extras])
    assert extras["exact_consumption"] and info["exact_consumption"] is True
    real = shadow.gentle_search

    def leaky(effects, source, params):
        source.dispense(1, "search-or")
        return real(effects, source, params)

    monkeypatch.setattr(shadow, "gentle_search", leaky)
    row, extras = run_trial(cfg, 0)
    info, met = check(cfg, [row], [extras])
    assert not extras["exact_consumption"] and info["exact_consumption"] is False and not met


def test_shadow_gate_lets_a_search_that_ends_in_padding_debit_less():
    # 2M = 10 candidates are padded to 16: a search that walks into the
    # padding skips its OR decisions and its verification, and finds nothing
    cfg = resolve(replace(scenarios.load_config(CONFIGS / "shadow-quick.cfg"), q=3, m=5))
    params = shadow.derive_params(cfg.d, cfg.m, cfg.epsilon, cfg.delta, q=cfg.q)
    row, extras = run_trial(cfg, 0)
    assert row.copies_consumed < (row.iterations + 1) * params.q * params.ell_search
    assert extras["exact_consumption"]


def test_money_true_key_check_reads_the_minted_key(monkeypatch):
    cfg = resolve(ScenarioConfig(scenario="money-demo", trials=1))
    inst = make_wiesner_instance(cfg.qubits, substream(cfg.seed, 0))

    def fake_run(effects, source, params):
        truth = np.array([accept_prob(e, inst.rho) for e in effects])
        estimates = truth.copy()
        # the minted key accepts with certainty, so the least-accepted key is another one
        estimates[int(np.argmin(truth))] += 0.5
        return ShadowRun(estimates, Transcript((), "no deviation detector confirmed", 0), 0)

    monkeypatch.setattr(scenarios, "run_shadow_tomography", fake_run)
    row, extras = run_trial(cfg, 0)
    assert row.max_error == pytest.approx(0.5)
    assert extras["true_key_within_eps"]


def test_hlw_gates_on_hoeffding_band_below_500_trials(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(CONFIGS / "hlw.cfg"), "--set", "trials=499", "--out-dir", str(out)]
    )
    info = json.loads((out / "summary.json").read_text())["thresholds"]
    half = math.sqrt(math.log(2 / 0.1) / (2 * 499))
    assert info["mean_band"] == [0.5 - half, 0.5 + half]
    assert "exploratory" not in info
    assert info["mean_band"][0] <= info["mean_overlap"] <= info["mean_band"][1]
    assert code == 0


def test_hlw_gate_fails_on_a_biased_overlap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        scenarios, "hlw_overlap_experiment",
        lambda n, samples, rng: np.full(samples, 0.3),
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(CONFIGS / "hlw.cfg"), "--set", "trials=100", "--out-dir", str(out)]
    )
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["thresholds"]["mean_overlap"] == 0.3
    assert summary["thresholds_met"] is False
