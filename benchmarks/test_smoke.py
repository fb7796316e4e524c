"""Smoke test of the benchmark itself: a trial or two per workload.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import SPANS, CoverageError, Tracer  # noqa: E402


def _bench_two_trials(workload, trace, monkeypatch, capsys):
    """run.main in-process on a fixed range of two trials, with no timed tail."""
    monkeypatch.setitem(run.WORKLOADS, workload, replace(run.WORKLOADS[workload], fixed_trials=2))
    code = run.main(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, monkeypatch, capsys):
    code, lines, result = _bench_two_trials(workload, 0, monkeypatch, capsys)
    for name, unit in run.END_TO_END:
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # two trials are too few for the scenario's success-rate gate to mean
    # anything, so only its agreement with the exit status is checked here
    assert code == (0 if result["correct"] else 1)
    assert result["attempted"] == 2 and result["failed"] == 0
    units = dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: units[k] for k in run.RESULT_METRICS
    }


def test_traced_run_reports_every_span_and_matching_rows(monkeypatch, capsys):
    code, lines, result = _bench_two_trials("classical-instances", 1, monkeypatch, capsys)
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    for span in SPANS:
        assert span + ".calls" in result["metrics"] and span + ".self_s" in result["metrics"]
    assert "trace_overhead" in result["metrics"]


def test_coverage_check_fires_when_a_wrapper_is_left_unbound():
    scenarios, _ = run.import_package()
    workload = run.WORKLOADS["classical-instances"]
    cfg = scenarios.resolve(replace(scenarios.load_config(ROOT / workload.config), workers=1))
    tracer = Tracer()
    with tracer.installed():
        # undo one rebinding: scenarios calls the unwrapped function again
        scenarios.gen_classical_hard_instance = scenarios.gen_classical_hard_instance.__wrapped__
        scenarios.run_trial(cfg, 0)
    with pytest.raises(CoverageError, match="hardness.gen_classical_hard_instance"):
        tracer.check_coverage(workload.expected_spans)

    bound = Tracer()
    with bound.installed():
        scenarios.run_trial(cfg, 0)
    bound.check_coverage(workload.expected_spans)


def test_count_hooks_are_charged_to_no_span(monkeypatch):
    scenarios, _ = run.import_package()
    cfg = scenarios.resolve(replace(scenarios.load_config(ROOT / "configs/classical.cfg"), workers=1))
    monkeypatch.setitem(SPANS, "hardness.classical_estimate_all", lambda *_: time.sleep(0.2))
    tracer = Tracer()
    with tracer.installed():
        scenarios.run_trial(cfg, 0)
    # the caller's self time would include the 0.2 s hook if it were charged to it
    assert tracer.self_s["scenarios.run_trial"] < 0.1
    assert tracer.self_s["hardness.classical_estimate_all"] < 0.1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "gap-collapse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = dict(run.END_TO_END)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, units[name]) for name in run.RESULT_METRICS
    }
    per_layer = {name: unit for name, (_, unit) in Tracer().per_trial_metrics(1).items()}
    per_layer["trace_overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
