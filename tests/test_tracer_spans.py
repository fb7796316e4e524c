"""Every span and copy phase the benchmark tracer counts exists where the
tracer looks, and every workload reaches the spans it is expected to.

`benchmarks/tracer.py` resolves each span as `owner.__dict__[attr]`, so a
traced method that moves into a base class, or a traced function that is
renamed, breaks a traced benchmark run. It also counts ledger debits under
fixed phase names, so a renamed phase silently reads as zero copies. And a
traced run fails its coverage check when a workload stops calling one of
its expected spans, or when the scenario's checks, which the benchmark's
gates call, stop accepting a trial's extras. These tests load the tracer and
the benchmark runner by path and fail on any of these in the test suite
instead.
"""

import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from shadowtomo import scenarios
from shadowtomo.instances import diagonal_gap_instance, or_promise_instance
from shadowtomo.ledger import CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.rng import substream
from shadowtomo.search import SearchParams, gentle_search
from shadowtomo.shadow import run_promise_gap

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load(name, path, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("benchmark_tracer", TRACER)


@pytest.mark.parametrize("span", sorted(_load_tracer().SPANS))
def test_traced_span_is_defined_on_its_own_owner(span):
    module_name, *owner_path, attr = span.split(".")
    owner = importlib.import_module(f"shadowtomo.{module_name}")
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{span} is not defined on {owner.__name__} itself"
    assert callable(owner.__dict__[attr])


def test_copy_phases_are_the_ones_the_search_and_gap_test_debit():
    inst = or_promise_instance(2, 8, 0.95, 0.3, substream(0, 0))
    search = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 1))
    params = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    assert gentle_search(list(inst.effects), search, params).found  # so it reached verification
    inst, cutoffs = diagonal_gap_instance(4, 8, 0.2, substream(1, 0))
    gap = CopySource(inst.rho, FidelityMode.PER_COPY_COLLAPSE, substream(1, 1))
    run_promise_gap(list(inst.effects), cutoffs, 0.2, 0.1, gap)
    search_phases, gap_phases = set(search.ledger.attribution), set(gap.ledger.attribution)
    assert search_phases == {"search-or", "search-verify"}
    assert gap_phases == {"gap-test"}
    assert search_phases | gap_phases == set(_load_tracer().COPY_PHASES)


def _load_run(monkeypatch):
    # run.py imports its tracer as a top-level module from its own directory
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return _load("benchmark_run", BENCHMARKS / "run.py", monkeypatch)


def _workload_config(run, workload):
    spec = run.WORKLOADS[workload]
    return spec, scenarios.resolve(replace(scenarios.load_config(ROOT / spec.config), workers=1))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_trial_reaches_every_expected_span(workload, monkeypatch):
    run = _load_run(monkeypatch)
    spec, cfg = _workload_config(run, workload)
    tracer = run.Tracer()
    with tracer.installed():
        scenarios.run_trial(cfg, 0)
    tracer.check_coverage(spec.expected_spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_trial_meets_the_benchmark_gates(workload, monkeypatch):
    # check_gates reads the scenario's check through scenarios._THRESHOLDS and
    # counts a trial whose extras hold "error" as failed; the gate report it
    # prints must serialize
    run = _load_run(monkeypatch)
    _, cfg = _workload_config(run, workload)
    row, extras = scenarios.run_trial(cfg, 0)
    info, met = run.check_gates(scenarios, cfg, run.Trials([row], [extras], [0.0], []), 1)
    assert met, info
    json.dumps(info, default=str)
