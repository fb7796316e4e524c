"""Tests for the gentle binary search over candidate measurements."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowtomo import scenarios, search
from shadowtomo.instances import or_promise_instance
from shadowtomo.ledger import CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import DensityMatrix, Effect
from shadowtomo.rng import substream
from shadowtomo.search import (
    SearchParams,
    gentle_search,
    search_budget,
    search_copy_bound,
    verification_size,
    verification_threshold,
    verify_candidate,
)
from shadowtomo.shadow import derive_params

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_level_params_padding_and_split():
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    levels, alpha, beta = p.level_params(8)
    assert levels == 3
    assert abs(alpha - 0.5 / 3) < 1e-15
    assert abs(beta - 0.1 / 3) < 1e-15
    # non-power-of-two pads up
    assert p.level_params(5)[0] == 3
    assert p.level_params(1)[0] == 0


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(c=0.5, epsilon=0.5, delta=0.1)  # eps must be < c


def test_search_budget_frozen_values(monkeypatch):
    # M=8, c=0.9, eps=0.5, delta=0.1: three halving levels with shrinking
    # ells, the fixed round count, and the final verification sample, as a
    # real search over 8 candidates decides and debits them
    decisions = []
    real = search.or_bound_decide
    monkeypatch.setattr(
        search, "or_bound_decide", lambda *a, **kw: decisions.append(real(*a, **kw)) or decisions[-1]
    )
    inst = or_promise_instance(2, 8, 0.95, 0.3, substream(0, 0))
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 1))
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    gentle_search(list(inst.effects), src, p)
    assert [d.ell for d in decisions] == [200, 100, 100]
    assert [d.rounds for d in decisions] == [164] * 3
    assert src.ledger.attribution == {"search-or": 65600, "search-verify": 681}
    assert search_budget(8, p) == src.ledger.consumed == 66281


def test_search_budget_single_candidate_is_verification_only():
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 2))
    gentle_search([Effect(np.eye(2))], src, p)
    verify_units = verification_size(0.1, min(0.5, 0.4))
    assert src.ledger.attribution == {"search-verify": verify_units}
    assert search_budget(1, p) == verify_units


def test_verification_size_formula():
    assert verification_size(0.1, 0.4) == math.ceil(32.0 * math.log(10.0) / 0.16)


def test_search_copy_bound_formula():
    got = search_copy_bound(8, 0.5, 0.1)
    lg = 3.0
    want = 64.0 * lg**4 / 0.25 * (math.log(lg) + math.log(10.0))
    assert abs(got - want) < 1e-9


def test_budget_within_copy_bound_at_reference_point():
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    assert search_budget(8, p) <= search_copy_bound(8, 0.5, 0.1)


def test_verify_candidate_confirms_and_rejects():
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 0))
    assert verify_candidate(Effect(np.eye(2)), src, 0.9, 0.4, 0.05)
    src2 = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 1))
    low = Effect(np.diag([0.1, 0.0]).astype(complex))
    assert not verify_candidate(low, src2, 0.9, 0.4, 0.05)


def _shipped_verification(config):
    """(n, bar, gap) of the verification step a shipped config's search runs."""
    cfg = scenarios.resolve(scenarios.load_config(CONFIGS / f"{config}.cfg"))
    if cfg.scenario == "search":
        sp, m = SearchParams(cfg.c, cfg.epsilon, cfg.delta), cfg.m
    else:
        d, m = (cfg.d, cfg.m) if cfg.scenario == "shadow" else (2**cfg.qubits, 4**cfg.qubits)
        params = derive_params(d, m, cfg.epsilon, cfg.delta, q=cfg.q)
        sp, m = params.search_params(), 2 * m
    gap = min(sp.epsilon, sp.c - sp.epsilon)
    return verification_size(sp.level_params(m)[2], gap), sp.c - sp.epsilon, gap


def _assert_threshold_decides_as_the_mean(n, bar, gap):
    counts = np.arange(n + 1)
    t = verification_threshold(n, bar, gap)
    np.testing.assert_array_equal(counts >= t, counts / n >= bar - gap / 2.0)


@pytest.mark.parametrize("config", ["search", "shadow", "shadow-quick", "money-demo"])
def test_verification_threshold_decides_every_shipped_count_as_the_mean(config):
    _assert_threshold_decides_as_the_mean(*_shipped_verification(config))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 5000),
    st.floats(1e-3, 1.0),
    st.floats(1e-3, 1.0),
)
def test_verification_threshold_decides_every_count_as_the_mean(n, bar, gap_share):
    _assert_threshold_decides_as_the_mean(n, bar, bar * gap_share)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5000), st.floats(0.0, 1.0), st.floats(1e-3, 0.5))
def test_verification_threshold_at_a_cut_within_rounding_of_a_count(n, share, gap):
    # bar - gap/2 lands a few ulps either side of k/n, where cut * n rounds
    # across the integer k
    k = round(share * n)
    _assert_threshold_decides_as_the_mean(n, k / n + gap / 2.0, gap)


def test_gentle_search_finds_planted_candidate():
    found = 0
    for s in range(25):
        rng = substream(1, s)
        inst = or_promise_instance(2, 8, 0.95, 0.3, rng)
        truth = np.array(inst.ground_truth)
        p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
        src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(2, s))
        res = gentle_search(list(inst.effects), src, p)
        if res.found and truth[res.index] >= 0.9 - 0.5:
            found += 1
        assert res.copies_consumed == search_budget(8, p)
        assert res.copies_consumed <= search_copy_bound(8, 0.5, 0.1)
    assert found >= 23


def test_gentle_search_all_far_below_returns_not_found():
    # decoys must sit below the verification cutoff bar - gap/2 = 0.2 for
    # the reject guarantee to apply
    misses = 0
    for s in range(20):
        rng = substream(3, s)
        inst = or_promise_instance(2, 8, None, 0.1, rng)
        p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
        src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(4, s))
        res = gentle_search(list(inst.effects), src, p)
        misses += not res.found
    assert misses >= 18


def test_gentle_search_level_bars_decrease_linearly():
    rng = substream(5, 0)
    inst = or_promise_instance(2, 8, 0.95, 0.3, rng)
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(5, 1))
    res = gentle_search(list(inst.effects), src, p)
    levels, alpha, _ = p.level_params(8)
    assert len(res.level_bars) == levels
    for k, bar in enumerate(res.level_bars):
        assert abs(bar - (0.9 - k * alpha)) < 1e-12


def test_gentle_search_deterministic_for_fixed_seed():
    rng = substream(6, 0)
    inst = or_promise_instance(2, 4, 0.95, 0.3, rng)
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    results = []
    for _ in range(2):
        src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(6, 1))
        results.append(gentle_search(list(inst.effects), src, p))
    assert results[0] == results[1]


def test_gentle_search_handles_none_padding():
    # padding to a power of two inserts never-accept placeholders; a list
    # already containing None slots must behave the same way
    rng = substream(7, 0)
    inst = or_promise_instance(2, 4, 0.95, 0.3, rng)
    effects = list(inst.effects) + [None, None]
    p = SearchParams(c=0.9, epsilon=0.5, delta=0.1)
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(7, 1))
    res = gentle_search(effects, src, p)
    if res.found:
        assert res.index < 4
