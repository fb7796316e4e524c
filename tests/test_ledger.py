"""Tests for copy accounting and the mode-specific batch semantics."""

import numpy as np
import pytest

from shadowtomo.errors import BudgetExhaustedError, ModeUnsupportedError
from shadowtomo.instances import random_density, random_effect, random_projector
from shadowtomo.ledger import (
    CopyLedger,
    CopySource,
    ExactBatch,
    PerCopyBatch,
    StatisticalBatch,
    require_mode,
)
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import DensityMatrix, Effect, ThresholdEffect, accept_prob
from shadowtomo.rng import substream


def mixed_state(d=2):
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def test_ledger_debit_accumulates_with_attribution():
    led = CopyLedger()
    led.debit(3, "a")
    led.debit(2, "a")
    led.debit(5, "b")
    assert led.consumed == 10
    assert led.attribution == {"a": 5, "b": 5}


def test_ledger_zero_debit_allowed():
    led = CopyLedger()
    led.debit(0, "idle")
    assert led.consumed == 0


def test_ledger_negative_debit_rejected():
    with pytest.raises(ValueError):
        CopyLedger().debit(-1, "x")


def test_ledger_budget_enforced_with_snapshot():
    led = CopyLedger(budget=4)
    led.debit(3, "x")
    with pytest.raises(BudgetExhaustedError) as exc:
        led.debit(2, "x")
    assert exc.value.snapshot["consumed"] == 3
    assert led.consumed == 3  # failed debit does not count


def test_source_dispense_debits_and_batches_by_mode():
    for mode, cls in [
        (FidelityMode.FRESH_COPY_STATISTICAL, StatisticalBatch),
        (FidelityMode.PER_COPY_COLLAPSE, PerCopyBatch),
        (FidelityMode.EXACT_TENSOR, ExactBatch),
    ]:
        src = CopySource(mixed_state(), mode, substream(0, 0))
        batch = src.dispense(5, "phase")
        assert isinstance(batch, cls)
        assert src.ledger.consumed == 5
        assert src.ledger.attribution == {"phase": 5}


def test_source_dispense_zero_is_fine():
    src = CopySource(mixed_state(), FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 0))
    batch = src.dispense(0, "empty")
    assert batch.n_copies == 0
    assert src.ledger.consumed == 0


def test_source_properties():
    src = CopySource(mixed_state(4), FidelityMode.EXACT_TENSOR, substream(1, 0))
    assert src.dim == 4


def test_ground_truth_accept_prob_matches_trace():
    rng = substream(3, 0)
    rho = random_density(2, rng)
    e = random_effect(2, rng)
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(3, 1))
    assert abs(src.ground_truth_accept_prob(e) - accept_prob(e, rho)) < 1e-12


def test_statistical_batch_count_is_binomial_and_deterministic():
    rho = mixed_state()
    e = Effect(np.diag([1.0, 0.0]).astype(complex))
    src1 = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(4, 0))
    src2 = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(4, 0))
    c1 = src1.dispense(2000, "x").measure_count(e)
    c2 = src2.dispense(2000, "x").measure_count(e)
    assert c1 == c2  # same substream, same outcome
    assert abs(c1 / 2000 - 0.5) < 0.05  # p = 1/2, loose binomial check


def test_statistical_units_match_threshold_probability():
    # amplified measurement over 3 registers, checked against the exact tail
    rng = substream(5, 0)
    rho = random_density(2, rng)
    e = random_effect(2, rng)
    te = ThresholdEffect(e, 3, 2, "at_least")
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(5, 1))
    outs = src.dispense(3 * 4000, "x").measure_units(te)
    assert outs.shape == (4000,)
    p = src.ground_truth_accept_prob(te)
    assert abs(outs.mean() - p) < 0.04


def test_exact_batch_collective_probability_is_exact():
    # measure_collective on an exact batch samples from the true joint law;
    # repeated fresh batches estimate it consistently
    rng = substream(8, 0)
    rho = random_density(2, rng)
    e = random_projector(2, 1, rng)
    te = ThresholdEffect(e, 2, 2, "at_least")
    p_true = None
    hits = 0
    n = 800
    src = CopySource(rho, FidelityMode.EXACT_TENSOR, substream(8, 1))
    for _ in range(n):
        batch = src.dispense(2, "x")
        if batch.measure_collective(te):
            hits += 1
        if p_true is None:
            p_true = src.ground_truth_accept_prob(te)
    assert abs(hits / n - p_true) < 0.06


def test_exact_batch_zero_copies_guard():
    src = CopySource(mixed_state(), FidelityMode.EXACT_TENSOR, substream(9, 0))
    batch = src.dispense(0, "x")
    assert batch.n_copies == 0


def test_require_mode_raises_on_disallowed():
    with pytest.raises(ModeUnsupportedError):
        require_mode(
            FidelityMode.FRESH_COPY_STATISTICAL,
            (FidelityMode.EXACT_TENSOR,),
            "some op",
        )
    require_mode(
        FidelityMode.EXACT_TENSOR, (FidelityMode.EXACT_TENSOR,), "some op"
    )
