"""Tests for copy accounting and the mode-specific batch semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowtomo.errors import BudgetExhaustedError
from shadowtomo.instances import random_density, random_effect, random_projector
from shadowtomo.ledger import (
    CopyLedger,
    CopySource,
    ExactBatch,
    PerCopyBatch,
    StatisticalBatch,
)
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import (
    DIRECTIONS,
    DensityMatrix,
    Effect,
    ThresholdEffect,
    accept_prob,
    leaf_effect,
    threshold_accept_prob,
    unit_width,
)
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


@st.composite
def threshold_level(draw):
    """(registers, threshold, direction) of one valid level, sentinels included."""
    n = draw(st.integers(1, 3))
    direction = draw(st.sampled_from(DIRECTIONS))
    lo, hi = (0, n + 1) if direction == "at_least" else (-1, n)
    return n, draw(st.integers(lo, hi)), direction


def nest(base, levels):
    m = base
    for n, t, direction in levels:
        m = ThresholdEffect(m, n, t, direction)
    return m


# one step of a fresh-mode schedule: which measurement, whether to use its
# equal-valued twin, how to measure it, and a unit count
_STEP = st.tuples(
    st.integers(0, 3),
    st.booleans(),
    st.sampled_from(("collective", "units", "count", "throwaway")),
    st.integers(1, 4),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.lists(st.lists(threshold_level(), max_size=2), min_size=1, max_size=4),
    st.lists(_STEP, min_size=1, max_size=40),
)
def test_statistical_memo_draws_match_unmemoized_reference(seed, specs, steps):
    # Each measurement object is reused across many dispenses, interleaved
    # with a distinct object of equal value and with throwaway objects whose
    # ids Python may recycle. A twin substream replays every draw at the
    # probability computed anew; the memoized outcomes must match.
    rng = substream(seed, 0)
    rho = random_density(2, rng)
    # measurements i and i + 2 share a leaf effect but not their thresholds
    leaves = [random_effect(2, rng) for _ in range(2)]
    objs = [
        (nest(leaves[i % 2], levels), nest(Effect(leaves[i % 2].mat), levels))
        for i, levels in enumerate(specs)
    ]
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(seed, 1))
    ref = substream(seed, 1)
    consumed = 0
    for which, twin, op, units in steps:
        levels = specs[which % len(specs)]
        if op == "throwaway":
            m = nest(random_effect(2, rng), levels)
        else:
            m = objs[which % len(objs)][twin]
        p = threshold_accept_prob(m, accept_prob(leaf_effect(m), rho))
        if op == "units":
            got = src.dispense(units * unit_width(m), "x").measure_units(m)
            np.testing.assert_array_equal(got, ref.random(units) < p)
            consumed += units * unit_width(m)
        elif op == "count":
            e = leaf_effect(m)
            got = src.dispense(units, "x").measure_count(e)
            assert got == int(ref.binomial(units, accept_prob(e, rho)))
            consumed += units
        else:
            got = src.dispense(unit_width(m), "x").measure_collective(m)
            assert got == bool(ref.random() < p)
            consumed += unit_width(m)
    assert src.ledger.consumed == consumed


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

