"""Tests for copy accounting and the mode-specific batch semantics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2_contingency

from dense_reference import DenseBatch, materialize_threshold
from shadowtomo import ledger, linalg
from shadowtomo.errors import (
    BudgetExhaustedError,
    DegenerateBranchError,
    DimensionMismatchError,
    ModeUnsupportedError,
    NotPSDError,
)
from shadowtomo.instances import random_density, random_effect, random_projector
from shadowtomo.ledger import (
    CopyBatch,
    CopyLedger,
    CopySource,
    PerCopyBatch,
    StatisticalBatch,
    _compact,
)
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import (
    DIRECTIONS,
    AnyOf,
    DensityMatrix,
    Effect,
    ThresholdEffect,
    accept_prob,
    collapse,
    leaf_effect,
    threshold_accept_prob,
    unit_width,
)
from shadowtomo.rng import substream
from shadowtomo.search import SearchParams, gentle_search


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
    src = CopySource(mixed_state(4), FidelityMode.PER_COPY_COLLAPSE, substream(1, 0))
    assert src.dim == 4


_MEASURE = {"measure_collective", "measure_units", "measure_count"}


def _public(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def test_sources_and_batches_expose_only_dispensing_and_measurement():
    # A source shows its mode, generator, ledger and dimension and
    # dispenses; a batch shows its size and source and measures. Nothing
    # else, so no state or probability can be read around the outcomes.
    assert _public(CopyBatch) == _MEASURE
    for mode in FidelityMode:
        src = CopySource(mixed_state(), mode, substream(0, 0))
        assert _public(src) == {"dim", "dispense", "ledger", "mode", "rng"}
        batch = src.dispense(1, "x")
        assert _public(type(batch)) == _MEASURE
        assert _public(batch) == _MEASURE | {"n_copies", "source"}


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
    p = threshold_accept_prob(te, accept_prob(e, rho))
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


# Reference realizations the batches must reproduce draw for draw: per-copy
# mode walking a nested threshold recursively, one copy per kernel call, and
# the dense reference batch with a dense collapse loop of its own for each
# batch method.


def _ref_nested(batch, m, idx):
    if isinstance(m, Effect):
        assert len(idx) == 1
        return bool(batch._measure_copies(m, idx)[0])
    w = unit_width(m.base)
    outcomes = [_ref_nested(batch, m.base, idx[r * w : (r + 1) * w]) for r in range(m.registers)]
    count = sum(outcomes)
    return count >= m.threshold if m.direction == "at_least" else count <= m.threshold


def _ref_per_copy(batch, op, m):
    everything = np.arange(batch.n_copies)
    if op == "count":
        return int(batch._measure_copies(m, everything).sum())
    if op == "collective":
        if isinstance(m, Effect):
            return bool(batch._measure_copies(m, np.arange(1))[0])
        if isinstance(m.base, Effect):
            count = int(batch._measure_copies(m.base, everything).sum())
            return count >= m.threshold if m.direction == "at_least" else count <= m.threshold
        return _ref_nested(batch, m, everything)
    if isinstance(m, Effect):
        return batch._measure_copies(m, everything)
    w = unit_width(m)
    return np.array(
        [_ref_nested(batch, m, everything[u * w : (u + 1) * w]) for u in range(batch.n_copies // w)]
    )


def _ref_embed(op, d, n_copies, offset, span):
    left = np.eye(d**offset)
    right = np.eye(d ** (n_copies - offset - span))
    return np.kron(np.kron(left, op), right)


def _ref_collapse(batch, big):
    p = min(1.0, max(0.0, float(np.real(np.trace(big @ batch._joint)))))
    accept = bool(batch.source.rng.random() < p)
    _, batch._joint = collapse(batch._joint, big, accept)
    return accept


def _ref_exact(batch, op, m):
    d, n = batch.source.dim, batch.n_copies
    dense = np.asarray(m.mat if isinstance(m, Effect) else materialize_threshold(m).mat)
    if op == "collective":
        return _ref_collapse(batch, dense)
    w = 1 if op == "count" else unit_width(m)
    out = np.array([_ref_collapse(batch, _ref_embed(dense, d, n, u * w, w)) for u in range(n // w)])
    return int(out.sum()) if op == "count" else out


def _draw_schedule(data, d, max_copies):
    """A nested register shape of depth 0-2, a unit count, and a list of
    (op, measurement) steps over one batch of `width * units` copies.
    Thresholds and directions are drawn anew per step, sentinels included."""
    shape, width = [], 1
    for _ in range(data.draw(st.integers(0, 2))):
        shape.append(data.draw(st.integers(1, min(3, max_copies // width))))
        width *= shape[-1]
    units = data.draw(st.integers(1, min(3, max_copies // width)))
    rng = substream(data.draw(st.integers(0, 2**16)), 0)
    rho = random_density(d, rng)
    leaves = [random_effect(d, rng) for _ in range(2)]

    def measurement(registers):
        m = leaves[data.draw(st.integers(0, 1))]
        for n in registers:
            direction = data.draw(st.sampled_from(DIRECTIONS))
            lo, hi = (0, n + 1) if direction == "at_least" else (-1, n)
            m = ThresholdEffect(m, n, data.draw(st.integers(lo, hi)), direction)
        return m

    ops = data.draw(
        st.lists(st.sampled_from(("collective", "units", "count")), min_size=1, max_size=6)
    )
    steps = []
    for op in ops:
        if op == "count":
            steps.append((op, measurement([])))
        elif op == "units":
            steps.append((op, measurement(shape)))
        else:
            steps.append((op, measurement(shape + ([units] if units > 1 else []))))
    return rho, width * units, steps


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.data())
def test_per_copy_outcomes_and_states_match_copy_by_copy_walk(d, data):
    rho, n, steps = _draw_schedule(data, d, max_copies=27)
    seed = data.draw(st.integers(0, 2**16))
    batch = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(seed, 1)).dispense(n, "x")
    ref = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(seed, 1)).dispense(n, "x")
    for op, m in steps:
        got = getattr(batch, "measure_" + op)(m)
        want = _ref_per_copy(ref, op, m)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
        assert batch._distinct[batch._row].tobytes() == ref._distinct[ref._row].tobytes()
    assert batch.source.rng.random() == ref.source.rng.random()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.data())
def test_exact_outcomes_and_joint_match_dense_loop(d, data):
    rho, n, steps = _draw_schedule(data, d, max_copies=5 if d == 2 else 3)
    seed = data.draw(st.integers(0, 2**16))
    batch = DenseBatch(rho, n, substream(seed, 1))
    ref = DenseBatch(rho, n, substream(seed, 1))
    for op, m in steps:
        got = getattr(batch, "measure_" + op)(m)
        want = _ref_exact(ref, op, m)
        assert type(got) is type(want)
        np.testing.assert_array_equal(got, want)
        # reshaped products on the unit's factor against the embedded dense
        # collapse: the same operator, rounded in another order
        assert np.max(np.abs(batch._joint - ref._joint)) <= 1e-12
    assert batch.source.rng.random() == ref.source.rng.random()


@pytest.mark.parametrize("op", ["collective", "units", "count"])
@pytest.mark.parametrize("mode", [*FidelityMode, "exact_tensor"])
def test_wrong_dimension_effect_is_rejected(mode, op):
    # "exact_tensor" is the dense reference batch, which checks shapes as
    # every batch of a fidelity mode does
    if mode == "exact_tensor":
        batch = DenseBatch(mixed_state(2), 2, substream(10, 0))
    else:
        batch = CopySource(mixed_state(2), mode, substream(10, 0)).dispense(2, "x")
    e = Effect(np.eye(3, dtype=complex))
    m = ThresholdEffect(e, 2, 1, "at_least") if op == "collective" else e
    with pytest.raises(DimensionMismatchError):
        getattr(batch, "measure_" + op)(m)


def test_exact_batch_collective_probability_is_exact():
    # measure_collective on a dense reference batch samples from the true
    # joint law; repeated fresh batches estimate it consistently
    rng = substream(8, 0)
    rho = random_density(2, rng)
    e = random_projector(2, 1, rng)
    te = ThresholdEffect(e, 2, 2, "at_least")
    p_true = threshold_accept_prob(te, accept_prob(e, rho))
    hits = 0
    n = 800
    rng = substream(8, 1)
    for _ in range(n):
        batch = DenseBatch(rho, 2, rng)
        if batch.measure_collective(te):
            hits += 1
    assert abs(hits / n - p_true) < 0.06


def test_exact_batch_zero_copies_guard():
    batch = DenseBatch(mixed_state(), 0, substream(9, 0))
    assert batch.n_copies == 0


class _ZeroUniforms:
    """Draws 0.0, which accepts any branch of p > 0, and counts the draws."""

    def __init__(self):
        self.draws = 0

    def random(self):
        self.draws += 1
        return 0.0


def _zero_uniform_batch(diag):
    """A dense batch of two copies of diag(diag) drawing from _ZeroUniforms."""
    return DenseBatch(DensityMatrix(np.diag(diag).astype(complex)), 2, _ZeroUniforms())


def test_exact_batch_raises_on_a_degenerate_branch_or_a_non_effect():
    # each error comes after the uniform that drew the branch, as in `collapse`
    batch = _zero_uniform_batch([1.0, 0.0])
    with pytest.raises(DegenerateBranchError):
        batch.measure_units(Effect(np.diag([1e-14, 1.0]).astype(complex)))
    assert batch.source.rng.draws == 1
    # an eigenvalue below -PSD_ROOT_ATOL leaves sqrt(E) undefined; sqrt(I - E)
    # exists, so only drawing the accept branch raises
    loose = Effect(np.diag([-1e-4, 0.5]).astype(complex), atol=1e-3)
    batch = _zero_uniform_batch([1.0, 0.0])
    np.testing.assert_array_equal(batch.measure_units(loose), [False, False])
    batch = _zero_uniform_batch([0.0, 1.0])
    with pytest.raises(NotPSDError):
        batch.measure_units(loose)
    assert batch.source.rng.draws == 1


# The stacked kernel against the kernel it replaced: per copy, a two-branch
# three-operand einsum over a full (n, d, d) stack of per-copy states.


def _ref_measure_copies(states, rng, e, idx):
    mats = states[idx]
    probs = np.real(np.einsum("kij,ji->k", mats, np.asarray(e.mat)))
    probs = np.clip(probs, 0.0, 1.0)
    accepts = rng.random(len(idx)) < probs
    k_acc = linalg.herm_sqrt(np.asarray(e.mat))
    k_rej = linalg.herm_sqrt(np.eye(e.dim) - np.asarray(e.mat))
    for flag, k, p in ((True, k_acc, probs), (False, k_rej, 1.0 - probs)):
        sel = np.flatnonzero(accepts == flag)
        if sel.size == 0:
            continue
        post = np.einsum("ij,kjl,lm->kim", k, mats[sel], k)
        denom = np.maximum(p[sel], 1e-300)[:, None, None]
        states[idx[sel]] = (post + np.conj(np.transpose(post, (0, 2, 1)))) / (2 * denom)
    return accepts


def _copy_subsets(n):
    """Index arrays into n copies: every copy, or any subset in copy order."""
    every = st.just(np.arange(n))
    some = st.lists(st.booleans(), min_size=n, max_size=n).map(np.flatnonzero)
    return st.one_of(every, some)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(1, 40), st.data())
def test_per_copy_kernel_matches_copy_stack_einsum(d, n, data):
    seed = data.draw(st.integers(0, 2**16))
    rng = substream(seed, 0)
    rho = random_density(d, rng)
    effects = [random_effect(d, rng) for _ in range(3)]
    batch = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(seed, 1)).dispense(n, "x")
    ref_rng = substream(seed, 1)
    ref_states = np.broadcast_to(rho.mat, (n, d, d)).copy()
    steps = data.draw(st.lists(st.tuples(st.integers(0, 2), _copy_subsets(n)), max_size=8))
    for which, idx in steps:
        got = batch._measure_copies(effects[which], idx)
        want = _ref_measure_copies(ref_states, ref_rng, effects[which], idx)
        np.testing.assert_array_equal(got, want)
        assert np.max(np.abs(batch._distinct[batch._row] - ref_states), initial=0.0) <= 1e-12
    assert batch.source.rng.random() == ref_rng.random()


def test_per_copy_kernel_scratch_memory_stays_within_a_few_stacks():
    # a Kronecker form of the two roots would take 2 d**4 entries (32 MiB here)
    d, n = 32, 6
    rng = substream(5, 0)
    rho, e = random_density(d, rng), random_effect(d, rng)
    batch = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(5, 1)).dispense(n, "x")
    ref_rng = substream(5, 1)
    ref_states = np.broadcast_to(rho.mat, (n, d, d)).copy()
    for _ in range(2):
        tracemalloc.start()
        got = batch._measure_copies(e, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        np.testing.assert_array_equal(got, _ref_measure_copies(ref_states, ref_rng, e, np.arange(n)))
        assert peak <= 16 * n * d * d * 16
    assert np.max(np.abs(batch._distinct[batch._row] - ref_states)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3), st.integers(0, 40), st.data())
def test_per_copy_storage_is_one_row_per_outcome_history(d, n, data):
    # A copy's history is its outcome in every sweep, or None where a sweep
    # skipped it. Copies share a stored row exactly when they share a
    # history, and every stored row is referenced by some copy; so a sweep
    # over every copy at most doubles the rows, and a partial one at most
    # triples them.
    seed = data.draw(st.integers(0, 2**16))
    rng = substream(seed, 0)
    rho = random_density(d, rng)
    effects = [random_effect(d, rng) for _ in range(2)]
    batch = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(seed, 1)).dispense(n, "x")
    steps = data.draw(st.lists(st.tuples(st.integers(0, 1), _copy_subsets(n)), max_size=10))
    histories = [()] * n
    bound = 1
    for which, idx in steps:
        accepts = dict(zip(idx.tolist(), batch._measure_copies(effects[which], idx).tolist()))
        histories = [h + (accepts.get(c),) for c, h in enumerate(histories)]
        bound *= 2 if len(idx) == n else 3
        np.testing.assert_array_equal(np.unique(batch._row), np.arange(len(batch._distinct)))
        first_copy = {}
        for c, h in enumerate(histories):
            first_copy.setdefault(h, c)
        assert len(batch._distinct) == len(first_copy) <= min(n, bound)
        for c, h in enumerate(histories):
            assert batch._row[c] == batch._row[first_copy[h]]
    assert batch._distinct[batch._row].shape == (n, d, d)


# The counting compaction against the sort it replaced: distinct keys, each
# key's index among them, dtypes and shapes all as np.unique gives them.


def _whole_range_keys(n):
    """Every key in [0, n) at least once, in any order, some repeated."""
    extra = st.lists(st.integers(0, max(n - 1, 0)), max_size=n)
    return st.tuples(st.permutations(range(n)), extra).map(lambda t: t[0] + t[1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 2**12), max_size=60),
        st.integers(0, 40).flatmap(_whole_range_keys),
        st.just([]),
    )
)
def test_compact_is_np_unique_with_inverse(keys):
    keys = np.array(keys, dtype=np.intp)
    for got, want in zip(_compact(keys), np.unique(keys, return_inverse=True)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_per_copy_batch_of_zero_copies_measures_nothing(d):
    rng = substream(11, 0)
    rho, e = random_density(d, rng), random_effect(d, rng)
    src = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(11, 1))
    ref = substream(11, 1)
    batch = src.dispense(0, "x")
    assert batch._measure_copies(e, np.arange(0)).shape == (0,)
    assert batch.measure_count(e) == 0
    assert batch._distinct.shape == (0, d, d) and batch._row.shape == (0,)
    assert src.rng.random() == ref.random()  # no uniform was drawn


@pytest.mark.parametrize("n_copies", [2, 3])
def test_per_copy_and_exact_agree_in_law_on_diagonal_instances(n_copies):
    # Diagonal states and effects commute, so per-copy collapse is exact:
    # per-copy mode and the dense reference must give the same joint law of
    # the recorded outcomes. The
    # effects are near-projectors, so repeated measurements of one copy are
    # strongly correlated and a mode that skipped the collapse would show.
    # Outcome-tuple counts over a fixed set of seeds go into a chi-square
    # homogeneity test at level 1e-3; cells with a pooled count below 10
    # are merged into one.
    rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    e1 = Effect(np.diag([0.9, 0.15]).astype(complex))
    e2 = Effect(np.diag([0.2, 0.85]).astype(complex))
    schedule = [
        ("count", e1),
        ("collective", ThresholdEffect(e2, n_copies, 1, "at_least")),
        ("count", e2),
        ("collective", ThresholdEffect(e1, n_copies, n_copies - 1, "at_most")),
    ]
    trials = 600
    counts = {}
    per_copy = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(31, n_copies))
    dense_rng = substream(31, n_copies)
    dispensers = (
        lambda: per_copy.dispense(n_copies, "x"),
        lambda: DenseBatch(rho, n_copies, dense_rng),
    )
    for col, dispense in enumerate(dispensers):
        for _ in range(trials):
            batch = dispense()
            key = tuple(int(getattr(batch, "measure_" + op)(m)) for op, m in schedule)
            counts.setdefault(key, [0, 0])[col] += 1
    table = np.array(sorted(counts.values(), key=sum))
    rare = table.sum(axis=1) < 10
    table = np.vstack([table[~rare], table[rare].sum(axis=0, keepdims=True)])
    table = table[table.sum(axis=1) > 0]
    assert chi2_contingency(table).pvalue > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4])
def test_per_copy_and_exact_agree_draw_for_draw_on_one_copy(d):
    # sequential measurements on one copy, as random-order-or makes them, are
    # sound in per-copy mode even when nothing commutes: on the same
    # substream it draws the same outcomes as the dense reference and leaves
    # the same post state
    for seed in range(40):
        rng = substream(seed, d)
        rho = random_density(d, rng)
        effects = [random_effect(d, rng) for _ in range(6)]
        per_copy = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(seed, 100 + d))
        got, want = per_copy.dispense(1, "x"), DenseBatch(rho, 1, substream(seed, 100 + d))
        assert [got.measure_collective(e) for e in effects] == [
            want.measure_collective(e) for e in effects
        ]
        np.testing.assert_allclose(got._distinct[0], want._joint, rtol=0, atol=1e-12)
        # both generators end at the same point
        assert got.source.rng.random() == want.source.rng.random()


_DISPENSE = st.tuples(st.integers(0, 6), st.sampled_from(("a", "b", "c/d")))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(list(FidelityMode)),
    st.one_of(st.none(), st.integers(0, 40)),
    st.lists(_DISPENSE, max_size=25),
)
def test_ledger_consumed_never_decreases_and_attribution_sums_to_it(mode, budget, steps):
    src = CopySource(mixed_state(), mode, substream(0, 0), budget=budget)
    before = 0
    for n, phase in steps:
        try:
            src.dispense(n, phase)
        except BudgetExhaustedError:
            pass
        assert src.ledger.consumed >= before
        assert sum(src.ledger.attribution.values()) == src.ledger.consumed
        before = src.ledger.consumed
    assert budget is None or src.ledger.consumed <= budget


def _or_rounds_loop(src, members, rounds):
    """Reference for an AnyOf over `rounds` units: one block per round, the
    members measured one by one on it until one accepts, `None` skipped."""
    width = unit_width(next(m for m in members if m is not None))
    outcomes = []
    for _ in range(rounds):
        batch = src.dispense(width, "x")
        accepted = False
        for m in members:
            if m is not None and batch.measure_collective(m):
                accepted = True
                break
        outcomes.append(accepted)
    return np.array(outcomes, dtype=bool)


_MEMBER_PROB = st.one_of(st.none(), st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


def _diag_members(probs, nested):
    """On |0><0| the effect diag(p, 0) accepts with probability exactly p; a
    nested member thresholds it over two registers. `None` stays padding."""
    members = [None if p is None else Effect(np.diag([p, 0.0]).astype(complex)) for p in probs]
    if nested:
        members = [None if m is None else ThresholdEffect(m, 2, 1, "at_least") for m in members]
    return members


_KET0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.lists(_MEMBER_PROB, min_size=1, max_size=33).filter(lambda ps: any(p is not None for p in ps)),
    st.integers(1, 500),
    st.booleans(),
)
def test_fresh_any_of_draws_one_uniform_per_round_at_the_or_law(seed, probs, rounds, nested):
    # a fresh-mode OR round is one draw at 1 - prod(1 - p_i), the law of
    # applying its members in order on independent draws
    members = _diag_members(probs, nested)
    live = [m for m in members if m is not None]
    any_of = AnyOf(tuple(live))
    width = unit_width(any_of)
    p_or = 1.0 - float(
        np.prod([1.0 - threshold_accept_prob(m, accept_prob(leaf_effect(m), _KET0)) for m in live])
    )
    src = CopySource(_KET0, FidelityMode.FRESH_COPY_STATISTICAL, substream(seed, 1))
    ref = substream(seed, 1)
    got = src.dispense(rounds * width, "x").measure_units(any_of)
    np.testing.assert_array_equal(got, ref.random(rounds) < p_or)
    loop = CopySource(_KET0, FidelityMode.FRESH_COPY_STATISTICAL, substream(seed, 1))
    _or_rounds_loop(loop, members, rounds)
    assert src.ledger.consumed == loop.ledger.consumed
    # one round through measure_collective takes exactly one more draw
    assert src.dispense(width, "x").measure_collective(any_of) == bool(ref.random() < p_or)
    assert src.rng.random() == ref.random()  # the generator ends where the reference's does


@pytest.mark.parametrize(
    "probs", [(0.3,), (0.1, None, 0.2, 0.05), (0.0, 0.01, 0.002, 0.03, 0.0, 0.004)]
)
@pytest.mark.parametrize("seed", [0, 1017])
def test_fresh_any_of_accepts_as_often_as_the_round_by_round_loop(seed, probs):
    # the one-draw round and the member-by-member loop realize one law: both
    # accept counts sit within 5 sigma of rounds * (1 - prod(1 - p_i)), and
    # within 5 sigma of each other
    rounds = 20_000
    members = _diag_members(probs, nested=False)
    any_of = AnyOf(tuple(m for m in members if m is not None))
    p_or = 1.0 - math.prod(1.0 - p for p in probs if p is not None)
    sigma = math.sqrt(rounds * p_or * (1.0 - p_or))
    src = CopySource(_KET0, FidelityMode.FRESH_COPY_STATISTICAL, substream(seed, 1))
    batch = int(src.dispense(rounds * unit_width(any_of), "x").measure_units(any_of).sum())
    loop_src = CopySource(_KET0, FidelityMode.FRESH_COPY_STATISTICAL, substream(seed, 2))
    loop = int(_or_rounds_loop(loop_src, members, rounds).sum())
    for count in (batch, loop):
        assert abs(count - rounds * p_or) <= 5.0 * sigma
    assert abs(batch - loop) <= 5.0 * math.sqrt(2.0) * sigma


def test_fresh_source_computes_each_leaf_acceptance_once(monkeypatch):
    # a full search over the 2M deviation detectors of M effects, as shadow
    # tomography builds them: both detectors of an effect, and every
    # amplified threshold and verification over them, share its leaf
    calls = []
    real = ledger.accept_prob
    monkeypatch.setattr(ledger, "accept_prob", lambda e, rho: calls.append(e) or real(e, rho))
    rng = substream(9, 0)
    rho = random_density(2, rng)
    leaves = [random_effect(2, rng) for _ in range(4)]
    detectors = [
        ThresholdEffect(e, 3, t, direction)
        for e in leaves
        for t, direction in ((2, "at_least"), (1, "at_most"))
    ]
    params = SearchParams(c=5.0 / 6.0, epsilon=1.0 / 6.0, delta=0.01)
    for s in range(2):
        calls.clear()
        src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(9, 1 + s))
        for _ in range(2):
            gentle_search(detectors, src, params)
        # the first level's OR decision alone reaches two leaves
        assert len(calls) >= 2
        assert len({id(e) for e in calls}) == len(calls)
        assert all(any(e is leaf for leaf in leaves) for e in calls)


def test_any_of_needs_members_of_one_width_and_fresh_mode():
    e = Effect(np.diag([0.5, 0.0]).astype(complex))
    with pytest.raises(DimensionMismatchError):
        AnyOf((e, ThresholdEffect(e, 2, 1, "at_least")))
    with pytest.raises(DimensionMismatchError):
        AnyOf(())
    any_of = AnyOf([e, e])
    assert unit_width(any_of) == 1 and any_of.members == (e, e)
    fresh = CopySource(mixed_state(), FidelityMode.FRESH_COPY_STATISTICAL, substream(0, 0))
    assert fresh.dispense(0, "x").measure_units(any_of).shape == (0,)
    certain = AnyOf((e, Effect(np.eye(2, dtype=complex))))
    assert fresh.dispense(1, "x").measure_collective(certain)
    # a per-copy store cannot hold the round's entangled collective measurement
    per_copy = CopySource(mixed_state(), FidelityMode.PER_COPY_COLLAPSE, substream(0, 0))
    with pytest.raises(ModeUnsupportedError, match="per-copy store cannot hold"):
        per_copy.dispense(1, "x").measure_units(any_of)
    with pytest.raises(ModeUnsupportedError, match="per-copy store cannot hold"):
        per_copy.dispense(1, "x").measure_collective(any_of)
