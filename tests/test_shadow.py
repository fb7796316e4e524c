"""Tests for the refinement loop, its derived parameters, and the
promise-gap procedure."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import materialize_threshold
from shadowtomo import linalg
from shadowtomo.config import DEFAULT_CONSTANTS, DEGENERATE_BRANCH_PROB
from shadowtomo.errors import (
    DimensionCapError,
    IterationBoundExceededError,
    ModeUnsupportedError,
)
from shadowtomo.instances import (
    diagonal_gap_instance,
    projector_instance,
    random_effect,
    random_projector,
)
from shadowtomo.ledger import CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import (
    DIRECTIONS,
    DensityMatrix,
    Effect,
    ThresholdEffect,
    threshold_diagonal_values,
    threshold_spectrum,
)
from shadowtomo.rng import substream
from shadowtomo.search import search_budget, SearchParams
from shadowtomo.shadow import (
    Hypothesis,
    build_postselection_effect,
    build_refinement_effects,
    derive_params,
    derived_beta,
    derived_q,
    gap_test_size,
    postselect_hypothesis,
    run_promise_gap,
    run_shadow_tomography,
)


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=np.complex128))


SMALL = dict(d=2, m=4, epsilon=0.25, delta=1.0 / 3.0, q=8)


def small_params(**over):
    kw = dict(SMALL)
    kw.update(over)
    return derive_params(**kw)


def test_derived_q_reference_value():
    # ceil((4 / 0.0625) * (max(ln ln 3, 1) + ln 4)) = ceil(64 * 2.3863) = 153
    assert derived_q(2, 0.25) == 153
    lnln = max(math.log(math.log(3.0)), 1.0)
    assert derived_q(2, 0.25) == math.ceil(4.0 / 0.25**2 * (lnln + math.log(4.0)))


def test_derived_beta_reference_value():
    b = derived_beta(2, 0.25, 1.0 / 3.0)
    assert abs(b - (1.0 / 3.0) * 0.25**4 / math.log(3.0) ** 2) < 1e-18
    assert abs(b - 0.0010788222) < 1e-9


def test_derive_params_defaults_are_theoretical():
    p = derive_params(2, 8, 0.5, 0.1, q=4)
    assert p.non_theoretical  # explicit q override


def test_derive_params_dimension_cap():
    with pytest.raises(DimensionCapError):
        derive_params(2, 8, 0.25, 0.1, q=20)


def test_derive_params_bookkeeping():
    # the inner search always runs at the fixed promise/find bars 5/6, 2/3
    p = small_params()
    sp = SearchParams(c=5.0 / 6.0, epsilon=5.0 / 6.0 - 2.0 / 3.0, delta=p.beta)
    assert p.ell_search == search_budget(2 * p.m, sp)
    assert p.t_bound == math.ceil(
        DEFAULT_CONSTANTS.c_t * p.q * math.log(p.d) / p.epsilon
    )
    assert p.k_pred == p.t_bound * p.q * p.ell_search


def test_operating_point_realizes_log4m_logd_eps5(monkeypatch):
    # derive_params at the derived q, with no trials: the dense cap guards a
    # hypothesis this test never builds, so it is lifted here. Each check
    # fails if a formula change moves an exponent.
    from shadowtomo import linalg

    monkeypatch.setattr(linalg, "check_dense_dim", lambda dim, what: None)

    def k_pred(d=2, m=8, epsilon=0.25):
        return derive_params(d, m, epsilon, 1.0 / 3.0).k_pred

    assert k_pred() == 2_298_733_151_346  # q*=153, T bound 3,394
    # log⁴M: k_pred / log₂(2M)⁴ stays in one band (up to a ln ln M factor)
    # from M=2 to 2²⁰; log⁵M would grow it 21-fold. The band's low edge is
    # 0.884e10, at M=4.
    ratios = [k_pred(m=2**j) / math.log2(2 ** (j + 1)) ** 4 for j in range(1, 21)]
    assert 0.88e10 <= min(ratios) and max(ratios) <= 1.18e10
    # ε⁻⁵ up to logs, one power above the abstract's ε⁻⁴: the local slope of
    # ln k_pred against ln(1/ε) at M=8 falls towards 5 as ε shrinks
    slopes = [
        math.log(k_pred(epsilon=lo) / k_pred(epsilon=hi)) / math.log(hi / lo)
        for hi, lo in ((0.4, 0.3), (0.25, 0.2), (0.15, 0.1), (0.1, 0.05))
    ]
    assert slopes == pytest.approx([6.54, 6.25, 6.00, 5.85], abs=0.01)
    # log D up to logs: q* grows from 153 to 199 between D=2 and D=256, and
    # k_pred / (q*² ln D) moves only through ell_search's ln ln D
    dims = (2, 4, 16, 64, 256)
    points = [derive_params(d, 8, 0.25, 1.0 / 3.0) for d in dims]
    assert [p.q for p in points] == [153, 153, 154, 180, 199]
    assert points[-1].k_pred == pytest.approx(4.33e13, rel=1e-3)
    per_log_d = [p.k_pred / (p.q**2 * math.log(p.d)) for p in points]
    assert per_log_d == sorted(per_log_d)
    assert 1.4e8 <= per_log_d[0] and per_log_d[-1] <= 2.0e8


def _state(h):
    """The hypothesis state B^{⊗q} V V† B^{⊗q}† as a dense matrix."""
    if h.factor is None:
        return np.eye(h.d**h.q, dtype=np.complex128) / h.d**h.q
    w = linalg.conjugate_each_register(h.factor, h.basis, h.d, h.q)
    return w @ w.conj().T


def test_hypothesis_initial_is_maximally_mixed():
    h = Hypothesis.initial(2, 3)
    assert h.factor is None  # the factor-free I/D^q, allocating nothing
    assert np.allclose(_state(h), np.eye(8) / 8.0)
    assert np.allclose(h.reduced, np.eye(2) / 2.0)
    assert h.p == 1.0


def test_hypothesis_value_of_projector_on_mixed_state():
    # the hypothesis values are the target effects' traces against the
    # reduced state, read for all targets in one stacked product
    h = Hypothesis.initial(2, 4)
    rng = substream(0, 0)
    effects = [random_projector(2, 1, rng), Effect(np.eye(2)), zero_effect(2)]
    mats = np.stack([e.mat for e in effects])
    values = np.real(np.trace(mats @ h.reduced, axis1=1, axis2=2))
    assert abs(values[0] - 0.5) < 1e-12
    assert values[1] == 1.0
    assert values[2] == 0.0


def test_refinement_thresholds_reference_values():
    p = small_params(q=10, epsilon=0.4)
    e = Effect(np.eye(2))
    plus, minus = build_refinement_effects(e, 0.5, p)
    assert plus.threshold == 8 and plus.direction == "at_least"
    assert minus.threshold == 2 and minus.direction == "at_most"


def test_refinement_thresholds_out_of_range_never_accept():
    p = small_params(q=8)
    e = Effect(np.eye(2))
    plus, minus = build_refinement_effects(e, 1.0, p)
    # at v=1 the plus detector demands more accepts than registers exist
    assert plus.threshold == p.q + 1
    plus0, minus0 = build_refinement_effects(e, 0.0, p)
    assert minus0.threshold == -1


def test_postselection_thresholds_sit_inside_detectors():
    p = small_params(q=8, epsilon=0.25)
    e = Effect(np.eye(2))
    v = 0.5
    plus, minus = build_refinement_effects(e, v, p)
    post_plus = build_postselection_effect(e, v, "+", p)
    post_minus = build_postselection_effect(e, v, "-", p)
    assert post_plus.threshold <= plus.threshold
    assert post_minus.threshold >= minus.threshold
    with pytest.raises(ValueError):
        build_postselection_effect(e, v, "x", p)


def test_postselect_hypothesis_matches_dense_conjugation():
    # fast eigenbasis update vs explicitly materializing the threshold
    rng = substream(1, 0)
    d, q = 2, 3
    p = small_params(d=d, q=q, m=2)
    h = Hypothesis.initial(d, q)
    e = random_effect(d, rng)
    f = build_postselection_effect(e, 0.5, "+", p)
    # build_* uses params.q registers; rebuild at q=3 for the dense oracle
    f3 = ThresholdEffect(base=e, registers=q, threshold=2, direction="at_least")
    updated = postselect_hypothesis(h, f3)
    dense = np.asarray(materialize_threshold(f3).mat)
    root = linalg.herm_sqrt(dense)
    want = root @ _state(h) @ root
    p_acc = float(np.real(np.trace(dense @ _state(h))))
    want = want / np.trace(want)
    assert np.allclose(_state(updated), want, atol=1e-8)
    assert abs(updated.p - p_acc) < 1e-10


def _two_conjugation_update(amplified, f, d, q):
    """The dense update without a tracked frame: conjugate the state into
    the effect's eigenbasis, scale it there, and conjugate it back."""
    evals, u = linalg.eigh_spectrum(np.asarray(f.base.mat))
    fvals = threshold_diagonal_values(evals, q, f.threshold, f.direction)
    big = linalg.tensor_power(u, q)
    sigma = big.conj().T @ amplified @ big
    p_acc = float(np.real(np.sum(fvals * np.diagonal(sigma))))
    if p_acc <= DEGENERATE_BRANCH_PROB:
        return None, p_acc
    root = np.sqrt(fvals)
    sigma = sigma * root[:, None] * root[None, :] / p_acc
    return linalg.hermitize(big @ sigma @ big.conj().T), p_acc


def _dense_average_trace(state, d, q):
    """Average of the q single-register partial traces of a dense state."""
    t = [state.reshape(d**k, d, d ** (q - k - 1), d**k, d, d ** (q - k - 1)) for k in range(q)]
    return sum(np.einsum("aibajb->ij", x) for x in t) / q


@pytest.mark.parametrize(
    "d, q", [(d, q) for d in (2, 3, 4) for q in range(1, 9) if d**q <= 256]
)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from(DIRECTIONS), st.sampled_from((1.0, 0.05))),
        min_size=1,
        max_size=6,
    ),
)
def test_frame_tracked_update_matches_two_conjugation_update(d, q, seed, steps):
    # A scale of 0.05 on the effect makes low-probability updates. Each
    # update divides the state by its acceptance probability, so rounding
    # drift grows as 1/p of the least likely step so far. Over 10,030 random
    # steps drawn as here, the drift of the factor form times that p stayed
    # within 2.0 ulps in the state, 12 in `reduced` and 21 in p (relative);
    # the bound is 100.
    rng = substream(seed, 0)
    h = Hypothesis.initial(d, q)
    state, p = _state(h), 1.0
    smallest = 1.0
    for t, direction, scale in steps:
        f = ThresholdEffect(Effect(random_effect(d, rng).mat * scale), q, min(t, q), direction)
        want, p_acc = _two_conjugation_update(state, f, d, q)
        if p_acc <= DEGENERATE_BRANCH_PROB:
            break
        h = postselect_hypothesis(h, f)
        state, p = want, p * p_acc
        smallest = min(smallest, p_acc)
        tol = 100 * np.finfo(float).eps / smallest
        np.testing.assert_allclose(_state(h), state, rtol=0, atol=tol)
        reduced = _dense_average_trace(state, d, q)
        np.testing.assert_allclose(h.reduced, reduced, rtol=0, atol=tol)
        assert h.p == pytest.approx(p, rel=tol, abs=0)


@pytest.mark.parametrize("d, q", [(2, 4), (2, 6), (3, 3), (4, 3)])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from(DIRECTIONS), st.booleans()),
        min_size=1,
        max_size=6,
    ),
)
def test_factor_columns_never_grow_and_zeroed_rows_stay_zero(d, q, seed, steps):
    # Diagonal 0/1 effects give threshold spectra with exact zeros, so the
    # factor loses rows and is refactored by QR; Haar-rotated projectors
    # change the frame between those steps. Each update is also checked
    # against the dense two-conjugation update.
    rng = substream(seed, 0)
    h = Hypothesis.initial(d, q)
    state, smallest, columns = _state(h), 1.0, d**q
    for t, direction, diagonal in steps:
        if diagonal:
            base = Effect(np.diag(rng.integers(0, 2, size=d)).astype(np.complex128))
        else:
            base = random_projector(d, int(rng.integers(1, d)), rng)
        f = ThresholdEffect(base, q, min(t, q), direction)
        want, p_acc = _two_conjugation_update(state, f, d, q)
        if p_acc <= DEGENERATE_BRANCH_PROB:
            break
        h = postselect_hypothesis(h, f)
        fvals, _ = threshold_spectrum(f)
        assert h.factor.shape[0] == d**q
        assert h.factor.shape[1] <= min(columns, np.count_nonzero(fvals))
        assert not np.any(h.factor[fvals == 0.0])
        columns = h.factor.shape[1]
        state, smallest = want, min(smallest, p_acc)
        tol = 100 * np.finfo(float).eps / smallest
        np.testing.assert_allclose(_state(h), state, rtol=0, atol=tol)


def test_shadow_trivial_instance_halts_immediately():
    # maximally mixed truth matches the initial hypothesis: no detector fires
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    effects = [Effect(np.eye(2)), zero_effect(2)]
    p = small_params(m=2)
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(2, 0))
    run = run_shadow_tomography(effects, src, p)
    assert run.transcript.t_final == 0
    assert len(run.transcript.steps) == 0
    assert abs(run.estimates[0] - 1.0) < 0.25
    assert abs(run.estimates[1] - 0.0) < 0.25


def test_shadow_estimates_within_epsilon_on_projectors():
    hits = 0
    for s in range(6):
        rng = substream(3, s)
        inst = projector_instance(2, 4, rng)
        p = small_params()
        src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(4, s))
        run = run_shadow_tomography(list(inst.effects), src, p)
        err = max(
            abs(est - truth) for est, truth in zip(run.estimates, inst.ground_truth)
        )
        hits += err <= p.epsilon
    assert hits >= 4


def test_shadow_transcript_markov_decay_and_floor():
    rng = substream(5, 0)
    inst = projector_instance(2, 4, rng)
    p = small_params()
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(5, 1))
    run = run_shadow_tomography(list(inst.effects), src, p)
    eps = p.epsilon
    for step in run.transcript.steps:
        v = step.hypothesis_value
        if step.sign == "+":
            bound = v / (v + eps / 4.0)
        else:
            bound = (1.0 - v) / (1.0 - v + eps / 4.0)
        assert step.p_after <= step.p_before * bound + 1e-9
    if run.transcript.steps:
        final_p = run.transcript.steps[-1].p_after
        assert 0.0 < final_p <= 1.0


def test_shadow_transcript_serialization_field_set():
    rng = substream(6, 0)
    inst = projector_instance(2, 4, rng)
    p = small_params()
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(6, 1))
    run = run_shadow_tomography(list(inst.effects), src, p)
    doc = run.transcript.as_dict()
    assert set(doc) == {"steps", "halt_reason", "T"}
    for step in doc["steps"]:
        assert set(step) == {
            "iteration",
            "index",
            "sign",
            "p_before",
            "p_after",
            "copies_debited",
            "bar_values",
        }
    json.dumps(doc)  # serializable as-is


def test_shadow_consumption_within_prediction():
    rng = substream(7, 0)
    inst = projector_instance(2, 4, rng)
    p = small_params()
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(7, 1))
    run = run_shadow_tomography(list(inst.effects), src, p)
    assert run.copies_consumed == src.ledger.consumed
    assert run.copies_consumed <= p.k_pred
    assert run.transcript.t_final <= p.t_bound


def test_shadow_iteration_bound_error():
    from dataclasses import replace

    rng = substream(8, 0)
    inst = projector_instance(2, 4, rng)
    p = replace(small_params(), t_bound=1)
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(8, 1))
    with pytest.raises(IterationBoundExceededError):
        run_shadow_tomography(list(inst.effects), src, p)


def test_gap_test_size_formula():
    assert gap_test_size(16, 0.2, 0.1) == math.ceil(8.0 * math.log(160.0) / 0.04)


def test_run_promise_gap_decides_all_sides():
    rng = substream(9, 0)
    inst, cutoffs = diagonal_gap_instance(4, 8, 0.2, rng)
    src = CopySource(inst.rho, FidelityMode.PER_COPY_COLLAPSE, substream(9, 1))
    decisions = run_promise_gap(list(inst.effects), cutoffs, 0.2, 0.1, src)
    want = ["above" if s == "above" else "below" for s in inst.metadata["sides"]]
    assert decisions == want
    assert src.ledger.consumed == gap_test_size(8, 0.2, 0.1)


def test_run_promise_gap_rejects_fresh_mode():
    rng = substream(10, 0)
    inst, cutoffs = diagonal_gap_instance(4, 4, 0.2, rng)
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(10, 1))
    with pytest.raises(ModeUnsupportedError):
        run_promise_gap(list(inst.effects), cutoffs, 0.2, 0.1, src)


def test_run_promise_gap_empty_effect_list():
    rho = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    src = CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, substream(11, 0))
    assert run_promise_gap([], [], 0.2, 0.1, src) == []
