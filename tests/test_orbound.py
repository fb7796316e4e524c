"""Tests for the single-copy OR testers and the amplified decision."""

import math
import re

import numpy as np
import pytest

from dense_reference import controlled_or_accept_prob, materialize_threshold
from shadowtomo.errors import ModeUnsupportedError
from shadowtomo.instances import or_promise_instance, random_density, random_effect
from shadowtomo.ledger import CopySource
from shadowtomo.linalg import tensor_power
from shadowtomo.modes import PER_COPY_OR_REASON, FidelityMode
from shadowtomo.orbound import OrBoundParams, or_bound_decide, random_order_or_test
from shadowtomo.quantum import (
    DensityMatrix,
    Effect,
    ThresholdEffect,
    accept_prob,
)
from shadowtomo.rng import substream


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=np.complex128))


def test_params_derived_ell_formula():
    p = OrBoundParams(c=0.9, epsilon=0.5, delta=0.1)
    # ceil(4 ln(max(M,2)) / eps^2), explicit at a few sizes
    assert p.derived_ell(8) == math.ceil(4.0 * math.log(8) / 0.25)
    assert p.derived_ell(1) == math.ceil(4.0 * math.log(2) / 0.25)


def test_params_derived_rounds_formula():
    p = OrBoundParams(c=0.9, epsilon=0.5, delta=0.1)
    assert p.derived_rounds() == math.ceil(48.0 * math.log(10.0))


def test_params_validation():
    with pytest.raises(ValueError):
        OrBoundParams(c=0.5, epsilon=0.6, delta=0.1)  # eps > c
    with pytest.raises(ValueError):
        OrBoundParams(c=0.5, epsilon=0.1, delta=1.5)


def test_controlled_or_certain_effect_exact_lower_bound():
    # single effect with Tr(E rho) = 1: accept prob at least 1/7
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    assert controlled_or_accept_prob([Effect(np.eye(2))], rho) >= 1.0 / 7.0


def test_controlled_or_all_zero_effects_never_accepts():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    effects = [zero_effect(2), zero_effect(2)]
    assert controlled_or_accept_prob(effects, rho) == 0.0


def test_controlled_or_acceptance_bounds_on_random_instances():
    # eps and Delta read off the instance itself, so both bounds must hold
    for s in range(25):
        rng = substream(4, s)
        m = int(rng.integers(1, 5))
        ell = int(rng.integers(1, 4))
        base = random_density(2, rng)
        joint = DensityMatrix(tensor_power(base.mat, ell), atol=1e-8)
        effects = []
        for _ in range(m):
            e = random_effect(2, rng)
            if ell == 1:
                effects.append(e)
            else:
                t = int(rng.integers(1, ell + 1))
                effects.append(materialize_threshold(ThresholdEffect(e, ell, t, "at_least")))
        ps = [accept_prob(e, joint) for e in effects]
        p = controlled_or_accept_prob(effects, joint)
        assert p >= max(ps) ** 2 / 7.0 - 1e-12
        assert p <= 4.0 * sum(ps) + 1e-12


def test_random_order_all_identity_accepts_all_zero_rejects():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    mode = FidelityMode.PER_COPY_COLLAPSE
    assert random_order_or_test([Effect(np.eye(2))] * 3, CopySource(rho, mode, substream(6, 0)))
    assert not random_order_or_test([zero_effect(2)] * 3, CopySource(rho, mode, substream(6, 1)))


@pytest.mark.parametrize("mode", list(FidelityMode))
def test_random_order_debits_one_copy_in_every_mode(mode):
    inst = or_promise_instance(2, 8, 0.9, 0.1, substream(14, 0))
    src = CopySource(inst.rho, mode, substream(14, 1))
    random_order_or_test(list(inst.effects), src)
    assert src.ledger.snapshot()["attribution"] == {"random-order": 1}


def test_or_bound_decide_consumes_exactly_ell_times_rounds():
    rng = substream(7, 0)
    inst = or_promise_instance(2, 4, 0.95, 0.3, rng)
    params = OrBoundParams(c=0.9, epsilon=0.5, delta=0.1)
    src = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(7, 1))
    decision = or_bound_decide(list(inst.effects), src, params)
    ell = params.derived_ell(4)
    rounds = params.derived_rounds()
    assert decision.ell == ell
    assert decision.rounds == rounds
    assert src.ledger.consumed == ell * rounds


def test_or_bound_decide_dispenses_all_rounds_as_one_batch(monkeypatch):
    dispensed = []
    real = CopySource.dispense
    monkeypatch.setattr(
        CopySource, "dispense", lambda src, n, phase: dispensed.append(n) or real(src, n, phase)
    )
    inst = or_promise_instance(2, 4, 0.95, 0.3, substream(16, 0))
    params = OrBoundParams(c=0.9, epsilon=0.5, delta=0.1)
    ell, rounds = params.derived_ell(4), params.derived_rounds()
    fresh = CopySource(inst.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(16, 1))
    or_bound_decide(list(inst.effects), fresh, params)
    assert dispensed == [rounds * ell]
    # a per-copy batch refuses the round it was dispensed for
    per_copy = CopySource(inst.rho, FidelityMode.PER_COPY_COLLAPSE, substream(16, 1))
    with pytest.raises(ModeUnsupportedError, match=re.escape(PER_COPY_OR_REASON)):
        or_bound_decide(list(inst.effects), per_copy, params)
    assert dispensed == [rounds * ell] * 2


def test_or_bound_decide_planted_and_all_below():
    params = OrBoundParams(c=0.9, epsilon=0.5, delta=0.1)
    planted = 0
    below = 0
    for s in range(40):
        rng = substream(8, s)
        inst_hi = or_promise_instance(2, 4, 0.95, 0.3, rng)
        src = CopySource(inst_hi.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(9, s))
        if or_bound_decide(list(inst_hi.effects), src, params).case == "case_i":
            planted += 1
        rng2 = substream(10, s)
        inst_lo = or_promise_instance(2, 4, None, 0.3, rng2)
        src2 = CopySource(inst_lo.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(11, s))
        if or_bound_decide(list(inst_lo.effects), src2, params).case == "case_ii":
            below += 1
    assert planted >= 38
    assert below >= 38


def test_or_bound_decide_certain_effect_case_i():
    # M=1, E=I, c=1: every round accepts
    params = OrBoundParams(c=1.0, epsilon=0.5, delta=0.1)
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(12, 0))
    decision = or_bound_decide([Effect(np.eye(2))], src, params)
    assert decision.case == "case_i"
    assert decision.accept_count == decision.rounds


def test_or_bound_threshold_clamped_into_register_range():
    # 0 < eps <= c <= 1 keeps c - eps/2 in (0, 1), so the threshold
    # ceil((c - eps/2) * ell) always lands in the register range 0..ell;
    # the amplified ThresholdEffect raises on a threshold outside 0..ell+1,
    # so the decision at the edge c = 1 runs
    params = OrBoundParams(c=1.0, epsilon=0.1, delta=0.1)
    rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    src = CopySource(rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(13, 0))
    decision = or_bound_decide([Effect(np.eye(2))], src, params)
    assert decision.case == "case_i"
