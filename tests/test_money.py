"""Tests for the conjugate-coding money demo instance."""

import itertools

import numpy as np
import pytest

from shadowtomo.ledger import CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.money import all_keys, key_state, make_wiesner_instance
from shadowtomo.quantum import accept_prob
from shadowtomo.rng import substream


def key_overlap(key_a: tuple[int, ...], key_b: tuple[int, ...]) -> float:
    """|<bill_a|bill_b>|^2, a product of per-qubit overlaps."""
    out = 1.0
    for a, b in zip(key_a, key_b):
        if a == b:
            continue
        if (a < 2) == (b < 2):
            return 0.0  # same basis, opposite bit
        out *= 0.5
    return out


def test_single_symbol_states():
    s0 = key_state((0,))
    s1 = key_state((1,))
    sp = key_state((2,))
    sm = key_state((3,))
    assert np.allclose(s0, [1, 0])
    assert np.allclose(s1, [0, 1])
    assert np.allclose(sp, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(sm, [1 / np.sqrt(2), -1 / np.sqrt(2)])


def test_key_state_tensor_order():
    got = key_state((0, 2))
    want = np.kron(key_state((0,)), key_state((2,)))
    assert np.allclose(got, want)


def test_key_overlap_reference_values():
    assert key_overlap((0, 2), (0, 2)) == 1.0
    assert key_overlap((0, 0), (1, 0)) == 0.0  # same basis, one bit differs
    assert abs(key_overlap((0, 0), (2, 0)) - 0.5) < 1e-15  # one basis differs
    assert abs(key_overlap((2, 3), (0, 1)) - 0.25) < 1e-15  # both bases differ


def test_key_overlap_matches_state_inner_products():
    for a in itertools.product(range(4), repeat=2):
        va = key_state(a)
        for b in itertools.product(range(4), repeat=2):
            vb = key_state(b)
            want = abs(np.vdot(va, vb)) ** 2
            assert abs(key_overlap(a, b) - want) < 1e-12, (a, b)


def test_all_keys_enumeration():
    keys = all_keys(2)
    assert len(keys) == 16
    assert keys[0] == (0, 0)
    assert keys[-1] == (3, 3)
    assert len(set(keys)) == 16


def test_make_wiesner_instance_ground_truth():
    inst = make_wiesner_instance(2, substream(0, 0))
    keys = all_keys(2)
    assert len(inst.effects) == 16
    idx = inst.metadata["true_key_index"]
    # the bill is the minted key's state, and its verifier accepts it with certainty
    bill = key_state(keys[idx])
    assert np.allclose(inst.rho.mat, np.outer(bill, bill.conj()))
    assert abs(inst.ground_truth[idx] - 1.0) < 1e-12
    # every ground-truth entry is the key overlap
    for j, key in enumerate(keys):
        assert abs(inst.ground_truth[j] - key_overlap(keys[idx], key)) < 1e-12
        assert abs(accept_prob(inst.effects[j], inst.rho) - inst.ground_truth[j]) < 1e-10


def test_make_wiesner_instance_deterministic():
    a_inst = make_wiesner_instance(2, substream(1, 0))
    b_inst = make_wiesner_instance(2, substream(1, 0))
    assert a_inst.metadata == b_inst.metadata
    assert np.allclose(a_inst.rho.mat, b_inst.rho.mat)


def _instance_with_key(index, seed):
    """The first instance, over trials of `seed`, whose minted key is `index`."""
    for t in range(1000):
        inst = make_wiesner_instance(2, substream(seed, t))
        if inst.metadata["true_key_index"] == index:
            return inst
    raise AssertionError(f"no trial minted key {index}")


def test_instances_share_one_read_only_verifier_bank():
    a = make_wiesner_instance(2, substream(2, 0))
    b = make_wiesner_instance(2, substream(3, 0))
    assert len(a.effects) == 16
    assert all(x is y for x, y in zip(a.effects, b.effects))
    for e in a.effects:
        assert not e.mat.flags.writeable
        with pytest.raises(ValueError):
            e.mat[0, 0] = 0.0


def test_sources_over_shared_verifiers_report_their_own_bill():
    # key (0, 0) and key (1, 0) differ in one computational-basis bit, so
    # each bill's verifier accepts the other bill with probability 0; every
    # verifier accepting a bill with certainty or never is then drawn
    # deterministically, and a memo shared across sources would show
    n = 200
    insts = [_instance_with_key(0, 4), _instance_with_key(4, 4)]
    assert insts[0].effects is not insts[1].effects
    assert all(x is y for x, y in zip(*(i.effects for i in insts)))
    sources = [
        CopySource(i.rho, FidelityMode.FRESH_COPY_STATISTICAL, substream(5, k))
        for k, i in enumerate(insts)
    ]
    for inst, source in zip(insts, sources):
        certain = [(e, v) for e, v in zip(inst.effects, inst.ground_truth) if v in (0.0, 1.0)]
        assert len(certain) >= 2
        for e, v in certain:
            assert source.dispense(n, "test").measure_count(e) == n * v
    assert insts[0].ground_truth[0] == 1.0 and insts[1].ground_truth[0] == 0.0
