"""Tests for the conjugate-coding money demo instance."""

import itertools

import numpy as np

from shadowtomo.money import WiesnerInstance, all_keys, key_state, make_wiesner_instance
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
    wi, inst = make_wiesner_instance(2, substream(0, 0))
    assert isinstance(wi, WiesnerInstance)
    assert len(inst.effects) == 16
    idx = wi.true_key_index
    assert inst.metadata["true_key_index"] == idx
    # the true verifier accepts the bill with certainty
    assert abs(inst.ground_truth[idx] - 1.0) < 1e-12
    # every ground-truth entry is the key overlap
    for j, key in enumerate(wi.keys):
        assert abs(inst.ground_truth[j] - key_overlap(wi.true_key, key)) < 1e-12
        assert abs(accept_prob(inst.effects[j], inst.rho) - inst.ground_truth[j]) < 1e-10


def test_make_wiesner_instance_deterministic():
    a_wi, a_inst = make_wiesner_instance(2, substream(1, 0))
    b_wi, b_inst = make_wiesner_instance(2, substream(1, 0))
    assert a_wi.true_key == b_wi.true_key
    assert np.allclose(a_inst.rho.mat, b_inst.rho.mat)
