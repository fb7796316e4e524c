"""Conjugate-coding quantum money as a tomography target.

A bill over d qubits encodes a secret key in {0,1,2,3}^d: symbol 0 or 1
prepares the qubit as |0> or |1>, symbol 2 or 3 as |+> or |->. Each of the
4^d candidate keys has a rank-1 verifier projecting onto its bill state,
and a verifier's acceptance on a fixed bill factors over qubits: 1 per
matching symbol, 0 for a computational-basis mismatch, 1/2 per basis
mismatch. The true key is the unique verifier with acceptance 1, so
estimating all 4^d acceptance probabilities to within a constant from few
bill copies is exactly the counterfeiting resource question.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import CONSTRUCTION_ATOL
from .instances import Instance, make_instance
from .quantum import DensityMatrix, Effect

_SQ = 1.0 / np.sqrt(2.0)
_QUBIT_STATES = (
    np.array([1.0, 0.0], dtype=np.complex128),
    np.array([0.0, 1.0], dtype=np.complex128),
    np.array([_SQ, _SQ], dtype=np.complex128),
    np.array([_SQ, -_SQ], dtype=np.complex128),
)


def key_state(key: tuple[int, ...]) -> np.ndarray:
    """Pure bill state for a key, first symbol on the slowest qubit."""
    v = np.array([1.0], dtype=np.complex128)
    for symbol in key:
        v = np.kron(v, _QUBIT_STATES[symbol])
    return v


def all_keys(d_qubits: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(4), repeat=d_qubits))


@dataclass(frozen=True)
class WiesnerInstance:
    d_qubits: int
    true_key: tuple[int, ...]
    true_key_index: int
    keys: tuple[tuple[int, ...], ...]


def make_wiesner_instance(
    d_qubits: int, rng: np.random.Generator
) -> tuple[WiesnerInstance, Instance]:
    """A random bill plus the complete bank of 4^d verifiers.

    The tomography instance's state is the bill and its effects are every
    candidate verifier in lexicographic key order; metadata records which
    index is the minted key.
    """
    if d_qubits < 1:
        raise ValueError("need at least one qubit")
    keys = all_keys(d_qubits)
    idx = int(rng.integers(len(keys)))
    true_key = keys[idx]
    bill = key_state(true_key)
    rho = DensityMatrix(np.outer(bill, bill.conj()), atol=CONSTRUCTION_ATOL)
    effects = []
    for key in keys:
        v = key_state(key)
        effects.append(Effect(np.outer(v, v.conj()), atol=CONSTRUCTION_ATOL))
    instance = make_instance(rho, effects, {"kind": "wiesner", "true_key_index": idx})
    wiesner = WiesnerInstance(d_qubits, true_key, idx, tuple(keys))
    return wiesner, instance
