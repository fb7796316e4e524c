"""Conjugate-coding quantum money as a tomography target.

A bill over d qubits encodes a secret key in {0,1,2,3}^d: symbol 0 or 1
prepares the qubit as |0> or |1>, symbol 2 or 3 as |+> or |->. Each of the
4^d candidate keys has a rank-1 verifier projecting onto its bill state,
and a verifier's acceptance on a fixed bill factors over qubits: 1 per
matching symbol, 0 for a computational-basis mismatch, 1/2 per basis
mismatch. The true key is the unique verifier with acceptance 1, so
estimating all 4^d acceptance probabilities to within a constant from few
bill copies is exactly the counterfeiting resource question.

The 4^d keys, bill states and verifier effects depend only on d, so they
are built once per qubit count, on the first instance drawn at that count,
and every instance shares them. All of them are immutable: the keys are
tuples, and every state and effect is frozen with a read-only matrix. A
copy source memoizes acceptances per source, so sharing the effects shares
no acceptance between bills.
"""

from __future__ import annotations

import functools
import itertools
import numpy as np

from .config import CONSTRUCTION_ATOL
from .instances import Instance
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


@functools.lru_cache(maxsize=2)
def _verifier_bank(
    d_qubits: int,
) -> tuple[tuple[tuple[int, ...], ...], tuple[DensityMatrix, ...], tuple[Effect, ...]]:
    """Every key, its bill state and its verifier, in lexicographic key
    order. The bill and the verifier of a key are the same projector, once
    as a state and once as an effect."""
    keys = tuple(all_keys(d_qubits))
    projectors = [np.outer(v, v.conj()) for v in map(key_state, keys)]
    bills = tuple(DensityMatrix(p, atol=CONSTRUCTION_ATOL) for p in projectors)
    verifiers = tuple(Effect(p, atol=CONSTRUCTION_ATOL) for p in projectors)
    return keys, bills, verifiers


def make_wiesner_instance(d_qubits: int, rng: np.random.Generator) -> Instance:
    """A random bill plus the complete bank of 4^d verifiers.

    The instance's state is the bill and its effects are every candidate
    verifier in the key order of all_keys(d_qubits); metadata["true_key_index"]
    is the position of the minted key, whose verifier accepts with
    certainty. Only that index is drawn per instance: the states and
    verifiers are the shared, immutable bank for d_qubits.
    """
    if d_qubits < 1:
        raise ValueError("need at least one qubit")
    keys, bills, verifiers = _verifier_bank(d_qubits)
    idx = int(rng.integers(len(keys)))
    return Instance(bills[idx], list(verifiers), {"true_key_index": idx})
