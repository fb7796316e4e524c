"""Dense joint-state reference for the copy batches and the OR round.

The tests check the fidelity modes, the threshold kernels and the fresh OR
law against what this module computes on dense matrices under the
dimension cap. It is test support, not a mode a run can select: no shipped
scenario fits a dense joint state under the cap with a guarantee that can
hold. pytest does not collect it; test modules import it by name.

DenseBatch      a block of copies held as one joint density matrix, every
                measurement collapsed on the joint unit by unit in unit order
materialize_threshold, dense_operator
                the dense accepting operator of a threshold measurement
controlled_or_accept_prob
                the exact acceptance of the control-qubit OR test (Harrow,
                Lin and Montanaro, arXiv 1607.03236), whose constants the
                amplified OR decision relies on
"""

from __future__ import annotations

import numpy as np

from shadowtomo import linalg, quantum
from shadowtomo.config import DEGENERATE_BRANCH_PROB, POST_ARITHMETIC_ATOL
from shadowtomo.errors import DegenerateBranchError, DimensionMismatchError
from shadowtomo.ledger import CopyBatch, CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.quantum import DensityMatrix, Effect, Measurement, ThresholdEffect


def materialize_threshold(te: ThresholdEffect) -> Effect:
    """Dense operator of a threshold effect: its spectrum conjugated into the
    leaf eigenbasis, register by register, as U^{⊗w} (U^{⊗w} diag(values))†.

    The operator is checked for Hermiticity, and its spectrum is checked
    from the values it was built from."""
    values, u = quantum.threshold_spectrum(te)
    d, w = u.shape[0], te.width
    half = linalg.conjugate_each_register(np.diag(values), u, d, w)
    op = linalg.conjugate_each_register(half.conj().T, u, d, w)
    return Effect(op, atol=POST_ARITHMETIC_ATOL, eigenvalues=values)


def dense_operator(m: Measurement) -> np.ndarray:
    """Accepting operator of a leaf or threshold `m` as a dense matrix; a
    threshold is materialized under the dimension cap. An OR round has none."""
    if isinstance(m, Effect):
        return np.asarray(m.mat)
    return np.asarray(materialize_threshold(m).mat)


class DenseBatch(CopyBatch):
    """`n_copies` copies of `rho` as one joint density matrix, measured with
    draws from `rng`.

    Every measurement collapses the joint state unit by unit, in unit order,
    under the unit's dense operator at its copies: the Kraus root of a drawn
    branch is taken once per measurement, on the unit's space, and applied
    to the unit's factor of the joint by reshaped matrix products. A
    collective measurement is one unit spanning the batch, and a count is
    one unit per copy. Dimension-capped.

    The batch checks shapes as every CopyBatch does, against a source that
    only carries `rho` and `rng`: nothing is dispensed from it, so its mode
    is never read."""

    def __init__(self, rho: DensityMatrix, n_copies: int, rng):
        super().__init__(CopySource(rho, FidelityMode.PER_COPY_COLLAPSE, rng), n_copies)
        linalg.check_dense_dim(rho.dim**n_copies, "joint copy state")
        if n_copies == 0:
            self._joint = np.eye(1, dtype=np.complex128)
        else:
            self._joint = linalg.tensor_power(rho.mat, n_copies)

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        return bool(self.measure_units(m)[0])

    def measure_units(self, m: Measurement) -> np.ndarray:
        """Raises NotPSDError as `herm_sqrt` does on a drawn branch's unit
        operator, and DegenerateBranchError on drawing a branch of
        probability at most DEGENERATE_BRANCH_PROB."""
        n_units = self._check_units(m)
        op = dense_operator(m)
        span, dim = op.shape[0], self._joint.shape[0]
        roots: dict[bool, np.ndarray] = {}
        out = np.empty(n_units, dtype=bool)
        for u in range(n_units):
            # unit u acts on the middle factor of C^left ⊗ C^span ⊗ C^right
            left = span**u
            right = dim // (left * span)
            blocks = self._joint.reshape(left, span, right, left, span, right)
            p = min(1.0, max(0.0, float(np.real(np.einsum("aibajb,ji->", blocks, op)))))
            accept = bool(self.source.rng.random() < p)
            out[u] = accept
            # only a drawn branch takes its root, so only it can lack one
            if accept not in roots:
                roots[accept] = linalg.herm_sqrt(op if accept else np.eye(span) - op)
            k = roots[accept]
            branch_p = p if accept else 1.0 - p
            if branch_p <= DEGENERATE_BRANCH_PROB:
                raise DegenerateBranchError(f"branch probability {branch_p:.3e}")
            # with K' = I ⊗ K ⊗ I applied to the rows, K' (K' J)† = (K' J K')†,
            # whose Hermitian part is the collapsed state's
            t = (k @ self._joint.reshape(left, span, -1)).reshape(dim, dim)
            t = (k @ t.conj().T.reshape(left, span, -1)).reshape(dim, dim)
            post = linalg.hermitize(t)
            self._joint = post / float(np.real(np.trace(post)))
        return out


_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
_ONE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def _conditional_ops(effects: list[Measurement], dim: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Each effect conditioned on the control being |1>, and the projector
    onto the control's |+> state, all on the control-extended space."""
    linalg.check_dense_dim(2 * dim, "control-extended state")
    ops = []
    for m in effects:
        op = dense_operator(m)
        if op.shape[0] != dim:
            raise DimensionMismatchError("effect dimension does not match the state")
        ops.append(np.kron(_ONE, op))
    return ops, np.kron(_PLUS, np.eye(dim))


def controlled_or_accept_prob(effects: list[Measurement], rho: DensityMatrix) -> float:
    """Exact acceptance probability of the control-qubit OR test on `rho`.

    The test entangles a control prepared in (|0> + |1>)/sqrt(2) with the
    state, applies each effect conditioned on the control being |1>, and
    checks the control in the +/- basis after each one: a rejected
    conditional measurement that still dephased the control is itself
    evidence that some effect fires. It accepts at the first accepting
    measurement or failed check.

    Unnormalized survival walk: reject every conditional measurement and
    observe + at every control check. Acceptance = 1 - final trace.
    """
    dim = rho.dim
    ops, plus_proj = _conditional_ops(effects, dim)
    surv = np.kron(_PLUS, rho.mat)
    for a in ops:
        k = linalg.herm_sqrt(np.eye(2 * dim) - a)
        surv = k @ surv @ k
        surv = plus_proj @ surv @ plus_proj
    return min(1.0, max(0.0, 1.0 - float(np.real(np.trace(surv)))))
