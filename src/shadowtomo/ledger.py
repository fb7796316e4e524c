"""Copy accounting and the dispensing firewall around the unknown state.

Algorithms under test never read the true state or its exact acceptance
values. They obtain copies from a CopySource, which debits a monotone ledger
with per-phase attribution and hands back a batch object whose only outputs
are sampled measurement outcomes. Classical arithmetic on the algorithm's own
hypothesis is free and never touches the ledger.

The explicitly labeled ground-truth oracle on CopySource exists for
validation and reporting only; production estimation paths must not call it.

In fresh_copy_statistical mode a CopySource memoizes each measurement's
per-unit acceptance probability, keyed by object identity. This is sound
because that mode never changes the hidden state, the state is immutable, and
every Effect and ThresholdEffect is frozen: the same object always has the
same acceptance. The memo only skips recomputation: every dispense still
debits the ledger, and every measurement still checks its shape and draws its
uniforms as before, so no random draw changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_DIM_CAP
from .errors import BudgetExhaustedError, DimensionCapError, DimensionMismatchError, ModeUnsupportedError
from .modes import FidelityMode
from .quantum import (
    DensityMatrix,
    Effect,
    Measurement,
    accept_prob,
    collapse,
    leaf_effect,
    threshold_accept_prob,
    unit_width,
)
from .config import POST_ARITHMETIC_ATOL
from . import linalg


@dataclass
class CopyLedger:
    """Monotone counter of consumed copies with per-phase attribution."""

    budget: int | None = None
    consumed: int = 0
    attribution: dict[str, int] = field(default_factory=dict)

    def debit(self, n: int, phase: str) -> None:
        if n < 0:
            raise ValueError("cannot debit a negative copy count")
        if self.budget is not None and self.consumed + n > self.budget:
            raise BudgetExhaustedError(n, self.snapshot())
        self.consumed += n
        self.attribution[phase] = self.attribution.get(phase, 0) + n

    def snapshot(self) -> dict:
        return {
            "budget": self.budget,
            "consumed": self.consumed,
            "attribution": dict(self.attribution),
        }


class CopySource:
    """Dispenses copies of a hidden state in a chosen fidelity mode."""

    def __init__(
        self,
        true_state: DensityMatrix,
        mode: FidelityMode,
        rng: np.random.Generator,
        budget: int | None = None,
        dim_cap: int = DEFAULT_DIM_CAP,
    ):
        self._true_state = true_state
        self.mode = FidelityMode(mode)
        self.rng = rng
        self.ledger = CopyLedger(budget=budget)
        self.dim_cap = dim_cap
        # fresh mode's per-unit acceptance by id(measurement); an entry holds
        # its measurement, so the id cannot be reused while the source lives
        self._unit_probs: dict[int, tuple[Measurement, float]] = {}

    @property
    def dim(self) -> int:
        return self._true_state.dim

    def dispense(self, n_copies: int, phase: str) -> "CopyBatch":
        if n_copies < 0:
            raise ValueError("cannot dispense a negative copy count")
        self.ledger.debit(n_copies, phase)
        if self.mode is FidelityMode.FRESH_COPY_STATISTICAL:
            return StatisticalBatch(self, n_copies)
        if self.mode is FidelityMode.PER_COPY_COLLAPSE:
            return PerCopyBatch(self, n_copies)
        return ExactBatch(self, n_copies)

    def ground_truth_accept_prob(self, m: Measurement) -> float:
        """VALIDATION ONLY: exact acceptance of `m` per unit, from the hidden
        state. Never call this from an estimation algorithm."""
        return threshold_accept_prob(m, accept_prob(leaf_effect(m), self._true_state))


class CopyBatch:
    """A dispensed block of copies. Outcomes only; no probabilities leak out.

    measure_collective  apply `m` once, spanning the whole batch
    measure_units       apply `m` once per unit-width slice of the batch
    measure_count       apply a single-copy effect to every copy, return the
                        number of accepts
    """

    def __init__(self, source: CopySource, n_copies: int):
        self.source = source
        self.n_copies = n_copies

    def _check_collective(self, m: Measurement) -> None:
        if unit_width(m) != self.n_copies:
            raise DimensionMismatchError(
                f"measurement spans {unit_width(m)} copies, batch holds {self.n_copies}"
            )

    def _check_units(self, m: Measurement) -> int:
        w = unit_width(m)
        if self.n_copies % w != 0:
            raise DimensionMismatchError(
                f"batch of {self.n_copies} copies does not divide into units of {w}"
            )
        return self.n_copies // w

    def measure_collective(self, m: Measurement) -> bool:
        raise NotImplementedError

    def measure_units(self, m: Measurement) -> np.ndarray:
        raise NotImplementedError

    def measure_count(self, e: Effect) -> int:
        raise NotImplementedError


class StatisticalBatch(CopyBatch):
    """fresh_copy_statistical: outcomes drawn from exact product statistics.

    No state is tracked, so repeated measurements of the same copies are
    independent draws; back-action is idealized away by construction.

    Every probability is read through the source's memo: with no tracked
    state, an immutable hidden state and frozen measurements, a measurement's
    acceptance is computed once per source. The memo changes no draw.
    """

    def _unit_prob(self, m: Measurement) -> float:
        memo = self.source._unit_probs
        entry = memo.get(id(m))
        if entry is None:
            v = accept_prob(leaf_effect(m), self.source._true_state)
            entry = memo[id(m)] = (m, threshold_accept_prob(m, v))
        return entry[1]

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        return bool(self.source.rng.random() < self._unit_prob(m))

    def measure_units(self, m: Measurement) -> np.ndarray:
        n_units = self._check_units(m)
        p = self._unit_prob(m)
        return self.source.rng.random(n_units) < p

    def measure_count(self, e: Effect) -> int:
        return int(self.source.rng.binomial(self.n_copies, self._unit_prob(e)))


class PerCopyBatch(CopyBatch):
    """per_copy_collapse: each copy is a tracked single-copy state; collective
    thresholds are realized as per-copy collapse plus classical counting."""

    def __init__(self, source: CopySource, n_copies: int):
        super().__init__(source, n_copies)
        # (n, d, d) stack of per-copy states
        self._states = np.broadcast_to(
            source._true_state.mat, (n_copies, source.dim, source.dim)
        ).copy()

    def _measure_copies(self, e: Effect, idx: np.ndarray) -> np.ndarray:
        """Collapse every copy in `idx` under `e`; returns accept booleans."""
        mats = self._states[idx]
        probs = np.real(np.einsum("kij,ji->k", mats, np.asarray(e.mat)))
        probs = np.clip(probs, 0.0, 1.0)
        accepts = self.source.rng.random(len(idx)) < probs
        k_acc = linalg.herm_sqrt(np.asarray(e.mat))
        k_rej = linalg.herm_sqrt(np.eye(e.dim) - np.asarray(e.mat))
        for flag, k, p in ((True, k_acc, probs), (False, k_rej, 1.0 - probs)):
            sel = np.flatnonzero(accepts == flag)
            if sel.size == 0:
                continue
            post = np.einsum("ij,kjl,lm->kim", k, mats[sel], k)
            denom = np.maximum(p[sel], 1e-300)[:, None, None]
            self._states[idx[sel]] = (post + np.conj(np.transpose(post, (0, 2, 1)))) / (2 * denom)
        return accepts

    def _apply_nested(self, m: Measurement, idx: np.ndarray) -> bool:
        if isinstance(m, Effect):
            assert len(idx) == 1
            return bool(self._measure_copies(m, idx)[0])
        w = unit_width(m.base)
        outcomes = [
            self._apply_nested(m.base, idx[r * w : (r + 1) * w]) for r in range(m.registers)
        ]
        count = sum(outcomes)
        return count >= m.threshold if m.direction == "at_least" else count <= m.threshold

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        if isinstance(m, Effect):
            return bool(self._measure_copies(m, np.arange(1))[0])
        if isinstance(m.base, Effect):
            # flat threshold: one vectorized sweep over all copies
            outcomes = self._measure_copies(m.base, np.arange(self.n_copies))
            count = int(outcomes.sum())
            return count >= m.threshold if m.direction == "at_least" else count <= m.threshold
        return self._apply_nested(m, np.arange(self.n_copies))

    def measure_units(self, m: Measurement) -> np.ndarray:
        n_units = self._check_units(m)
        w = unit_width(m)
        if isinstance(m, Effect):
            return self._measure_copies(m, np.arange(self.n_copies))
        idx = np.arange(self.n_copies)
        out = np.empty(n_units, dtype=bool)
        for u in range(n_units):
            out[u] = self._apply_nested(m, idx[u * w : (u + 1) * w])
        return out

    def measure_count(self, e: Effect) -> int:
        return int(self._measure_copies(e, np.arange(self.n_copies)).sum())


class ExactBatch(CopyBatch):
    """exact_tensor: the whole batch is one joint density matrix and every
    measurement is a canonical collapse on it. Dimension-capped."""

    def __init__(self, source: CopySource, n_copies: int):
        super().__init__(source, n_copies)
        joint_dim = source.dim**n_copies
        if joint_dim > source.dim_cap:
            raise DimensionCapError(joint_dim, source.dim_cap, "joint copy state")
        if n_copies == 0:
            self._joint = np.eye(1, dtype=np.complex128)
        else:
            self._joint = linalg.tensor_power(source._true_state.mat, n_copies, source.dim_cap)

    def as_density_matrix(self) -> DensityMatrix:
        """Current joint state of the batch (simulation substrate)."""
        return DensityMatrix(self._joint, atol=POST_ARITHMETIC_ATOL)

    def set_state(self, state: DensityMatrix) -> None:
        """Write back a post-measurement joint state produced by a caller that
        simulated its own measurement chain on as_density_matrix()."""
        if state.dim != self._joint.shape[0]:
            raise DimensionMismatchError("joint state dimension changed")
        self._joint = np.asarray(state.mat).copy()

    def _materialize(self, m: Measurement) -> np.ndarray:
        from .quantum import materialize_threshold

        if isinstance(m, Effect):
            return np.asarray(m.mat)
        return np.asarray(materialize_threshold(m, self.source.dim_cap).mat)

    def _embed(self, op: np.ndarray, offset_copies: int, span: int) -> np.ndarray:
        d = self.source.dim
        left = np.eye(d**offset_copies)
        right = np.eye(d ** (self.n_copies - offset_copies - span))
        return np.kron(np.kron(left, op), right)

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        op = self._materialize(m)
        p = float(np.real(np.trace(op @ self._joint)))
        p = min(1.0, max(0.0, p))
        accept = bool(self.source.rng.random() < p)
        _, self._joint = collapse(self._joint, op, accept)
        return accept

    def measure_units(self, m: Measurement) -> np.ndarray:
        n_units = self._check_units(m)
        w = unit_width(m)
        op = self._materialize(m)
        out = np.empty(n_units, dtype=bool)
        for u in range(n_units):
            big = self._embed(op, u * w, w)
            p = min(1.0, max(0.0, float(np.real(np.trace(big @ self._joint)))))
            accept = bool(self.source.rng.random() < p)
            _, self._joint = collapse(self._joint, big, accept)
            out[u] = accept
        return out

    def measure_count(self, e: Effect) -> int:
        if e.dim != self.source.dim:
            raise DimensionMismatchError("per-copy effect has wrong dimension")
        count = 0
        for r in range(self.n_copies):
            big = self._embed(np.asarray(e.mat), r, 1)
            p = min(1.0, max(0.0, float(np.real(np.trace(big @ self._joint)))))
            accept = bool(self.source.rng.random() < p)
            _, self._joint = collapse(self._joint, big, accept)
            count += int(accept)
        return count


def require_mode(mode: FidelityMode, allowed: tuple[FidelityMode, ...], op: str) -> None:
    if FidelityMode(mode) not in allowed:
        names = ", ".join(m.value for m in allowed)
        raise ModeUnsupportedError(f"{op} requires one of: {names}")
