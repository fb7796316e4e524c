"""Copy accounting and the dispensing firewall around the unknown state.

Algorithms under test never read the true state or its exact acceptance
values. They obtain copies from a CopySource, which debits a monotone ledger
with per-phase attribution and hands back a batch object whose only outputs
are sampled measurement outcomes. Classical arithmetic on the algorithm's own
hypothesis is free and never touches the ledger.

In fresh_copy_statistical mode a CopySource memoizes each measurement's
per-unit acceptance probability, and the acceptance of its leaf effect, both
keyed by object identity in one memo, so Tr(E rho) is taken once per distinct
leaf however many thresholds are built over it. This is sound because that
mode never changes the hidden state, the state is immutable, and every
Effect and ThresholdEffect is frozen: the same object always has the same
acceptance. The memo only skips recomputation: every dispense still debits
the ledger, and every measurement still checks its shape and draws its
outcomes from the source's generator.

Each batch is the only code that knows how its mode realizes an OR round
(an AnyOf), and no state or probability leaves it; modes.py states what
each mode does with each measurement kind. A fresh batch draws an AnyOf as
a leaf or threshold: one uniform per unit against its memoized acceptance;
a per-copy batch refuses every AnyOf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhaustedError,
    DimensionMismatchError,
    ModeUnsupportedError,
    NotPSDError,
)
from .modes import PER_COPY_OR_REASON, FidelityMode
from .quantum import (
    AnyOf,
    DensityMatrix,
    Effect,
    Measurement,
    accept_prob,
    leaf_effect,
    threshold_accept_prob,
    threshold_outcomes,
    unit_width,
)
from .config import PSD_ROOT_ATOL
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
    """Dispenses copies of a hidden state in a chosen fidelity mode.

    `mode` is a FidelityMode or its string value. It is the only place the
    mode is set: algorithms that draw from a source read `source.mode`.
    """

    def __init__(
        self,
        true_state: DensityMatrix,
        mode: str,
        rng: np.random.Generator,
        budget: int | None = None,
    ):
        self._true_state = true_state
        self.mode = FidelityMode(mode)
        self.rng = rng
        self.ledger = CopyLedger(budget=budget)
        # fresh mode's per-unit acceptance by id(measurement), an OR round's
        # included; an entry holds its measurement, so the id cannot be
        # reused while the source lives
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
        return PerCopyBatch(self, n_copies)


class CopyBatch:
    """A dispensed block of copies. Outcomes only; no probabilities leak out.

    measure_collective  apply `m` once, spanning the whole batch; an AnyOf
                        is one OR round, which the mode realizes or refuses
    measure_units       apply `m` once per unit-width slice of the batch
    measure_count       apply a single-copy effect to every copy, return the
                        number of accepts

    Every method raises DimensionMismatchError on a measurement whose span
    does not fit the batch or whose single-copy effect does not match the
    source's dimension.
    """

    def __init__(self, source: CopySource, n_copies: int):
        self.source = source
        self.n_copies = n_copies

    def _check_leaves(self, m: Measurement) -> None:
        for x in m.members if isinstance(m, AnyOf) else (m,):
            dim = leaf_effect(x).dim
            if dim != self.source.dim:
                raise DimensionMismatchError(f"effect dim {dim} vs state dim {self.source.dim}")

    def _check_collective(self, m: Measurement) -> None:
        if unit_width(m) != self.n_copies:
            raise DimensionMismatchError(
                f"measurement spans {unit_width(m)} copies, batch holds {self.n_copies}"
            )
        self._check_leaves(m)

    def _check_units(self, m: Measurement) -> int:
        w = unit_width(m)
        if self.n_copies % w != 0:
            raise DimensionMismatchError(
                f"batch of {self.n_copies} copies does not divide into units of {w}"
            )
        self._check_leaves(m)
        return self.n_copies // w

    def measure_collective(self, m: Measurement) -> bool:
        raise NotImplementedError

    def measure_units(self, m: Measurement) -> np.ndarray:
        raise NotImplementedError

    def measure_count(self, e: Effect) -> int:
        return int(self.measure_units(e).sum())


class StatisticalBatch(CopyBatch):
    """fresh_copy_statistical: outcomes drawn from exact product statistics.

    No state is tracked, so repeated measurements of the same copies are
    independent draws; back-action is idealized away by construction.

    Every probability is read through the source's memo: with no tracked
    state, an immutable hidden state and frozen measurements, a measurement's
    acceptance, and its leaf effect's, is computed once per source. The memo
    changes no draw. An OR round accepts with 1 - prod(1 - p_i) over its
    members' acceptances, the law of applying them in order on independent
    draws until one accepts, and is drawn with one uniform as any unit is.
    """

    def _unit_prob(self, m: Measurement) -> float:
        memo = self.source._unit_probs
        entry = memo.get(id(m))
        if entry is None:
            if isinstance(m, AnyOf):
                v = 1.0 - float(np.prod([1.0 - self._unit_prob(x) for x in m.members]))
            elif isinstance(m, Effect):
                v = accept_prob(m, self.source._true_state)
            else:
                v = threshold_accept_prob(m, self._unit_prob(leaf_effect(m)))
            entry = memo[id(m)] = (m, v)
        return entry[1]

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        return bool(self.source.rng.random() < self._unit_prob(m))

    def measure_units(self, m: Measurement) -> np.ndarray:
        n_units = self._check_units(m)
        return self.source.rng.random(n_units) < self._unit_prob(m)

    def measure_count(self, e: Effect) -> int:
        return int(self.source.rng.binomial(self.n_copies, self._unit_prob(e)))


class PerCopyBatch(CopyBatch):
    """per_copy_collapse: each copy is a tracked single-copy state.

    Every measurement collapses each copy once, in copy order, under its leaf
    effect; a threshold's outcomes are then counted level by level from
    those per-copy outcomes (`threshold_outcomes`), with no further quantum
    step. An OR round (AnyOf) raises ModeUnsupportedError (see modes.py).

    Copies with the same outcome history share one stored state. Every copy
    starts in the hidden state, and a collapse is a deterministic function of
    (state, effect, outcome), so such copies hold the same state: the batch
    keeps a stack of distinct states, `_distinct`, and each copy's row in
    it, `_row`. Each (outcome, parent row) child that some copy reaches is
    collapsed once, and the children of one outcome together, by two BLAS
    products over their stacked states."""

    def __init__(self, source: CopySource, n_copies: int):
        super().__init__(source, n_copies)
        d = source.dim
        # one distinct state to start with, none in an empty batch
        self._distinct = np.broadcast_to(source._true_state.mat, (min(n_copies, 1), d, d)).copy()
        self._row = np.zeros(n_copies, dtype=np.intp)

    def _measure_copies(self, e: Effect, idx: np.ndarray) -> np.ndarray:
        """Collapse every copy in `idx` under `e`; returns accept booleans."""
        rows, local = _compact(self._row[idx])
        mats = self._distinct[rows]
        probs = np.real(np.einsum("kij,ji->k", mats, np.asarray(e.mat)))
        probs = np.clip(probs, 0.0, 1.0)
        accepts = self.source.rng.random(len(idx)) < probs[local]
        # a child is one (outcome, parent row) pair that some copy reaches,
        # keyed outcome first so that each outcome's children form one slice
        u = len(rows)
        children, child_of = _compact(u * accepts + local)
        outcome, parent = np.divmod(children, u)
        # S and K are Hermitian, so K S = (S K)†: over one outcome's children
        # one GEMM forms S K and a second (K S) K
        d = e.dim
        k_acc, k_rej = _kraus_roots(np.asarray(e.mat))
        post = mats[parent]  # each child's parent state, overwritten by K S K
        split = int(np.searchsorted(children, u))  # the rejected children come first
        for part, k in ((slice(split), k_rej), (slice(split, None), k_acc)):
            sk = (post[part].reshape(-1, d) @ k).reshape(-1, d, d)
            np.matmul(np.conj(sk.transpose(0, 2, 1)).reshape(-1, d), k, out=post[part].reshape(-1, d))
        p = np.where(outcome == 1, probs[parent], 1.0 - probs[parent])
        denom = np.maximum(p, 1e-300)[:, None, None]
        post = (post + np.conj(np.transpose(post, (0, 2, 1)))) / (2 * denom)
        # append the children, then drop every row no copy references
        row = self._row.copy()
        row[idx] = len(self._distinct) + child_of
        live, self._row = _compact(row)
        self._distinct = np.concatenate([self._distinct, post])[live]
        return accepts

    def _unit_outcomes(self, m: Measurement) -> np.ndarray:
        if isinstance(m, AnyOf):
            raise ModeUnsupportedError(PER_COPY_OR_REASON)
        leaf_accepts = self._measure_copies(leaf_effect(m), np.arange(self.n_copies))
        return threshold_outcomes(m, leaf_accepts)

    def measure_collective(self, m: Measurement) -> bool:
        self._check_collective(m)
        return bool(self._unit_outcomes(m)[0])

    def measure_units(self, m: Measurement) -> np.ndarray:
        self._check_units(m)
        return self._unit_outcomes(m)


def _compact(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for non-negative int keys, found
    by counting instead of sorting: the distinct keys ascending, and each
    key's index among them."""
    present = np.zeros(keys.max(initial=-1) + 1, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _kraus_roots(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(E) and sqrt(I - E) from one eigendecomposition of E, which both
    share. Raises NotPSDError as herm_sqrt would on either root: for an
    eigenvalue of E below -PSD_ROOT_ATOL or above 1 + PSD_ROOT_ATOL."""
    vals, vecs = linalg.eigh_spectrum(e)
    if vals[0] < -PSD_ROOT_ATOL:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -{PSD_ROOT_ATOL:.1e}")
    if vals[-1] > 1.0 + PSD_ROOT_ATOL:
        raise NotPSDError(f"eigenvalue {1.0 - vals[-1]:.3e} of I - E below -{PSD_ROOT_ATOL:.1e}")
    vh = vecs.conj().T
    k_acc = linalg.hermitize((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vh)
    k_rej = linalg.hermitize((vecs * np.sqrt(np.clip(1.0 - vals, 0.0, None))) @ vh)
    return k_acc, k_rej
