"""States, two-outcome effects, canonical collapse, and amplified threshold
measurements.

A two-outcome measurement is represented by its accepting effect E with
0 <= E <= I. Applying it to rho accepts with probability Tr(E rho); the
post-measurement state on the accept branch is sqrt(E) rho sqrt(E) divided
by the acceptance probability, and symmetrically with I - E on the reject
branch. This canonical Kraus pair is the collapse rule used everywhere in
the package: it is the realization for which the gentle-measurement damage
bound 2·sqrt(eps) holds.

A ThresholdEffect applies one base measurement independently to each of n
registers and accepts when the number of accepting registers passes an
integer cutoff. Thresholds are allowed to sit one step outside [0, n]
(at_least n+1, at_most -1): those encode the empty acceptance condition and
materialize to the zero operator. They arise naturally when a refinement
cutoff is pushed past a boundary and must never accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Union

import numpy as np
from scipy import special

from .config import CONSTRUCTION_ATOL, DEFAULT_DIM_CAP, POST_ARITHMETIC_ATOL
from .errors import DegenerateBranchError, DimensionCapError, DimensionMismatchError
from . import linalg

Direction = Literal["at_least", "at_most"]

DIRECTIONS: tuple[str, str] = ("at_least", "at_most")


def _frozen_matrix(m) -> np.ndarray:
    out = linalg.as_complex_matrix(m).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD matrix. `atol` loosens validation for states produced
    by long collapse chains."""

    mat: np.ndarray
    atol: float = CONSTRUCTION_ATOL

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen_matrix(self.mat))
        report = linalg.validate(self.mat, "density", self.atol)
        if not report.ok:
            raise ValueError(f"invalid density matrix: {report.violations}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class Effect:
    """Accepting POVM element of a two-outcome measurement, 0 <= E <= I."""

    mat: np.ndarray
    atol: float = CONSTRUCTION_ATOL

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen_matrix(self.mat))
        report = linalg.validate(self.mat, "effect", self.atol)
        if not report.ok:
            raise ValueError(f"invalid effect: {report.violations}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


Measurement = Union[Effect, "ThresholdEffect"]


@dataclass(frozen=True)
class ThresholdEffect:
    """Count-threshold amplification of a base measurement over `registers`
    identical registers.

    direction "at_least": accept when #accepting registers >= threshold,
    valid thresholds 0..registers+1 (registers+1 never accepts).
    direction "at_most": accept when #accepting registers <= threshold,
    valid thresholds -1..registers (-1 never accepts).

    `width` is the number of base copies one application consumes, fixed at
    construction so `unit_width` is O(1) at any nesting depth.
    """

    base: Measurement
    registers: int
    threshold: int
    direction: Direction
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.registers < 1:
            raise ValueError("threshold effect needs at least one register")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        lo, hi = (0, self.registers + 1) if self.direction == "at_least" else (-1, self.registers)
        if not lo <= self.threshold <= hi:
            raise ValueError(
                f"threshold {self.threshold} outside [{lo}, {hi}] for {self.direction} "
                f"over {self.registers} registers"
            )
        object.__setattr__(self, "width", self.registers * unit_width(self.base))

    @property
    def base_dim(self) -> int:
        return self.base.dim if isinstance(self.base, Effect) else self.base.total_dim

    @property
    def total_dim(self) -> int:
        return self.base_dim**self.registers

    @property
    def never_accepts(self) -> bool:
        if self.direction == "at_least":
            return self.threshold == self.registers + 1
        return self.threshold == -1


def unit_width(m: Measurement) -> int:
    """Number of base copies one application of `m` consumes."""
    return 1 if isinstance(m, Effect) else m.width


def leaf_effect(m: Measurement) -> Effect:
    """The single-copy effect at the bottom of a (possibly nested) threshold."""
    while isinstance(m, ThresholdEffect):
        m = m.base
    return m


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=np.complex128))


def identity_effect(dim: int) -> Effect:
    return Effect(np.eye(dim, dtype=np.complex128))


@dataclass(frozen=True)
class MeasurementOutcome:
    accepted: bool
    probability: float
    post_state: DensityMatrix


def accept_prob(e: Effect, rho: DensityMatrix) -> float:
    """Tr(E rho), clamped into [0, 1]."""
    if e.dim != rho.dim:
        raise DimensionMismatchError(f"effect dim {e.dim} vs state dim {rho.dim}")
    val = float(np.real(np.trace(e.mat @ rho.mat)))
    return min(1.0, max(0.0, val))


def collapse(state: np.ndarray, effect: np.ndarray, accept: bool) -> tuple[float, np.ndarray]:
    """Canonical two-outcome collapse on raw matrices.

    Returns (branch probability, unnormalized-then-renormalized post state).
    Raises DegenerateBranchError when the branch probability is <= 1e-12.
    """
    branch = effect if accept else np.eye(effect.shape[0]) - effect
    k = linalg.herm_sqrt(branch)
    prob = float(np.real(np.trace(branch @ state)))
    prob = min(1.0, max(0.0, prob))
    if prob <= 1e-12:
        raise DegenerateBranchError(f"branch probability {prob:.3e}")
    post = linalg.hermitize(k @ state @ k)
    post = post / float(np.real(np.trace(post)))
    return prob, post


def apply_effect(e: Effect, rho: DensityMatrix, accept: bool = True) -> MeasurementOutcome:
    """Apply the measurement of `e` to `rho` and take the requested branch."""
    if e.dim != rho.dim:
        raise DimensionMismatchError(f"effect dim {e.dim} vs state dim {rho.dim}")
    prob, post = collapse(rho.mat, np.asarray(e.mat), accept)
    return MeasurementOutcome(accept, prob, DensityMatrix(post, atol=POST_ARITHMETIC_ATOL))


def sequential_accept_all(effects: list[Effect], rho: DensityMatrix) -> tuple[float, DensityMatrix]:
    """Chain the accept branches of several measurements.

    Returns the probability that all accept (product of conditional branch
    probabilities) and the final conditional state.
    """
    prob = 1.0
    state = rho
    for e in effects:
        out = apply_effect(e, state, accept=True)
        prob *= out.probability
        state = out.post_state
    return prob, state


def binomial_tail(n: int, p: float, t: int, direction: Direction) -> float:
    """Exact Binomial(n, p) tail mass: P[X >= t] or P[X <= t].

    Accepts the sentinel thresholds one step outside [0, n] (empty or full
    event), mirroring ThresholdEffect boundary conventions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    # regularized incomplete beta: P[X >= t] = I_p(t, n-t+1); far cheaper
    # per call than a frozen scipy distribution, and exact to float precision
    if direction == "at_least":
        if t <= 0:
            return 1.0
        if t > n:
            return 0.0
        return float(special.betainc(t, n - t + 1, p))
    if t < 0:
        return 0.0
    if t >= n:
        return 1.0
    return float(1.0 - special.betainc(t + 1, n - t, p))


def threshold_accept_prob(m: Measurement, leaf_value: float) -> float:
    """Acceptance probability of `m` on a product state whose single-copy
    acceptance under the leaf effect is `leaf_value`.

    Exact for product inputs: counts are Binomial at every nesting level.
    """
    if isinstance(m, Effect):
        return leaf_value
    inner = threshold_accept_prob(m.base, leaf_value)
    return binomial_tail(m.registers, inner, m.threshold, m.direction)


def materialize_threshold(te: ThresholdEffect, cap: int = DEFAULT_DIM_CAP) -> Effect:
    """Dense operator of a threshold effect.

    Dynamic program over registers carrying count-indexed partial operators:
    after r registers, table[c] is the sum of r-fold tensor products with
    exactly c accepting factors. O(n^2) operator multiplications; the final
    dimension is cap-checked before any work happens.
    """
    if te.total_dim > cap:
        raise DimensionCapError(te.total_dim, cap, "threshold materialization")
    base = te.base if isinstance(te.base, Effect) else materialize_threshold(te.base, cap)
    acc = np.asarray(base.mat)
    rej = np.eye(base.dim) - acc
    n = te.registers

    if te.never_accepts:
        return zero_effect(te.total_dim)

    table: list[np.ndarray] = [np.eye(1, dtype=np.complex128)]
    for _ in range(n):
        nxt: list[np.ndarray] = []
        for c in range(len(table) + 1):
            block = np.zeros((table[0].shape[0] * base.dim,) * 2, dtype=np.complex128)
            if c < len(table):
                block += np.kron(table[c], rej)
            if c >= 1:
                block += np.kron(table[c - 1], acc)
            nxt.append(block)
        table = nxt

    if te.direction == "at_least":
        qualifying = range(max(te.threshold, 0), n + 1)
    else:
        qualifying = range(0, min(te.threshold, n) + 1)
    total = np.zeros((te.total_dim, te.total_dim), dtype=np.complex128)
    for c in qualifying:
        total += table[c]
    return Effect(linalg.hermitize(total), atol=POST_ARITHMETIC_ATOL)


def threshold_diagonal_values(
    eigenvalues: np.ndarray, q: int, threshold: int, direction: Direction
) -> np.ndarray:
    """Diagonal of a threshold effect in the base effect's eigenbasis power.

    With the base effect E = U diag(e) U†, the threshold operator over q
    registers is diagonal in the U^{⊗q} product basis. The entry for a basis
    string s is the Poisson-binomial tail of q independent accepts with
    probabilities e[s_r]. Returned as a vector over all d^q strings, register
    0 varying slowest. Vectorized DP over all strings at once.
    """
    e = np.asarray(eigenvalues, dtype=np.float64)
    e = np.clip(e, 0.0, 1.0)
    d = e.shape[0]
    total = d**q
    # digits[s, r] = r-th digit of string s, most significant first
    idx = np.arange(total)
    digits = np.empty((total, q), dtype=np.intp)
    for r in range(q - 1, -1, -1):
        digits[:, r] = idx % d
        idx //= d
    probs = e[digits]  # (total, q)
    table = np.zeros((total, q + 1), dtype=np.float64)
    table[:, 0] = 1.0
    for r in range(q):
        p = probs[:, r : r + 1]
        shifted = np.concatenate([np.zeros((total, 1)), table[:, :-1]], axis=1)
        table = table * (1.0 - p) + shifted * p
    counts = np.arange(q + 1)
    if direction == "at_least":
        mask = counts >= threshold
    else:
        mask = counts <= threshold
    return table[:, mask].sum(axis=1)
