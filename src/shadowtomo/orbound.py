"""Detecting whether any of M measurements accepts an unknown state with
noticeably elevated probability, using few copies.

Two single-copy OR testers are provided. The control-qubit tester entangles
an ancilla prepared in (|0> + |1>)/sqrt(2) with the state, applies each
effect conditioned on the ancilla being |1>, and periodically checks the
ancilla in the +/- basis: a rejected conditional measurement that still
dephased the ancilla is itself evidence that some effect fires. Its
completeness/soundness constants are what the amplified decision procedure
below relies on. The random-order tester simply shuffles the effects and
applies them in sequence with collapse; it is exposed for experiments only
and carries no soundness contract here.

or_bound_decide amplifies the separation: each candidate effect is lifted to
a count-threshold over ell fresh registers, the inner OR test runs once per
round on a fresh block of ell copies, and the round-level accept frequency
decides between "some value >= c" (case_i) and "all values <= c - eps"
(case_ii). The decision cutoff of rounds/16 splits the inner test's
worst-case accept rates (>= 1/8 versus <= 4/M). For small M the 4/M side of
that separation is vacuous in theory; instances with real margins still
decide correctly because the amplified tails collapse to 0/1 exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONSTANTS, DEFAULT_DIM_CAP, Constants
from .errors import DimensionCapError, DimensionMismatchError
from .ledger import CopyBatch, CopySource, require_mode
from .modes import FidelityMode
from .quantum import (
    DensityMatrix,
    Measurement,
    ThresholdEffect,
    collapse,
    materialize_threshold,
    unit_width,
)
from . import linalg


@dataclass(frozen=True)
class OrBoundParams:
    """Inputs and derived sizes for the amplified OR decision.

    ell and rounds may be overridden; when left None they derive as
    ell = ceil(c_or * ln(max(M, 2)) / eps^2), rounds = ceil(48 * ln(1/delta)).
    """

    c: float
    epsilon: float
    delta: float
    ell: int | None = None
    rounds: int | None = None
    constants: Constants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if not 0.0 < self.epsilon <= self.c <= 1.0:
            raise ValueError("need 0 < epsilon <= c <= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    def derived_ell(self, m: int) -> int:
        if self.ell is not None:
            return self.ell
        return math.ceil(self.constants.c_or * math.log(max(m, 2)) / self.epsilon**2)

    def derived_rounds(self) -> int:
        if self.rounds is not None:
            return self.rounds
        return math.ceil(48.0 * math.log(1.0 / self.delta))


@dataclass(frozen=True)
class OrTestResult:
    accepted: bool
    exact_accept_prob: float | None
    post_state: DensityMatrix | None


@dataclass(frozen=True)
class OrDecision:
    case: str  # "case_i" | "case_ii"
    accept_count: int
    rounds: int
    ell: int
    threshold: int
    copies_consumed: int


def _as_operator(m: Measurement, cap: int) -> np.ndarray:
    if isinstance(m, ThresholdEffect):
        return np.asarray(materialize_threshold(m, cap).mat)
    return np.asarray(m.mat)


_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
_ONE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def controlled_or_test(
    effects: list[Measurement],
    rho: DensityMatrix,
    mode: FidelityMode,
    rng: np.random.Generator,
    control_check_every: int = 1,
    cap: int = DEFAULT_DIM_CAP,
) -> OrTestResult:
    """Single-copy OR test with a control qubit.

    Accepts when some conditional measurement accepts or a +/- check finds
    the control decohered. In exact_tensor mode the exact acceptance
    probability is also computed (deterministically, via the unnormalized
    all-reject branch) alongside the sampled outcome. Not defined for
    fresh_copy_statistical, which cannot represent the control's coherence.
    """
    mode = FidelityMode(mode)
    require_mode(
        mode,
        (FidelityMode.EXACT_TENSOR, FidelityMode.PER_COPY_COLLAPSE),
        "controlled_or_test",
    )
    if control_check_every < 1:
        raise ValueError("control_check_every must be >= 1")
    dim = rho.dim
    if 2 * dim > cap:
        raise DimensionCapError(2 * dim, cap, "control-extended state")
    ops = []
    for m in effects:
        op = _as_operator(m, cap)
        if op.shape[0] != dim:
            raise DimensionMismatchError("effect dimension does not match the state")
        ops.append(op)

    ident = np.eye(dim)
    plus_proj = np.kron(_PLUS, ident)

    def conditional(op: np.ndarray) -> np.ndarray:
        return np.kron(_ONE, op)

    exact_prob = None
    if mode is FidelityMode.EXACT_TENSOR:
        # Unnormalized survival walk: reject every conditional measurement and
        # observe + at every control check. Acceptance = 1 - final trace.
        surv = np.kron(_PLUS, rho.mat)
        for i, op in enumerate(ops):
            a = conditional(op)
            k = linalg.herm_sqrt(np.eye(2 * dim) - a)
            surv = k @ surv @ k
            if (i + 1) % control_check_every == 0 or i == len(ops) - 1:
                surv = plus_proj @ surv @ plus_proj
        exact_prob = 1.0 - float(np.real(np.trace(surv)))
        exact_prob = min(1.0, max(0.0, exact_prob))

    # Sampled trajectory.
    state = np.kron(_PLUS, rho.mat)
    accepted = False
    for i, op in enumerate(ops):
        a = conditional(op)
        p_acc = min(1.0, max(0.0, float(np.real(np.trace(a @ state)))))
        if rng.random() < p_acc:
            _, state = collapse(state, a, True)
            accepted = True
            break
        _, state = collapse(state, a, False)
        if (i + 1) % control_check_every == 0 or i == len(ops) - 1:
            p_plus = min(1.0, max(0.0, float(np.real(np.trace(plus_proj @ state)))))
            if rng.random() >= p_plus:
                _, state = collapse(state, np.eye(2 * dim) - plus_proj, True)
                accepted = True
                break
            _, state = collapse(state, plus_proj, True)

    post = DensityMatrix(_trace_out_control(state, dim), atol=1e-6)
    return OrTestResult(accepted, exact_prob, post)


def _trace_out_control(joint: np.ndarray, dim: int) -> np.ndarray:
    t = joint.reshape(2, dim, 2, dim)
    return np.einsum("aiaj->ij", t)


def random_order_or_test(
    effects: list[Measurement],
    rho: DensityMatrix,
    mode: FidelityMode,
    rng: np.random.Generator,
    cap: int = DEFAULT_DIM_CAP,
) -> bool:
    """Shuffle the effects, apply them in sequence with collapse, accept if
    any accepts. Exploratory: no acceptance contract is attached."""
    mode = FidelityMode(mode)
    order = rng.permutation(len(effects))
    if mode is FidelityMode.FRESH_COPY_STATISTICAL:
        # damage-free idealization: independent draws at single-copy statistics
        from .quantum import accept_prob, leaf_effect, threshold_accept_prob

        for j in order:
            p = threshold_accept_prob(effects[j], accept_prob(leaf_effect(effects[j]), rho))
            if rng.random() < p:
                return True
        return False
    state = np.asarray(rho.mat).copy()
    for j in order:
        op = _as_operator(effects[j], cap)
        p = min(1.0, max(0.0, float(np.real(np.trace(op @ state)))))
        if rng.random() < p:
            return True
        _, state = collapse(state, op, False)
    return False


def _amplified(m: Measurement, ell: int, threshold: int) -> ThresholdEffect:
    return ThresholdEffect(base=m, registers=ell, threshold=threshold, direction="at_least")


def or_bound_decide(
    effects: list[Measurement | None],
    rho_source: CopySource,
    params: OrBoundParams,
    mode: FidelityMode,
    phase: str = "or-rounds",
) -> OrDecision:
    """Decide whether some effect accepts with probability >= c (case_i) or
    all accept with probability <= c - eps (case_ii).

    Per round a fresh block of ell unit-copies is dispensed and the inner OR
    test runs once on it; `None` entries are padding that never accepts and is
    never selected. Consumes exactly ell * rounds * unit_width copies.
    """
    mode = FidelityMode(mode)
    live = [m for m in effects if m is not None]
    if not live:
        raise ValueError("need at least one real effect")
    widths = {unit_width(m) for m in live}
    if len(widths) != 1:
        raise DimensionMismatchError("all candidate effects must share a unit width")
    w = widths.pop()
    m_count = len(effects)
    ell = params.derived_ell(m_count)
    rounds = params.derived_rounds()
    # ceil guarded against float products sitting a few ulps above an integer
    threshold = math.ceil((params.c - params.epsilon / 2.0) * ell - 1e-9)
    threshold = min(max(threshold, 0), ell + 1)

    amplified = [None if m is None else _amplified(m, ell, threshold) for m in effects]

    accept_count = 0
    for _ in range(rounds):
        batch = rho_source.dispense(ell * w, phase)
        if _inner_or_round(batch, amplified, mode, rho_source):
            accept_count += 1

    case = "case_i" if 16 * accept_count >= rounds else "case_ii"
    return OrDecision(case, accept_count, rounds, ell, threshold, ell * w * rounds)


def _inner_or_round(
    batch: CopyBatch,
    amplified: list[ThresholdEffect | None],
    mode: FidelityMode,
    source: CopySource,
) -> bool:
    if mode is not FidelityMode.EXACT_TENSOR:
        # Sequential collective thresholds on the block. Fresh-copy batches
        # sample each candidate independently at its exact product
        # acceptance; per-copy batches collapse, so earlier rejections damage
        # the block the later candidates see.
        for m in amplified:
            if m is not None and batch.measure_collective(m):
                return True
        return False
    # exact_tensor: control-qubit OR test on the materialized joint block.
    joint = batch.as_density_matrix()
    live = [m for m in amplified if m is not None]
    result = controlled_or_test(live, joint, mode, source.rng, cap=source.dim_cap)
    batch.set_state(result.post_state)
    return result.accepted
