"""Detecting whether any of M measurements accepts an unknown state with
noticeably elevated probability, using few copies.

Two single-copy OR testers are provided. The control-qubit tester entangles
an ancilla prepared in (|0> + |1>)/sqrt(2) with the state, applies each
effect conditioned on the ancilla being |1>, and checks the ancilla in the
+/- basis after each one: a rejected conditional measurement that still
dephased the ancilla is itself evidence that some effect fires. Its
completeness/soundness constants are what the amplified decision procedure
below relies on; controlled_or_accept_prob computes its exact acceptance
for reference. The random-order tester draws one copy from a CopySource,
shuffles the effects and applies them in sequence to that copy, which
collapses as far as the source's fidelity mode tracks it; it is exposed for
experiments only and carries no soundness contract here.

No function here takes a fidelity mode: the CopySource is built with one,
and the OR rounds read it from there.

or_bound_decide amplifies the separation: each candidate effect is lifted to
a count-threshold over ell fresh registers, the inner OR test runs once per
round on a fresh block of ell copies, and the round-level accept frequency
decides between "some value >= c" (case_i) and "all values <= c - eps"
(case_ii). The decision cutoff of rounds/16 splits the inner test's
worst-case accept rates (>= 1/8 versus <= 4/M). For small M the 4/M side of
that separation is vacuous in theory; instances with real margins still
decide correctly because the amplified tails collapse to 0/1 exponentially.

In fresh_copy_statistical mode the rounds are independent, so a decision
dispenses all rounds' blocks as one batch and measures an AnyOf of the
amplified candidates once per block: one ledger debit and one vectorized
draw, with the outcomes of a round-by-round loop. Per-copy and exact modes
run the rounds one by one, since their blocks carry collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONSTANTS, DEFAULT_DIM_CAP
from .errors import DimensionCapError, DimensionMismatchError
from .ledger import CopyBatch, CopySource
from .modes import FidelityMode
from .quantum import (
    AnyOf,
    DensityMatrix,
    Measurement,
    ThresholdEffect,
    collapse,
    dense_operator,
    unit_width,
)
from . import linalg


@dataclass(frozen=True)
class OrBoundParams:
    """Inputs and derived sizes for the amplified OR decision.

    The sizes always follow from the inputs:
    ell = ceil(c_or * ln(max(M, 2)) / eps^2), rounds = ceil(48 * ln(1/delta)).
    """

    c: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= self.c <= 1.0:
            raise ValueError("need 0 < epsilon <= c <= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    def derived_ell(self, m: int) -> int:
        return math.ceil(DEFAULT_CONSTANTS.c_or * math.log(max(m, 2)) / self.epsilon**2)

    def derived_rounds(self) -> int:
        return math.ceil(48.0 * math.log(1.0 / self.delta))


@dataclass(frozen=True)
class OrDecision:
    case: str  # "case_i" | "case_ii"
    accept_count: int
    rounds: int
    ell: int
    threshold: int
    copies_consumed: int


_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
_ONE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)


def _conditional_ops(
    effects: list[Measurement], dim: int, cap: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each effect conditioned on the control being |1>, and the projector
    onto the control's |+> state, all on the control-extended space."""
    if 2 * dim > cap:
        raise DimensionCapError(2 * dim, cap, "control-extended state")
    ops = []
    for m in effects:
        op = dense_operator(m, cap)
        if op.shape[0] != dim:
            raise DimensionMismatchError("effect dimension does not match the state")
        ops.append(np.kron(_ONE, op))
    return ops, np.kron(_PLUS, np.eye(dim))


def controlled_or_test(
    effects: list[Measurement],
    rho: DensityMatrix,
    rng: np.random.Generator,
    cap: int = DEFAULT_DIM_CAP,
) -> tuple[bool, DensityMatrix]:
    """Single-copy OR test with a control qubit; returns (accepted, post
    state of the register with the control traced out).

    Accepts when some conditional measurement accepts or a +/- check after
    it finds the control decohered.
    """
    dim = rho.dim
    ops, plus_proj = _conditional_ops(effects, dim, cap)
    state = np.kron(_PLUS, rho.mat)
    accepted = False
    for a in ops:
        p_acc = min(1.0, max(0.0, float(np.real(np.trace(a @ state)))))
        if rng.random() < p_acc:
            _, state = collapse(state, a, True)
            accepted = True
            break
        _, state = collapse(state, a, False)
        p_plus = min(1.0, max(0.0, float(np.real(np.trace(plus_proj @ state)))))
        if rng.random() >= p_plus:
            _, state = collapse(state, np.eye(2 * dim) - plus_proj, True)
            accepted = True
            break
        _, state = collapse(state, plus_proj, True)

    post = DensityMatrix(_trace_out_control(state, dim), atol=1e-6)
    return accepted, post


def controlled_or_accept_prob(
    effects: list[Measurement], rho: DensityMatrix, cap: int = DEFAULT_DIM_CAP
) -> float:
    """Exact acceptance probability of controlled_or_test, the reference its
    sampled outcomes are checked against.

    Unnormalized survival walk: reject every conditional measurement and
    observe + at every control check. Acceptance = 1 - final trace.
    """
    dim = rho.dim
    ops, plus_proj = _conditional_ops(effects, dim, cap)
    surv = np.kron(_PLUS, rho.mat)
    for a in ops:
        k = linalg.herm_sqrt(np.eye(2 * dim) - a)
        surv = k @ surv @ k
        surv = plus_proj @ surv @ plus_proj
    return min(1.0, max(0.0, 1.0 - float(np.real(np.trace(surv)))))


def _trace_out_control(joint: np.ndarray, dim: int) -> np.ndarray:
    t = joint.reshape(2, dim, 2, dim)
    return np.einsum("aiaj->ij", t)


def random_order_or_test(effects: list[Measurement], rho_source: CopySource) -> bool:
    """Shuffle the single-copy effects and apply them in sequence to one
    dispensed copy, accepting if any accepts. The copy collapses as far as
    the source's mode tracks it. Exploratory: no acceptance contract is
    attached."""
    order = rho_source.rng.permutation(len(effects))
    batch = rho_source.dispense(1, "random-order")
    return any(batch.measure_collective(effects[j]) for j in order)


def _amplified(m: Measurement, ell: int, threshold: int) -> ThresholdEffect:
    return ThresholdEffect(base=m, registers=ell, threshold=threshold, direction="at_least")


def or_bound_decide(
    effects: list[Measurement | None],
    rho_source: CopySource,
    params: OrBoundParams,
    phase: str = "or-rounds",
) -> OrDecision:
    """Decide whether some effect accepts with probability >= c (case_i) or
    all accept with probability <= c - eps (case_ii).

    Per round a fresh block of ell unit-copies is used and the inner OR test
    runs once on it; `None` entries are padding that never accepts and is
    never selected. Consumes exactly ell * rounds * unit_width copies. In
    fresh mode they are dispensed as one batch before the first round, so a
    budget too small for the whole decision fails before any round runs.
    """
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
    # ceil guarded against float products sitting a few ulps above an integer;
    # 0 < eps <= c <= 1 keeps it in 0..ell
    threshold = math.ceil((params.c - params.epsilon / 2.0) * ell - 1e-9)

    amplified = [_amplified(m, ell, threshold) for m in live]

    if rho_source.mode is FidelityMode.FRESH_COPY_STATISTICAL:
        batch = rho_source.dispense(rounds * ell * w, phase)
        accept_count = int(batch.measure_units(AnyOf(tuple(amplified))).sum())
    else:
        accept_count = 0
        for _ in range(rounds):
            batch = rho_source.dispense(ell * w, phase)
            if _inner_or_round(batch, amplified):
                accept_count += 1

    case = "case_i" if 16 * accept_count >= rounds else "case_ii"
    return OrDecision(case, accept_count, rounds, ell, threshold, ell * w * rounds)


def _inner_or_round(batch: CopyBatch, amplified: list[ThresholdEffect]) -> bool:
    source = batch.source
    if source.mode is FidelityMode.PER_COPY_COLLAPSE:
        # Sequential collective thresholds on the block; the block collapses,
        # so earlier rejections damage the block the later candidates see.
        return any(batch.measure_collective(m) for m in amplified)
    # exact_tensor: control-qubit OR test on the materialized joint block.
    joint = batch.as_density_matrix()
    accepted, post = controlled_or_test(amplified, joint, source.rng, cap=source.dim_cap)
    batch.set_state(post)
    return accepted
