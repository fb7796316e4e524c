"""Detecting whether any of M measurements accepts an unknown state with
noticeably elevated probability, using few copies.

or_bound_decide amplifies the separation: each candidate effect is lifted to
a count-threshold over ell fresh registers, and one OR round over the
amplified candidates (an AnyOf) is measured once per round on a fresh block
of ell copies. The round-level accept frequency decides between "some value
>= c" (case_i) and "all values <= c - eps" (case_ii). The decision cutoff of
rounds/16 splits the inner test's worst-case accept rates (>= 1/8 versus
<= 4/M). For small M the 4/M side of that separation is vacuous in theory;
instances with real margins still decide correctly because the amplified
tails collapse to 0/1 exponentially.

The cutoff relies on the completeness/soundness constants of the
control-qubit OR test (Harrow, Lin and Montanaro, arXiv 1607.03236); the
test's exact acceptance law is kept as a reference in
tests/dense_reference.py. How a round is realized belongs to the copy batch
that measures it (see quantum.AnyOf), and no function here takes a
fidelity mode: the CopySource is built with one. A decision dispenses all
rounds' blocks as one batch and measures the round on every block with one
measure_units call; a fresh batch draws it once per round at
1 - prod(1 - p_i), the law of applying the members in order on independent
draws, and a per-copy batch refuses it.

The random-order tester draws one copy from a CopySource, shuffles the
effects and applies them in sequence to that copy, which collapses as far as
the source's fidelity mode tracks it; it is exposed for experiments only and
carries no soundness contract here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONSTANTS
from .errors import DimensionMismatchError
from .ledger import CopySource
from .quantum import AnyOf, Measurement, ThresholdEffect, unit_width


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
    never selected. Consumes exactly ell * rounds * unit_width copies,
    dispensed as one batch before the first round, so a budget too small
    for the whole decision fails before any round runs.
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

    round_test = AnyOf(tuple(_amplified(m, ell, threshold) for m in live))
    batch = rho_source.dispense(rounds * ell * w, phase)
    accept_count = int(batch.measure_units(round_test).sum())

    case = "case_i" if 16 * accept_count >= rounds else "case_ii"
    return OrDecision(case, accept_count, rounds, ell)
