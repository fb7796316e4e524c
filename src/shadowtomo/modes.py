"""Fidelity modes mediating between idealized collective measurements and
what a desk-scale simulation can afford to materialize.

per_copy_collapse
    Copies are tracked individually. Every measurement collapses each copy
    once, in copy order, under the leaf effect of a (possibly nested)
    threshold; the threshold's outcome is then counted level by level from
    those per-copy outcomes. Copies with the same outcome history share one
    stored state, so a block costs one collapse per distinct history, and
    one measurement's collapses run as grouped matrix products. No joint
    state is materialized, so no coherence across registers is represented.

fresh_copy_statistical
    No states are tracked at all. Outcomes are sampled from their exact
    statistics on fresh copies, every measurement independently. An OR
    round is one draw at 1 - prod(1 - p_i) over its members' acceptances
    p_i, the law of applying the members in order on independent draws,
    and many rounds are drawn in one vectorized pass.

Each mode's realization lives in its copy batch (ledger.py) and nowhere
else: algorithms hand a batch a measurement and read back outcomes. What
each mode does with each measurement kind:

                            leaf effect  count      collective   AnyOf
                                                    threshold    (OR round)
    per_copy_collapse       sound        sound      by design    refuses (a)
    fresh_copy_statistical  by design    by design  by design    by design (b)

sound      outcomes and back-action follow the measurement's law.
by design  one measurement's outcomes follow its law, but the state later
           measurements see differs on purpose: fresh mode draws every
           measurement independently, and a per-copy threshold collapses
           each register under its leaf effect, which matches the
           collective back-action only on commuting (diagonal) instances.
refuses    raises ModeUnsupportedError and names the reason.
(a) the round's gentle collective measurement entangles the block, which a
    per-copy store cannot hold, so orbound, search, shadow and money-demo
    are refused at resolve, exit 2.
(b) the law 1 - prod(1 - p_i) stands for the control-qubit round that the
    amplified OR decision's constants come from, and accepts more often.
    Against that round's exact law (tests/dense_reference.py,
    controlled_or_accept_prob), fresh mode accepted at least as often on
    537 of 540 single-copy instances (random states and rank-1 projectors,
    d = 2-4, M in {2, 4, 8}; exact/fresh 0.565 at worst, median 0.875), and
    up to about 1.9x as often on amplified members as the decision builds
    them (d = 2, M = 4, threshold effects over ell = 2-5 registers;
    exact/fresh 0.515-0.686 at worst, medians 0.80-0.91).
The scenario catalog (scenarios.SCENARIOS) holds the per-scenario refusals.
The tests check the sound entries against a dense joint-state reference,
tests/dense_reference.py, which is not a mode a run can select.
"""

from enum import Enum

PER_COPY_OR_REASON = (
    "per-copy mode cannot simulate an OR round: its gentle collective "
    "measurement entangles the block, and a per-copy store cannot hold that"
)
GAP_REUSE_REASON = "the promise-gap procedure reuses damaged copies; use per-copy mode"


class FidelityMode(str, Enum):
    PER_COPY_COLLAPSE = "per_copy_collapse"
    FRESH_COPY_STATISTICAL = "fresh_copy_statistical"

    def __str__(self) -> str:  # keep CSV/JSON output plain
        return self.value
