"""Fidelity modes mediating between idealized collective measurements and
what a desk-scale simulation can afford to materialize.

exact_tensor
    Joint states are materialized as dense matrices and every measurement is
    realized by the canonical two-outcome collapse on the joint, unit by
    unit in unit order. An OR round is the control-qubit test on the joint
    state. Faithful to measurement back-action, but every materialized
    dimension must stay within the dimension cap fixed in config.py.

per_copy_collapse
    Copies are tracked individually. Every measurement collapses each copy
    once, in copy order, under the leaf effect of a (possibly nested)
    threshold; the threshold's outcome is then counted level by level from
    those per-copy outcomes. An OR round applies its members so, in order,
    until one accepts. That measures each amplified candidate's threshold
    register by register, not as the gentle collective measurement the OR
    test assumes, and a rejection leaves the copies where the next
    candidate accepts more often, so OR decisions are not sound here: at
    seed 0 the orbound scenario in this mode gets all 10 of its first 20
    trials' all-below instances wrong. Copies with the same outcome history
    share one stored state, so a block costs one collapse per distinct
    history, not per copy, and one measurement's collapses run as grouped
    matrix products. Honest about per-copy damage, never materializes
    a joint state, but cannot represent coherence across registers (for
    commuting/diagonal instances it is exact).

fresh_copy_statistical
    No states are tracked at all. Measurement outcomes on product states are
    sampled from their exact Binomial statistics, and repeated measurements
    are sampled independently, i.e. back-action is idealized away. Collective
    threshold acceptance on a product state is exact in this mode; only
    cross-measurement damage is ignored. An OR round is one draw per round
    at 1 - prod(1 - p_i) over its members' acceptances p_i, the law of
    applying the members in order on independent draws, and many rounds are
    drawn in one vectorized pass.

Each mode's realization lives in its copy batch (ledger.py) and nowhere
else: algorithms hand a batch a measurement and read back outcomes.
"""

from enum import Enum


class FidelityMode(str, Enum):
    EXACT_TENSOR = "exact_tensor"
    PER_COPY_COLLAPSE = "per_copy_collapse"
    FRESH_COPY_STATISTICAL = "fresh_copy_statistical"

    def __str__(self) -> str:  # keep CSV/JSON output plain
        return self.value
