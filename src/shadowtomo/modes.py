"""Fidelity modes mediating between idealized collective measurements and
what a desk-scale simulation can afford to materialize.

exact_tensor
    Joint states are materialized as dense matrices and every measurement is
    realized by the canonical two-outcome collapse on the joint. Faithful to
    measurement back-action, but every materialized dimension must stay
    within the configured cap.

per_copy_collapse
    Copies are tracked individually. A collective threshold measurement is
    realized as one canonical collapse per copy followed by classical
    thresholding of the outcome counts. Honest about per-copy damage, never
    materializes a joint state, but cannot represent coherence across
    registers (for commuting/diagonal instances it is exact).

fresh_copy_statistical
    No states are tracked at all. Measurement outcomes on product states are
    sampled from their exact Binomial statistics, and repeated measurements
    are sampled independently, i.e. back-action is idealized away. Collective
    threshold acceptance on a product state is exact in this mode; only
    cross-measurement damage is ignored.
"""

from enum import Enum


class FidelityMode(str, Enum):
    EXACT_TENSOR = "exact_tensor"
    PER_COPY_COLLAPSE = "per_copy_collapse"
    FRESH_COPY_STATISTICAL = "fresh_copy_statistical"

    def __str__(self) -> str:  # keep CSV/JSON output plain
        return self.value
