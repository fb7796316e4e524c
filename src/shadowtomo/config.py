"""Package-wide numeric conventions and the pinned derived-parameter constants.

The constants are fixed: no config key, flag or parameter overrides them, so
a run's operating point follows from (D, M, eps, delta, q) alone. Editing
them here moves every derived operating point (q*, the OR sizes, the
iteration bound, the gap-test size and the search copy bound).

All logarithms in derived-parameter formulas are natural logs unless a
base-2 log is explicitly part of a formula (bit counting, entropy in bits).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

# Largest joint dimension any operation may materialize as a dense matrix.
DEFAULT_DIM_CAP = 4096

# Construction-time tolerance: hermiticity, unit trace, spectrum bounds for
# freshly built objects.
CONSTRUCTION_ATOL = 1e-10

# Tolerance for objects produced by chains of floating-point arithmetic
# (postselection, repeated collapse).
POST_ARITHMETIC_ATOL = 1e-8

# Operator square roots clamp eigenvalues in [-PSD_ROOT_ATOL, 0) to zero as
# floating-point drift and raise NotPSDError on anything lower.
PSD_ROOT_ATOL = 1e-6

# Conditioning on a branch whose probability is at most this raises
# (DegenerateBranchError in a collapse, DegeneratePostselectionError in a
# hypothesis update): renormalizing it would amplify rounding.
DEGENERATE_BRANCH_PROB = 1e-12


@dataclass(frozen=True)
class Constants:
    """The pinned multipliers of the derived-parameter formulas; every
    formula reads them from DEFAULT_CONSTANTS, and summary.json echoes them.

    c_or      amplification register multiplier in the OR-bound test
    c_q       register-count multiplier for the refinement hypothesis
    c_t       iteration-bound multiplier for the refinement loop
    c_gap     copy-count multiplier for the promise-gap procedure
    c_search  multiplier in the recorded search copy budget bound
    """

    c_or: float = 4.0
    c_q: float = 4.0
    c_t: float = 8.0
    c_gap: float = 8.0
    c_search: float = 64.0

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONSTANTS = Constants()
