"""Exception taxonomy shared across the package."""


class ShadowTomoError(Exception):
    """Base class for all package errors."""


class DimensionCapError(ShadowTomoError):
    """A dense construction would exceed the package's dimension cap."""

    def __init__(self, requested: int, limit: int, what: str):
        self.requested = requested
        self.limit = limit
        self.what = what
        # str() of an integer past 4300 digits raises, so a large one is named by its bit length
        dim = requested if requested < 2**64 else f"at least 2^{requested.bit_length() - 1}"
        super().__init__(f"{what} of dimension {dim} exceeds cap {limit}")

    def __reduce__(self):  # a trial worker sends its error back pickled
        return type(self), (self.requested, self.limit, self.what)


class DimensionMismatchError(ShadowTomoError):
    """Operands have incompatible dimensions."""


class NotPSDError(ShadowTomoError):
    """A matrix required to be positive semidefinite has a significantly negative eigenvalue."""


class DegenerateBranchError(ShadowTomoError):
    """A measurement branch with (near) zero probability was selected."""


class DegeneratePostselectionError(ShadowTomoError):
    """A postselection step has (near) zero acceptance probability."""


class BudgetExhaustedError(ShadowTomoError):
    """The copy budget ran out. Carries a snapshot of the ledger at failure."""

    def __init__(self, requested: int, snapshot: dict):
        self.requested = requested
        self.snapshot = snapshot
        consumed = snapshot.get("consumed")
        budget = snapshot.get("budget")
        super().__init__(
            f"copy budget exhausted: requested {requested} with {consumed} consumed of {budget}"
        )

    def __reduce__(self):  # a trial worker sends its error back pickled
        return type(self), (self.requested, self.snapshot)


class IterationBoundExceededError(ShadowTomoError):
    """The refinement loop did not halt within its iteration bound."""


class RejectionLimitError(ShadowTomoError):
    """Rejection sampling failed to produce a valid instance within the attempt limit."""


class ModeUnsupportedError(ShadowTomoError):
    """The requested operation is not defined for the given fidelity mode."""


class ConfigError(ShadowTomoError):
    """A run configuration failed to parse or validate."""
