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
(at_least n+1, at_most -1): those encode the empty acceptance condition,
whose accepting operator is zero. They arise naturally when a refinement
cutoff is pushed past a boundary and must never accept.

An AnyOf is one round of an OR test over several measurements of one unit
width, as a measurement on one block of copies. How a round is realized is
the fidelity mode's business (see AnyOf).
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from typing import Literal, Union

import numpy as np

from .config import CONSTRUCTION_ATOL, DEGENERATE_BRANCH_PROB, POST_ARITHMETIC_ATOL
from .errors import DegenerateBranchError, DimensionMismatchError
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
    """Accepting POVM element of a two-outcome measurement, 0 <= E <= I.

    A caller that built `mat` from a known spectrum passes it as
    `eigenvalues`, so validation bounds that spectrum instead of
    recomputing it."""

    mat: np.ndarray
    atol: float = CONSTRUCTION_ATOL
    eigenvalues: InitVar[np.ndarray | None] = None

    def __post_init__(self, eigenvalues):
        object.__setattr__(self, "mat", _frozen_matrix(self.mat))
        report = linalg.validate(self.mat, "effect", self.atol, eigenvalues)
        if not report.ok:
            raise ValueError(f"invalid effect: {report.violations}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @functools.cached_property
    def spectrum(self) -> linalg.Spectrum:
        """eigh spectrum of `mat`, taken on first use and kept: `mat` is
        read-only, and so are the kept arrays."""
        spec = linalg.eigh_spectrum(self.mat)
        for a in spec:
            a.setflags(write=False)
        return spec


Measurement = Union[Effect, "ThresholdEffect", "AnyOf"]


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


@dataclass(frozen=True)
class AnyOf:
    """One OR round over `members` on the same block of copies.

    Fresh mode draws the round once at 1 - prod(1 - p_i) over the members'
    acceptances p_i, the law of applying them in order on independent
    draws; per-copy mode refuses it (see modes.py). The round it stands for
    is the control-qubit test, whose exact law is kept as a reference in
    tests/dense_reference.py.

    Every member spans the same number of copies, checked at construction
    and read by `unit_width`.
    """

    members: tuple[Measurement, ...]
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        widths = {unit_width(m) for m in self.members}
        if len(widths) != 1:
            raise DimensionMismatchError("AnyOf needs one or more members of one unit width")
        object.__setattr__(self, "width", widths.pop())


def unit_width(m: Measurement) -> int:
    """Number of base copies one application of `m` consumes."""
    return 1 if isinstance(m, Effect) else m.width


def leaf_effect(m: Measurement) -> Effect:
    """The single-copy effect at the bottom of a (possibly nested) threshold."""
    while isinstance(m, ThresholdEffect):
        m = m.base
    return m


@dataclass(frozen=True)
class MeasurementOutcome:
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
    Raises DegenerateBranchError when the branch probability is at most
    DEGENERATE_BRANCH_PROB.
    """
    branch = effect if accept else np.eye(effect.shape[0]) - effect
    k = linalg.herm_sqrt(branch)
    prob = float(np.real(np.trace(branch @ state)))
    prob = min(1.0, max(0.0, prob))
    if prob <= DEGENERATE_BRANCH_PROB:
        raise DegenerateBranchError(f"branch probability {prob:.3e}")
    post = linalg.hermitize(k @ state @ k)
    post = post / float(np.real(np.trace(post)))
    return prob, post


def apply_effect(e: Effect, rho: DensityMatrix, accept: bool = True) -> MeasurementOutcome:
    """Apply the measurement of `e` to `rho` and take the requested branch."""
    if e.dim != rho.dim:
        raise DimensionMismatchError(f"effect dim {e.dim} vs state dim {rho.dim}")
    prob, post = collapse(rho.mat, np.asarray(e.mat), accept)
    return MeasurementOutcome(prob, DensityMatrix(post, atol=POST_ARITHMETIC_ATOL))


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
    event), mirroring ThresholdEffect boundary conventions. Every call is
    validated; the value of a valid call is read from a bounded memo keyed
    on (n, p, t, direction), since shadow runs ask for the same tails over
    and over, and the memo holds exactly the value it would recompute. The
    first memo miss imports scipy.special for its betainc, so a process
    that never asks for a tail never loads scipy.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    return _binomial_tail_value(n, p, t, direction)


@functools.lru_cache(maxsize=4096)
def _binomial_tail_value(n: int, p: float, t: int, direction: Direction) -> float:
    # regularized incomplete beta: P[X >= t] = I_p(t, n-t+1); far cheaper
    # per call than a frozen scipy distribution, and exact to float precision
    from scipy import special

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


def threshold_outcomes(m: Measurement, leaf_accepts: np.ndarray) -> np.ndarray:
    """Outcome of `m` on each consecutive unit of copies, given the leaf
    effect's outcome on every copy in order.

    Level by level from the leaf up: each group of `registers` consecutive
    outcomes of the level below is counted and compared with the threshold.
    """
    if isinstance(m, Effect):
        return leaf_accepts
    counts = threshold_outcomes(m.base, leaf_accepts).reshape(-1, m.registers).sum(axis=1)
    return counts >= m.threshold if m.direction == "at_least" else counts <= m.threshold


def threshold_diagonal_values(
    eigenvalues: np.ndarray, q: int, threshold: int, direction: Direction
) -> np.ndarray:
    """Diagonal of a threshold effect in the base effect's eigenbasis power.

    With the base effect E = U diag(e) U†, the threshold operator over q
    registers is diagonal in the U^{⊗q} product basis. The entry for a basis
    string s is the Poisson-binomial tail of q independent accepts with
    probabilities e[s_r]. Returned as a read-only vector over all d^q
    strings, register 0 varying slowest.

    Every call is validated; the vector of a valid call is read from a
    bounded memo keyed on (eigenvalue bytes, q, threshold, direction), since
    shadow runs postselect on the same few spectra over and over, and the
    memo holds exactly the vector it would recompute. It keeps at most 64
    entries; at the 4096 dimension cap one entry is up to 64 KB (a 4096-entry
    float64 key and value), so at most 4 MiB.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    e = np.asarray(eigenvalues, dtype=np.float64)
    return _threshold_diagonal_values(e.tobytes(), q, threshold, direction)


@functools.lru_cache(maxsize=64)
def _threshold_diagonal_values(
    eigenvalue_bytes: bytes, q: int, threshold: int, direction: Direction
) -> np.ndarray:
    # vectorized DP over all strings at once; the strings' digit table is
    # built once per (d, q) and kept read-only
    e = np.clip(np.frombuffer(eigenvalue_bytes, dtype=np.float64), 0.0, 1.0)
    d = e.shape[0]
    total = d**q
    probs = e[_digit_table(d, q)]  # (total, q)
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
    values = table[:, mask].sum(axis=1)
    values.setflags(write=False)
    return values


@functools.lru_cache(maxsize=16)
def _digit_table(d: int, q: int) -> np.ndarray:
    """Read-only (d^q, q) table: entry [s, r] is the r-th base-d digit of
    string s, most significant first."""
    idx = np.arange(d**q)
    digits = np.empty((d**q, q), dtype=np.intp)
    for r in range(q - 1, -1, -1):
        digits[:, r] = idx % d
        idx //= d
    digits.setflags(write=False)
    return digits


def threshold_spectrum(m: Measurement) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of `m`'s accepting operator and the leaf eigenbasis U.

    With the leaf effect E = U diag(e) U†, a threshold over w = unit_width(m)
    copies is diagonal in the U^{⊗w} product basis at every nesting depth:
    each level's diagonal holds the tails (threshold_diagonal_values) of the
    level below's. Returns those d^w entries, register 0 varying slowest,
    and U; each level's size is cap-checked before it is built. A leaf
    effect returns its kept, read-only `Effect.spectrum`.
    """
    if isinstance(m, Effect):
        return m.spectrum
    values, u = threshold_spectrum(m.base)
    linalg.check_dense_dim(values.shape[0] ** m.registers, "threshold spectrum")
    return threshold_diagonal_values(values, m.registers, m.threshold, m.direction), u
