"""Gently isolating one high-acceptance measurement out of M candidates.

Binary search over the candidate list: at each level the OR-bound decision
runs on the first half of the surviving window, at an acceptance bar that
degrades by alpha = eps/log2(M) per level, so descending the tree only
weakens the promise additively. The candidate list is padded to a power of
two with never-accepting entries, which cannot survive to be returned.

After isolation, a verification step estimates the survivor's acceptance on
fresh copies and returns not-found unless the empirical mean clears
(c - eps) - gap/2 with gap = min(eps, c - eps). That fallback is the only
defense the caller gets when the entry promise does not actually hold; under
the promise it costs at most an extra beta of failure probability.

Failure budget: beta = delta/log2(M) per level, plus beta for verification,
for a total failure probability of at most delta + beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONSTANTS, Constants
from .errors import DimensionMismatchError
from .ledger import CopySource
from .modes import FidelityMode
from .orbound import OrBoundParams, or_bound_decide
from .quantum import Measurement, unit_width


@dataclass(frozen=True)
class SearchParams:
    """Search thresholds. alpha and beta derive from the padded candidate
    count when left None; explicit values override the per-level split."""

    c: float
    epsilon: float
    delta: float
    alpha: float | None = None
    beta: float | None = None
    constants: Constants = field(default=DEFAULT_CONSTANTS)

    def __post_init__(self):
        if not 0.0 < self.epsilon < self.c <= 1.0:
            raise ValueError("need 0 < epsilon < c <= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    def level_params(self, m: int) -> tuple[int, float, float]:
        """(levels, alpha, beta) for m candidates after padding to a power
        of two. A single candidate needs no levels; its verification then
        gets the whole delta budget."""
        levels = _next_pow2(m).bit_length() - 1
        if levels == 0:
            return 0, self.epsilon, self.delta
        alpha = self.alpha if self.alpha is not None else self.epsilon / levels
        beta = self.beta if self.beta is not None else self.delta / levels
        return levels, alpha, beta


@dataclass(frozen=True)
class SearchResult:
    found: bool
    index: int | None
    level_bars: tuple[float, ...]
    copies_consumed: int
    verified_mean: float


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic copy consumption of one full search, in units."""

    levels: int
    ells: tuple[int, ...]
    rounds: int
    verify_units: int
    total_units: int


def _next_pow2(m: int) -> int:
    if m < 1:
        raise ValueError("need at least one candidate")
    return 1 << (m - 1).bit_length()


def verification_size(beta: float, gap: float) -> int:
    return math.ceil(32.0 * math.log(1.0 / beta) / gap**2)


def verify_candidate(
    effect: Measurement,
    rho_source: CopySource,
    bar: float,
    gap: float,
    beta: float,
    mode: FidelityMode,
    phase: str = "verification",
) -> tuple[bool, float]:
    """Estimate the effect's acceptance over fresh unit applications;
    confirm iff the empirical mean reaches bar - gap/2.

    Two-sided error <= beta whenever the true acceptance lies outside
    (bar - gap, bar).
    """
    if not 0.0 < gap <= bar:
        raise ValueError("need 0 < gap <= bar")
    n = verification_size(beta, gap)
    w = unit_width(effect)
    batch = rho_source.dispense(n * w, phase)
    outcomes = batch.measure_units(effect)
    mean = float(np.mean(outcomes))
    return mean >= bar - gap / 2.0, mean


def search_budget(m: int, params: SearchParams) -> SearchBudget:
    """Exact copy consumption of gentle_search for m candidates, in units.

    Deterministic: every level runs the full OR-bound round count and the
    verification sample size is fixed, so consumption never varies between
    trials. Level ells shrink as the window halves.
    """
    levels, alpha, beta = params.level_params(m)
    ells = []
    half = _next_pow2(m) // 2
    rounds = 0
    for k in range(levels):
        p = OrBoundParams(
            c=params.c - k * alpha, epsilon=alpha, delta=beta, constants=params.constants
        )
        ells.append(p.derived_ell(half))
        rounds = p.derived_rounds()
        half //= 2
    gap = min(params.epsilon, params.c - params.epsilon)
    verify_units = verification_size(beta, gap)
    total = sum(e * rounds for e in ells) + verify_units
    return SearchBudget(levels, tuple(ells), rounds, verify_units, total)


def search_copy_bound(
    m: int, epsilon: float, delta: float, constants: Constants = DEFAULT_CONSTANTS
) -> float:
    """Recorded closed-form ceiling on search consumption for unit-width
    candidates: c_search * log2(M)^4 / eps^2 * (ln log2 M + ln 1/delta)."""
    lg = max(math.log2(max(m, 2)), 1.0)
    return constants.c_search * lg**4 / epsilon**2 * (math.log(lg) + math.log(1.0 / delta))


def gentle_search(
    effects: list[Measurement | None],
    rho_source: CopySource,
    params: SearchParams,
    mode: FidelityMode,
    phase: str = "search",
) -> SearchResult:
    """Find an index whose acceptance is >= c - eps, assuming some index
    has acceptance >= c; returns not-found when verification fails.

    Entries may be None (never-accept padding); a None survivor reports
    not-found without verification. The returned index refers to the input
    list. Every level and the verification draw fresh copies.
    """
    mode = FidelityMode(mode)
    live = [m for m in effects if m is not None]
    if not live:
        raise ValueError("need at least one real candidate")
    if len({unit_width(m) for m in live}) != 1:
        raise DimensionMismatchError("all candidates must share a unit width")

    m2 = _next_pow2(len(effects))
    padded: list[Measurement | None] = list(effects) + [None] * (m2 - len(effects))
    levels, alpha, beta = params.level_params(len(effects))
    gap = min(params.epsilon, params.c - params.epsilon)
    bar_final = params.c - params.epsilon
    consumed_before = rho_source.ledger.consumed

    window = padded
    offset = 0
    bars: list[float] = []
    for level in range(levels):
        half = len(window) // 2
        first = window[:half]
        bar = params.c - level * alpha
        bars.append(bar)
        if all(m is None for m in first):
            case = "case_ii"
        else:
            or_params = OrBoundParams(c=bar, epsilon=alpha, delta=beta, constants=params.constants)
            case = or_bound_decide(first, rho_source, or_params, mode, phase=phase + "-or").case
        if case == "case_i":
            window = first
        else:
            window, offset = window[half:], offset + half

    candidate = window[0]
    if candidate is None:
        consumed = rho_source.ledger.consumed - consumed_before
        return SearchResult(False, None, tuple(bars), consumed, 0.0)

    ok, mean = verify_candidate(
        candidate, rho_source, bar_final, gap, beta, mode, phase + "-verify"
    )
    consumed = rho_source.ledger.consumed - consumed_before
    return SearchResult(ok, offset if ok else None, tuple(bars), consumed, mean)
