"""Gently isolating one high-acceptance measurement out of M candidates.

Binary search over the candidate list: at each level the OR-bound decision
runs on the first half of the surviving window, at an acceptance bar that
degrades by alpha = eps/log2(M) per level, so descending the tree only
weakens the promise additively. The candidate list is padded to a power of
two with never-accepting entries, which cannot survive to be returned.

After isolation, a verification step applies the survivor to n fresh units
and returns not-found unless the accept count reaches the least t with
t/n >= (c - eps) - gap/2, gap = min(eps, c - eps). It is one collective
count-threshold measurement over the n units, the same form the gap test
uses, so no empirical mean is ever formed. That fallback is the only
defense the caller gets when the entry promise does not actually hold; under
the promise it costs at most an extra beta of failure probability.

Failure budget: beta = delta/log2(M) per level, plus beta for verification,
for a total failure probability of at most delta + beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import DEFAULT_CONSTANTS
from .errors import DimensionMismatchError
from .ledger import CopySource
from .orbound import OrBoundParams, or_bound_decide
from .quantum import Measurement, ThresholdEffect, unit_width

# ledger phases of the level OR decisions and of the final verification
_OR_PHASE = "search-or"
_VERIFY_PHASE = "search-verify"


@dataclass(frozen=True)
class SearchParams:
    """Search thresholds; the per-level alpha and beta derive from the
    padded candidate count."""

    c: float
    epsilon: float
    delta: float

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
        return levels, self.epsilon / levels, self.delta / levels


@dataclass(frozen=True)
class SearchResult:
    found: bool
    index: int | None
    level_bars: tuple[float, ...]
    copies_consumed: int


def _next_pow2(m: int) -> int:
    if m < 1:
        raise ValueError("need at least one candidate")
    return 1 << (m - 1).bit_length()


def verification_size(beta: float, gap: float) -> int:
    return math.ceil(32.0 * math.log(1.0 / beta) / gap**2)


def verification_threshold(n: int, bar: float, gap: float) -> int:
    """Least accept count t in 0..n with t/n >= bar - gap/2, or n + 1 (never
    accept) when no count reaches it. The comparison is the float one
    `count / n >= bar - gap / 2`, so every count decides as that mean would."""
    cut = bar - gap / 2.0
    t = min(max(math.ceil(cut * n), 0), n + 1)
    while t > 0 and (t - 1) / n >= cut:
        t -= 1
    while t <= n and t / n < cut:
        t += 1
    return t


def verify_candidate(
    effect: Measurement,
    rho_source: CopySource,
    bar: float,
    gap: float,
    beta: float,
) -> bool:
    """Apply the effect to n fresh units and confirm iff at least
    verification_threshold(n, bar, gap) of them accept, as one collective
    threshold measurement.

    Two-sided error <= beta whenever the true acceptance lies outside
    (bar - gap, bar).
    """
    if not 0.0 < gap <= bar:
        raise ValueError("need 0 < gap <= bar")
    n = verification_size(beta, gap)
    t = verification_threshold(n, bar, gap)
    batch = rho_source.dispense(n * unit_width(effect), _VERIFY_PHASE)
    return batch.measure_collective(
        ThresholdEffect(base=effect, registers=n, threshold=t, direction="at_least")
    )


def search_budget(m: int, params: SearchParams) -> int:
    """Exact copy consumption, in units, of a gentle_search over m
    candidates that reaches verification: each level's OR decision debits
    its ell times its rounds, and the verification its fixed sample size.

    Every level runs the full OR-bound round count, so such a search always
    debits this much. When m is a power of two every search reaches
    verification. Otherwise a search that walks into the None padding skips
    the OR decision of each level whose first half is all padding, and the
    verification of a padding survivor, so it debits less. Level ells shrink
    as the window halves.
    """
    levels, alpha, beta = params.level_params(m)
    half = _next_pow2(m) // 2
    total = 0
    for k in range(levels):
        p = OrBoundParams(c=params.c - k * alpha, epsilon=alpha, delta=beta)
        total += p.derived_ell(half) * p.derived_rounds()
        half //= 2
    gap = min(params.epsilon, params.c - params.epsilon)
    return total + verification_size(beta, gap)


def search_copy_bound(m: int, epsilon: float, delta: float) -> float:
    """Recorded closed-form ceiling on search consumption for unit-width
    candidates: c_search * log2(M)^4 / eps^2 * (ln log2 M + ln 1/delta)."""
    lg = max(math.log2(max(m, 2)), 1.0)
    return DEFAULT_CONSTANTS.c_search * lg**4 / epsilon**2 * (math.log(lg) + math.log(1.0 / delta))


def gentle_search(
    effects: list[Measurement | None],
    rho_source: CopySource,
    params: SearchParams,
) -> SearchResult:
    """Find an index whose acceptance is >= c - eps, assuming some index
    has acceptance >= c; returns not-found when verification fails.

    Entries may be None (never-accept padding); a None survivor reports
    not-found without verification. The returned index refers to the input
    list. Every level and the verification draw fresh copies.
    """
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
            or_params = OrBoundParams(c=bar, epsilon=alpha, delta=beta)
            case = or_bound_decide(first, rho_source, or_params, phase=_OR_PHASE).case
        if case == "case_i":
            window = first
        else:
            window, offset = window[half:], offset + half

    candidate = window[0]
    if candidate is None:
        consumed = rho_source.ledger.consumed - consumed_before
        return SearchResult(False, None, tuple(bars), consumed)

    ok = verify_candidate(candidate, rho_source, bar_final, gap, beta)
    consumed = rho_source.ledger.consumed - consumed_before
    return SearchResult(ok, offset if ok else None, tuple(bars), consumed)
