"""Postselected shadow tomography, plus the promise-gap variant.

The procedure maintains a classically stored hypothesis state on q amplified
registers, starting maximally mixed. Each iteration searches the 2M
refinement measurements (an overestimate detector and an underestimate
detector per target effect, thresholded at +-3eps/4 around the hypothesis
value) for one that accepts the true state with probability at least the
promise bar. Finding one proves the hypothesis is off for that effect, and
conditioning the hypothesis on the matching postselection measurement
(thresholded at +-eps/4) moves it toward the truth while shrinking the
postselection probability p_t by at most a bounded Markov factor. When no
detector can be confirmed at the find bar, every hypothesis value is close
to the truth and the loop halts with the hypothesis values as estimates.

Measurements on real copies go through a CopySource and respect its
fidelity mode; hypothesis updates are exact classical arithmetic and cost
nothing in the ledger.

Detector thresholds that leave [0, q] are represented as never-accepting
measurements rather than clamped to the boundary. A boundary-clamped
detector stays satisfiable at hypothesis values near 0 or 1 even when the
hypothesis is already correct there (an all-reject demand is met with
certainty by a zero-probability effect), so a clamped variant keeps firing
and postselecting forever and the loop cannot halt on instances with
extreme true values. A never-accept detector simply cannot be confirmed,
which is the intended semantics: no evidence of deviation is obtainable in
that direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .config import DEFAULT_CONSTANTS, DEGENERATE_BRANCH_PROB
from .errors import (
    DegeneratePostselectionError,
    DimensionMismatchError,
    IterationBoundExceededError,
    ModeUnsupportedError,
)
from .ledger import CopySource
from .modes import GAP_REUSE_REASON, FidelityMode
from .quantum import Effect, Measurement, ThresholdEffect, leaf_effect, threshold_spectrum
from .search import SearchParams, gentle_search, search_budget

PROMISE_BAR = 5.0 / 6.0
FIND_BAR = 2.0 / 3.0

# float products like (0.5 - 0.3) * 10 land a few ulps off their exact
# integer value; threshold arithmetic must not let that flip a floor/ceil
_ROUND_SLACK = 1e-9


def _robust_ceil(x: float) -> int:
    return math.ceil(x - _ROUND_SLACK)


def _robust_floor(x: float) -> int:
    return math.floor(x + _ROUND_SLACK)


@dataclass(frozen=True)
class ShadowParams:
    """Derived operating point of one shadow-tomography run.

    ell_search is the copy cost, in q-copy units, of one search that
    reaches verification (search_budget); a search that ends in candidate
    padding debits less. A run's summary.json records as_dict() as its
    operating point, so no trial repeats these values."""

    d: int
    m: int
    epsilon: float
    delta: float
    q: int
    beta: float
    t_bound: int
    ell_search: int
    k_pred: int
    non_theoretical: bool

    def search_params(self) -> SearchParams:
        return _refinement_search(self.beta)

    def as_dict(self) -> dict:
        return {
            "D": self.d,
            "M": self.m,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "q": self.q,
            "beta": self.beta,
            "T_bound": self.t_bound,
            "ell_search": self.ell_search,
            "k_pred": self.k_pred,
            "non_theoretical": self.non_theoretical,
        }


def _refinement_search(beta: float) -> SearchParams:
    """The inner search every iteration runs: promise bar 5/6, find bar 2/3."""
    return SearchParams(c=PROMISE_BAR, epsilon=PROMISE_BAR - FIND_BAR, delta=beta)


def derived_q(d: int, epsilon: float) -> int:
    """ceil((C_q/eps^2) * (max(ln ln max(D,3), 1) + ln(1/eps)))."""
    lnln = max(math.log(math.log(max(d, 3))), 1.0)
    return math.ceil(DEFAULT_CONSTANTS.c_q / epsilon**2 * (lnln + math.log(1.0 / epsilon)))


def derived_beta(d: int, epsilon: float, delta: float) -> float:
    """delta * eps^4 / ln(max(D,3))^2, the per-search failure budget."""
    return delta * epsilon**4 / math.log(max(d, 3)) ** 2


def derive_params(
    d: int, m: int, epsilon: float, delta: float, q: int | None = None
) -> ShadowParams:
    """Compute the full operating point from (D, M, eps, delta).

    An explicit q override is honored but flags the result as
    non-theoretical: the copy-complexity guarantees assume the derived
    value. The amplified hypothesis lives in dimension D^q, which must fit
    under the dimension cap; an oversized derived q is an error unless an
    override lowers it.
    """
    if d < 2:
        raise DimensionMismatchError("need a state dimension of at least 2")
    if m < 1:
        raise ValueError("need at least one target effect")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    q_star = derived_q(d, epsilon)
    beta = derived_beta(d, epsilon, delta)
    q_eff = q_star if q is None else q
    if q_eff < 1:
        raise ValueError("q must be at least 1")
    linalg.check_dense_dim(d**q_eff, "amplified hypothesis")
    t_bound = math.ceil(DEFAULT_CONSTANTS.c_t * q_eff * math.log(d) / epsilon)
    ell_search = search_budget(2 * m, _refinement_search(beta))
    return ShadowParams(
        d=d,
        m=m,
        epsilon=epsilon,
        delta=delta,
        q=q_eff,
        beta=beta,
        t_bound=t_bound,
        ell_search=ell_search,
        k_pred=t_bound * q_eff * ell_search,
        non_theoretical=q_eff != q_star,
    )


class Hypothesis:
    """The classically stored amplified hypothesis state, as a square-root
    factor held in a frame.

    factor     (D^q, r) array V with the hypothesis state
               B^{⊗q} V V† B^{⊗q}†, or None for the initial I/D^q, which is
               the same in every frame. VV† is Hermitian PSD by
               construction, so no update hermitizes or eigenchecks it. The
               column count r never grows, and the rows where the last
               postselection's eigenvalue is exactly 0 are exactly zero
    basis      D x D unitary B, the eigenbasis of the last postselection's
               base effect (I initially)
    reduced    average single-register reduced state, the D x D matrix whose
               effect expectations are the hypothesis values; conjugating
               every register commutes with the single-register partial
               trace, so it is B (average trace of VV†) B†
    p          probability that all postselections so far succeeded
    """

    __slots__ = ("factor", "basis", "reduced", "d", "q", "p")

    def __init__(self, factor: np.ndarray | None, basis: np.ndarray, d: int, q: int, p: float):
        self.factor = factor
        self.basis = basis
        if factor is None:
            self.reduced = np.eye(d, dtype=np.complex128) / d
        else:
            reduced = linalg.average_single_register_trace(factor, d, q)
            self.reduced = basis @ reduced @ basis.conj().T
        self.d = d
        self.q = q
        self.p = p

    @classmethod
    def initial(cls, d: int, q: int) -> "Hypothesis":
        linalg.check_dense_dim(d**q, "amplified hypothesis")
        return cls(None, np.eye(d, dtype=np.complex128), d, q, 1.0)


def build_refinement_effects(
    e: Effect, hypothesis_value: float, params: ShadowParams
) -> tuple[ThresholdEffect, ThresholdEffect]:
    """The pair of deviation detectors for one target effect.

    plus accepts when the acceptance count over q registers reaches
    ceil((v + 3eps/4) q); minus when it stays at or below
    floor((v - 3eps/4) q). A demand outside [0, q] becomes a
    never-accepting measurement (see module docstring).
    """
    if not 0.0 <= hypothesis_value <= 1.0:
        raise ValueError("hypothesis value must be in [0, 1]")
    q, eps = params.q, params.epsilon
    t_plus = _robust_ceil((hypothesis_value + 0.75 * eps) * q)
    t_minus = _robust_floor((hypothesis_value - 0.75 * eps) * q)
    plus = ThresholdEffect(base=e, registers=q, threshold=min(t_plus, q + 1), direction="at_least")
    minus = ThresholdEffect(base=e, registers=q, threshold=max(t_minus, -1), direction="at_most")
    return plus, minus


def build_postselection_effect(
    e: Effect, hypothesis_value: float, sign: str, params: ShadowParams
) -> ThresholdEffect:
    """The conditioning measurement applied to the hypothesis after a find:
    thresholds at +-eps/4 around the hypothesis value, strictly inside the
    detector's +-3eps/4 thresholds."""
    q, eps = params.q, params.epsilon
    if sign == "+":
        t = _robust_ceil((hypothesis_value + 0.25 * eps) * q)
        return ThresholdEffect(base=e, registers=q, threshold=min(t, q + 1), direction="at_least")
    if sign == "-":
        t = _robust_floor((hypothesis_value - 0.25 * eps) * q)
        return ThresholdEffect(base=e, registers=q, threshold=max(t, -1), direction="at_most")
    raise ValueError("sign must be '+' or '-'")


def postselect_hypothesis(h: Hypothesis, f: ThresholdEffect) -> Hypothesis:
    """Condition the hypothesis on threshold measurement f accepting.

    New state sqrt(F) rho* sqrt(F) / Tr(F rho*); p multiplies by the
    acceptance probability. f must span the q registers with a leaf effect
    E = U diag(e) U† on one register: the threshold operator is
    U^{⊗q} diag(f) U^{⊗q}†, with Poisson-binomial tail entries f
    (threshold_spectrum), so no D^q x D^q operator is ever materialized.
    With W = (U† B)^{⊗q} V, one register-wise product from the left, the
    acceptance probability is p_acc = sum_i f_i |W_i|^2 = Tr(F rho*), and
    the new factor, in the frame U, is Y = diag(sqrt(f / p_acc)) W: one row
    scaling, and no hermitization, since Y Y† is Hermitian PSD as it is.
    Rows where f == 0 exactly are zero in Y; when fewer nonzero rows remain
    than columns, the columns are refactored by a thin QR of those rows
    (R†R = Y Y† on them), which is exact and leaves one column per row.
    The first update starts from W = I/sqrt(D^q) on the columns where f > 0.
    """
    if leaf_effect(f).dim != h.d or f.width != h.q:
        raise DimensionMismatchError("threshold shape does not match the hypothesis registers")
    fvals, u = threshold_spectrum(f)
    rows = np.flatnonzero(fvals)
    if h.factor is None:
        # I/D^q is the same in every frame; the columns where f == 0 would
        # be scaled to zero, so they are left out from the start
        y = np.zeros((fvals.shape[0], rows.shape[0]), dtype=np.complex128)
        y[rows, np.arange(rows.shape[0])] = 1.0 / math.sqrt(fvals.shape[0])
    else:
        y = linalg.conjugate_each_register(h.factor, u.conj().T @ h.basis, h.d, h.q)
    # sum_i f_i |row i|^2, the row norms summed pairwise so that rounding
    # does not grow with the factor's size; then one pass scales each row
    # by sqrt(f_i / p_acc)
    yv = y.view(np.float64)
    p_acc = float(np.sum(fvals * np.einsum("ij,ij->i", yv, yv)))
    if p_acc <= DEGENERATE_BRANCH_PROB:
        raise DegeneratePostselectionError(
            f"acceptance probability {p_acc:.3e} too small to condition on"
        )
    y *= np.sqrt(fvals / p_acc)[:, None]
    if rows.shape[0] < y.shape[1]:
        r = np.linalg.qr(y[rows].conj().T, mode="r")
        y = np.zeros((y.shape[0], rows.shape[0]), dtype=np.complex128)
        y[rows] = r.conj().T
    return Hypothesis(y, u, h.d, h.q, h.p * p_acc)


@dataclass(frozen=True)
class TranscriptStep:
    iteration: int
    index: int
    sign: str
    p_before: float
    p_after: float
    copies_debited: int
    bar_values: tuple[float, ...]
    hypothesis_value: float

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "index": self.index,
            "sign": self.sign,
            "p_before": self.p_before,
            "p_after": self.p_after,
            "copies_debited": self.copies_debited,
            "bar_values": list(self.bar_values),
        }


@dataclass(frozen=True)
class Transcript:
    steps: tuple[TranscriptStep, ...]
    halt_reason: str
    t_final: int

    def as_dict(self) -> dict:
        return {
            "steps": [s.as_dict() for s in self.steps],
            "halt_reason": self.halt_reason,
            "T": self.t_final,
        }


@dataclass(frozen=True)
class ShadowRun:
    estimates: np.ndarray
    transcript: Transcript
    copies_consumed: int


def run_shadow_tomography(
    effects: list[Effect],
    rho_source: CopySource,
    params: ShadowParams,
) -> ShadowRun:
    """Estimate Tr(E_i rho) for every target effect to within epsilon.

    Halts when no deviation detector can be confirmed at the find bar and
    returns the hypothesis values at that point. The detector for target i
    occupies candidate positions 2i (overestimate, +) and 2i+1
    (underestimate, -). Runs at most t_bound searches; needing more is an
    operating-point mismatch and raises.
    """
    if not effects:
        raise ValueError("need at least one target effect")
    if len(effects) != params.m:
        raise DimensionMismatchError(f"params expect M={params.m}, got {len(effects)} effects")
    for e in effects:
        if not isinstance(e, Effect) or e.dim != params.d:
            raise DimensionMismatchError("target effects must be single-register effects on D")

    h = Hypothesis.initial(params.d, params.q)
    sp = params.search_params()
    consumed_before = rho_source.ledger.consumed
    steps: list[TranscriptStep] = []
    mats = np.stack([e.mat for e in effects])

    for _round in range(params.t_bound):
        # every hypothesis value Tr(E_i rho_t) at once, against the reduced
        # state, clipped into [0, 1]
        traces = np.real(np.trace(mats @ h.reduced, axis1=1, axis2=2))
        values = np.clip(traces, 0.0, 1.0).tolist()
        candidates: list[Measurement | None] = []
        for e, v in zip(effects, values):
            plus, minus = build_refinement_effects(e, v, params)
            candidates.append(plus)
            candidates.append(minus)
        found = gentle_search(candidates, rho_source, sp)
        if not found.found:
            transcript = Transcript(tuple(steps), "no deviation detector confirmed", len(steps))
            consumed = rho_source.ledger.consumed - consumed_before
            return ShadowRun(np.array(values, dtype=np.float64), transcript, consumed)
        i, parity = divmod(found.index, 2)
        sign = "+" if parity == 0 else "-"
        f = build_postselection_effect(effects[i], values[i], sign, params)
        p_before = h.p
        h = postselect_hypothesis(h, f)
        steps.append(
            TranscriptStep(
                iteration=len(steps),
                index=i,
                sign=sign,
                p_before=p_before,
                p_after=h.p,
                copies_debited=found.copies_consumed,
                bar_values=found.level_bars,
                hypothesis_value=values[i],
            )
        )
    raise IterationBoundExceededError(
        f"still finding deviation detectors after {params.t_bound} searches; "
        "the operating point does not match the instance"
    )


def gap_test_size(m: int, epsilon: float, delta: float) -> int:
    """k = ceil(C_gap * ln(M/delta) / eps^2), the shared copy count."""
    return math.ceil(DEFAULT_CONSTANTS.c_gap * math.log(m / delta) / epsilon**2)


def run_promise_gap(
    effects: list[Effect],
    cutoffs: list[float],
    epsilon: float,
    delta: float,
    rho_source: CopySource,
) -> list[str]:
    """Decide Tr(E_i rho) >= c_i versus <= c_i - eps for every i, reusing
    one block of k copies for all M decisions.

    Each decision applies the collective threshold measurement with cutoff
    ceil((c_i - eps/2) k) to the same block; assuming the promise, each
    measurement is near-certain, so the sequence is gentle and all M
    answers are simultaneously correct with probability >= 1 - delta.
    Requires a source whose mode tracks collapse across measurements.
    """
    if rho_source.mode is FidelityMode.FRESH_COPY_STATISTICAL:
        raise ModeUnsupportedError(GAP_REUSE_REASON)
    if len(effects) != len(cutoffs):
        raise DimensionMismatchError("need one cutoff per effect")
    if not effects:
        return []
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    for c in cutoffs:
        if not 0.0 < c <= 1.0:
            raise ValueError("cutoffs must be in (0, 1]")
    k = gap_test_size(len(effects), epsilon, delta)
    batch = rho_source.dispense(k, "gap-test")
    decisions = []
    for e, c in zip(effects, cutoffs):
        t = _robust_ceil((c - epsilon / 2.0) * k)
        m = ThresholdEffect(
            base=e, registers=k, threshold=min(max(t, 0), k + 1), direction="at_least"
        )
        decisions.append("above" if batch.measure_collective(m) else "below")
    return decisions
