"""Lower-bound instance families and the information accounting behind them.

Both hard families hide an index i among K near-indistinguishable sources.
Classically, each source is a distribution over [N] that tilts probability
(1/2 + 3 eps vs 1/2 - 3 eps) onto a half-size subset S_i; quantumly, each is
a mixed state tilting the same weight onto a Haar-random half-dimension
subspace. Pairwise overlap constraints pin every cross acceptance near 1/2
while the matching acceptance sits at exactly 1/2 + 3 eps, so estimating all
K acceptance values to within eps identifies i. Each observed sample or copy
carries at most log2(N) - H entropy about i, and that per-sample deficit is
Theta(eps^2), which is the engine of the lower bounds.

The subset family is repaired from K random half-size rows by min-conflicts
swaps until every pairwise intersection fits; the subspace family is
rejection-sampled, each Haar candidate kept only if it satisfies the overlap
constraint against everything already kept. Both share one attempt limit.
Any family satisfying the constraints witnesses the construction, so the
sampling order carries no correctness weight. The repair's draw order is
still fixed, since pinned digests depend on it, and each move scores all of
a row's single swaps from a count decomposition, one small weighted product
of the membership matrix, rather than from an intersection vector per swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CONSTRUCTION_ATOL
from .errors import RejectionLimitError
from .instances import haar_isometry
from .ledger import CopySource
from .quantum import DensityMatrix, Effect

REJECTION_ATTEMPT_LIMIT = 10**4

# Calibrated bound on the per-sample entropy deficit 1 - H2(1/2 + 3 eps),
# in bits, valid for eps <= 0.1. The second-order expansion gives
# (3 eps)^2 * 2/ln 2 ~ 25.97 eps^2 asymptotically, but the next term is
# positive and at eps = 0.1 the ratio reaches ~27.81, so 26 is too tight
# at the boundary; 28 holds with margin on [0, 0.1].
DEFICIT_COEFF = 28.0


@dataclass(frozen=True)
class ClassicalHardInstance:
    """K tilted distributions over [N] and their indicator measurements."""

    n: int
    k: int
    epsilon: float
    masks: np.ndarray  # (K, N) bool, row i is the indicator of S_i
    distributions: np.ndarray  # (K, N), rows sum to 1

    def acceptance(self, i: int, j: int) -> float:
        """Pr over D_i that measurement j accepts."""
        return float(self.distributions[i] @ self.masks[j])


@dataclass(frozen=True)
class QuantumHardInstance:
    """K Haar half-dimension projectors with subspace states and their
    biased mixtures sigma_i = (1 - 6 eps) I/N + 6 eps rho_i."""

    n: int
    k: int
    epsilon: float
    projectors: np.ndarray  # (K, N, N)

    def sigma(self, i: int) -> DensityMatrix:
        m = (1.0 - 6.0 * self.epsilon) / self.n * np.eye(self.n) + (
            12.0 * self.epsilon / self.n
        ) * self.projectors[i]
        return DensityMatrix(m, atol=CONSTRUCTION_ATOL)


# Moves without a new best conflict total before the picked row is redrawn
# instead of swapped; min-conflicts descent alone stalls on plateaus.
_STALL_KICK = 250


def _sample_subset_family(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(K, N) bool matrix of half-size subsets with every pairwise
    intersection inside [N/4 - N/12, N/4 + N/12].

    Min-conflicts repair from K random rows: each move picks a random row
    that has a conflict and makes the single in/out swap that leaves it the
    fewest conflicts, ties broken at random. After _STALL_KICK moves without
    a new best total, the move redraws the row instead. Every drawn row and
    every move count against one shared attempt limit, and hitting it means
    K is too large for N.

    The order of random draws is fixed, and the tests pin it against a
    frozen copy of the per-candidate repair (tests/subset_reference.py).
    Each move draws rng.integers over the conflicting rows in ascending
    order, then either redraws the row (rng.choice) or draws the tie-break
    uniforms rng.random((N/2, N/2)), whose cells run over the in-positions
    ascending by the out-positions ascending.

    The candidate counts come from a decomposition instead of one
    intersection vector per swap. Swapping in-position a for out-position b
    of row i moves row j's intersection g_j to g_j - m[j, a] + m[j, b]. With
    out(v) = 1 for v outside the band, alpha_j = out(g_j - 1) - out(g_j),
    beta_j = out(g_j + 1) - out(g_j), and j = i left out, row i then has

        per_row[i] + sum_j m[j, a] (1 - m[j, b]) alpha_j
                   + (1 - m[j, a]) m[j, b] beta_j

    conflicts, which is per_row[i] + (X^T alpha)[a] + (Y^T beta)[b]
    - (X^T diag(alpha + beta) Y)[a, b] with X and Y the columns of m at the
    in- and out-positions: one (N/2 x 2K)(2K x N/2) product of [X; 1 - X]
    weighted by [alpha; beta] against [1 - Y; Y]. Every term is a small
    integer, so the float64 sums are exact. The per-row conflict counts and
    their total are updated from the one changed row and column.
    """
    half = n // 2
    lo = math.ceil(n / 4.0 - n / 12.0)
    hi = math.floor(n / 4.0 + n / 12.0)

    def draw() -> np.ndarray:
        row = np.zeros(n, dtype=np.int16)
        row[rng.choice(n, size=half, replace=False)] = 1
        return row

    # alpha, beta and out by intersection value 0..n; the last column is the
    # value held on the diagonal, a row's own slot, which counts nothing
    own = n + 1
    values = np.arange(-1, n + 2)
    out = ((values < lo) | (values > hi)).astype(np.float64)  # out(v) at index v + 1
    table = np.zeros((3, n + 2))
    table[:, :own] = out[:-2] - out[1:-1], out[2:] - out[1:-1], out[1:-1]

    members = np.stack([draw() for _ in range(k)], axis=1).astype(np.intp)  # (N, K)
    attempts = k
    # left[p] = [m[:, p]; 1 - m[:, p]] and right[p] = [1 - m[:, p]; m[:, p]]:
    # swapping a for b adds (left[a] * [alpha; beta]) . right[b] conflicts
    left = np.concatenate([members, 1 - members], axis=1).astype(np.float64)
    right = np.concatenate([1 - members, members], axis=1).astype(np.float64)
    gram = members.T @ members
    np.fill_diagonal(gram, own)
    per_row = table[2].take(gram).sum(axis=1)
    total = int(per_row.sum())  # each conflicting pair counted from both rows
    best_total = np.inf
    stall = 0
    while True:
        if total == 0:
            return members.T.astype(bool, order="C")
        if attempts >= REJECTION_ATTEMPT_LIMIT:
            raise RejectionLimitError(
                f"no subset family found in {REJECTION_ATTEMPT_LIMIT} attempts; "
                f"K={k} is too large for N={n}"
            )
        attempts += 1
        if total < best_total:
            best_total = total
            stall = 0
        else:
            stall += 1
        viol = per_row.nonzero()[0]
        i = int(viol[rng.integers(len(viol))])
        inter = gram[i]  # a view: updated in place below
        alpha_beta_out = table.take(inter, axis=1)
        before = per_row.item(i)
        if stall >= _STALL_KICK:
            # long plateau: redraw the whole row to leave the basin
            stall = 0
            best_total = np.inf
            row = draw()
            members[:, i] = left[:, i] = right[:, k + i] = row
            left[:, k + i] = right[:, i] = 1 - row
            inter[:] = members.T @ row
            inter[i] = own
            after_out = table[2].take(inter)
            after = after_out.sum()
        else:
            # all single swaps at once: (in, out) conflict counts
            by_member = members[:, i].argsort(kind="stable")  # outs, then ins, each ascending
            ins, outs = by_member[half:], by_member[:half]
            weighted = left.take(ins, axis=0) * alpha_beta_out[:2].reshape(-1)
            counts = np.dot(weighted, right.take(outs, axis=0).T)
            counts += before
            ai, bi = divmod(int((counts + rng.random((half, half))).argmin()), half)
            a, b = ins[ai], outs[bi]
            inter -= members[a]
            inter += members[b]
            inter[i] = own
            members[a, i] = left[a, i] = right[a, k + i] = 0
            members[b, i] = left[b, i] = right[b, k + i] = 1
            left[a, k + i] = right[a, i] = 1
            left[b, k + i] = right[b, i] = 0
            after_out = table[2].take(inter)
            after = counts[ai, bi]
        gram[:, i] = inter
        per_row -= alpha_beta_out[2]
        per_row += after_out
        per_row[i] = after
        total += 2 * int(after - before)


def gen_classical_hard_instance(
    n: int, k: int, epsilon: float, rng: np.random.Generator
) -> ClassicalHardInstance:
    """Half-size subsets with pairwise intersections within N/12 of N/4,
    plus the tilted distributions over them."""
    if n < 4 or n % 2:
        raise ValueError("N must be even and at least 4")
    if k < 2:
        raise ValueError("need at least two measurements")
    if not 0.0 < epsilon <= 1.0 / 6.0:
        raise ValueError("epsilon must be in (0, 1/6] to keep probabilities valid")
    half = n // 2
    masks = _sample_subset_family(n, k, rng)
    on = (0.5 + 3.0 * epsilon) / half
    off = (0.5 - 3.0 * epsilon) / half
    return ClassicalHardInstance(n, k, epsilon, masks, np.where(masks, on, off))


def gen_quantum_hard_instance(
    n: int, k: int, epsilon: float, rng: np.random.Generator
) -> QuantumHardInstance:
    """Haar rank-N/2 projectors with pairwise Tr(P_i rho_j) within 1/12 of
    1/2, plus the biased mixtures built from them."""
    if n < 2 or n % 2:
        raise ValueError("N must be even and at least 2")
    if k < 2:
        raise ValueError("need at least two measurements")
    if not 0.0 < epsilon <= 1.0 / 12.0:
        raise ValueError("epsilon must be in (0, 1/12] to keep sigma a valid state")
    half = n // 2
    projectors: list[np.ndarray] = []
    attempts = 0
    while len(projectors) < k:
        attempts += 1
        if attempts > REJECTION_ATTEMPT_LIMIT:
            raise RejectionLimitError(
                f"no projector family found in {REJECTION_ATTEMPT_LIMIT} attempts; "
                f"K={k} is too large for N={n}"
            )
        iso = haar_isometry(n, half, rng)
        cand = iso @ iso.conj().T
        ok = all(
            abs(2.0 / n * float(np.real(np.trace(cand @ p))) - 0.5) <= 1.0 / 12.0
            for p in projectors
        )
        if ok:
            projectors.append(cand)
    return QuantumHardInstance(n, k, epsilon, np.stack(projectors))


def binary_entropy(p: float) -> float:
    """H2(p) in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon_entropy(dist: np.ndarray) -> float:
    p = np.asarray(dist, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class EntropyReport:
    closed_form: float
    direct: float
    deficit: float


def entropy_report(instance: ClassicalHardInstance | QuantumHardInstance) -> EntropyReport:
    """Per-sample entropy of one source, closed form vs direct.

    closed_form = log2(N) - (1 - H2(1/2 + 3 eps)); direct recomputes the
    entropy from the realized distribution (classical) or the eigenvalues
    of sigma_0 (quantum). The deficit log2(N) - H is the information one
    sample can carry about the hidden index.
    """
    n, eps = instance.n, instance.epsilon
    closed = math.log2(n) - (1.0 - binary_entropy(0.5 + 3.0 * eps))
    if isinstance(instance, ClassicalHardInstance):
        direct = float(np.mean([shannon_entropy(row) for row in instance.distributions]))
    else:
        vals = np.linalg.eigvalsh(np.asarray(instance.sigma(0).mat))
        direct = shannon_entropy(np.clip(vals, 0.0, None))
    deficit = math.log2(n) - closed
    return EntropyReport(closed, direct, deficit)


def signature_guess(estimates: np.ndarray, epsilon: float) -> int:
    """Index whose predicted acceptance signature (1/2 + 3 eps at the match,
    1/2 elsewhere) is closest to the estimates in max-norm."""
    est = np.asarray(estimates, dtype=np.float64)
    k = est.shape[0]
    base = np.full((k, k), 0.5)
    np.fill_diagonal(base, 0.5 + 3.0 * epsilon)
    return int(np.argmin(np.max(np.abs(base - est[None, :]), axis=1)))


def classical_estimate_all(samples: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Acceptance estimates for every indicator measurement from one shared
    sample list: each indicator's mean over the samples."""
    samples = np.asarray(samples, dtype=np.intp)
    masks = np.asarray(masks, dtype=bool)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    return masks[:, samples].mean(axis=1)


def identify_index_classical(
    instance: ClassicalHardInstance,
    true_index: int,
    t_samples: int,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Draw T samples from D_i, estimate all K acceptances from the shared
    samples, and guess by signature matching. T=0 carries no information, so
    the guess defaults to the flat-estimate signature fit."""
    if t_samples == 0:
        estimates = np.full(instance.k, 0.5)
    else:
        samples = rng.choice(instance.n, size=t_samples, p=instance.distributions[true_index])
        estimates = classical_estimate_all(samples, instance.masks)
    guess = signature_guess(estimates, instance.epsilon)
    return guess, guess == true_index


def identify_index_quantum(
    instance: QuantumHardInstance,
    true_index: int,
    t_copies: int,
    source: CopySource,
) -> tuple[int, bool]:
    """Split T copies from `source`, which holds sigma_i, evenly across the
    K projective tests and estimate each acceptance by its empirical
    frequency. Quantum measurements collapse, so unlike the classical case
    the copies cannot be shared between tests; the per-test sample size is
    T // K. `true_index` only scores the guess."""
    per = t_copies // instance.k
    if per == 0:
        estimates = np.full(instance.k, 0.5)
    else:
        counts = [
            source.dispense(per, "lower-quantum").measure_count(Effect(pj))
            for pj in instance.projectors
        ]
        estimates = np.array(counts) / per
    guess = signature_guess(estimates, instance.epsilon)
    return guess, guess == true_index


def overlap_statistics(overlaps: np.ndarray) -> dict[str, float]:
    """Mean of the overlaps, and their largest deviation and 1/20-tail
    frequency around each candidate center 1/2 and 1/4."""
    return {
        "mean": float(overlaps.mean()),
        "max_dev_half": float(np.max(np.abs(overlaps - 0.5))),
        "max_dev_quarter": float(np.max(np.abs(overlaps - 0.25))),
        "tail_freq_half": float(np.mean(np.abs(overlaps - 0.5) > 0.05)),
        "tail_freq_quarter": float(np.mean(np.abs(overlaps - 0.25) > 0.05)),
    }


def hlw_overlap_experiment(n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """The overlaps Tr(P_T rho_S) of `trials` Haar half-dimension subspaces S
    with a fixed half-dimension T, one per trial.

    Unitary invariance gives E[rho_S] = I/N and hence mean 1/2;
    overlap_statistics reports their concentration around both candidate
    centers 1/4 and 1/2 without asserting either.
    """
    if n < 2 or n % 2:
        raise ValueError("N must be even and at least 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    half = n // 2
    overlaps = np.empty(trials)
    for t in range(trials):
        iso = haar_isometry(n, half, rng)
        # Tr(P_T rho_S) = (2/N) |top half of the isometry|_F^2
        overlaps[t] = 2.0 / n * float(np.sum(np.abs(iso[:half, :]) ** 2))
    return overlaps
