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

Subset and subspace families are built incrementally: candidates are drawn
one at a time and kept only if they satisfy the overlap constraint against
everything already kept, with a global attempt limit. Any family satisfying
the constraints witnesses the construction, so the sampling order carries no
correctness weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import CONSTRUCTION_ATOL
from .errors import RejectionLimitError
from .instances import haar_isometry
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
    subsets: tuple[tuple[int, ...], ...]
    distributions: np.ndarray  # (K, N), rows sum to 1

    def masks(self) -> np.ndarray:
        out = np.zeros((self.k, self.n), dtype=bool)
        for i, s in enumerate(self.subsets):
            out[i, list(s)] = True
        return out

    def effects(self) -> list[Effect]:
        return [Effect(np.diag(row.astype(np.float64)), atol=CONSTRUCTION_ATOL) for row in self.masks()]

    def acceptance(self, i: int, j: int) -> float:
        """Pr over D_i that measurement j accepts."""
        return float(self.distributions[i] @ self.masks()[j])

    def as_json_dict(self) -> dict:
        return {
            "kind": "classical",
            "N": self.n,
            "K": self.k,
            "epsilon": self.epsilon,
            "subsets": [list(s) for s in self.subsets],
            "distributions": [[float(x) for x in row] for row in self.distributions],
        }


@dataclass(frozen=True)
class QuantumHardInstance:
    """K Haar half-dimension projectors with subspace states and their
    biased mixtures sigma_i = (1 - 6 eps) I/N + 6 eps rho_i."""

    n: int
    k: int
    epsilon: float
    projectors: np.ndarray  # (K, N, N)

    def rho(self, i: int) -> DensityMatrix:
        return DensityMatrix(2.0 / self.n * self.projectors[i], atol=CONSTRUCTION_ATOL)

    def sigma(self, i: int) -> DensityMatrix:
        m = (1.0 - 6.0 * self.epsilon) / self.n * np.eye(self.n) + (
            12.0 * self.epsilon / self.n
        ) * self.projectors[i]
        return DensityMatrix(m, atol=CONSTRUCTION_ATOL)

    def effects(self) -> list[Effect]:
        return [Effect(p, atol=CONSTRUCTION_ATOL) for p in self.projectors]

    def acceptance(self, i: int, j: int) -> float:
        """Tr(P_j sigma_i)."""
        return float(np.real(np.trace(self.projectors[j] @ np.asarray(self.sigma(i).mat))))

    def as_json_dict(self) -> dict:
        return {
            "kind": "quantum",
            "N": self.n,
            "K": self.k,
            "epsilon": self.epsilon,
            "projectors": [
                [[[float(z.real), float(z.imag)] for z in row] for row in p] for p in self.projectors
            ],
        }


# Fraction of repair moves that are random walks rather than best-swap
# descent; keeps the sampler off plateaus. Calibrated so N=16, K=32
# converges well inside the attempt limit.
_REPAIR_NOISE = 0.1
_SEED_PHASE_BUDGET = 2500
_STALL_KICK = 250


def _sample_subset_family(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(K, N) 0/1 matrix of half-size subsets with every pairwise
    intersection inside [N/4 - N/12, N/4 + N/12].

    Candidates are drawn one at a time and kept while they stay compatible
    with everything already kept; once fresh draws stop fitting, single
    element swaps repair the remaining conflicts (min-conflicts descent
    with a random-walk fraction). Every proposed subset counts against one
    shared attempt limit, and hitting it means K is too large for N.
    """
    half = n // 2
    lo = math.ceil(n / 4.0 - n / 12.0)
    hi = math.floor(n / 4.0 + n / 12.0)
    attempts = 0

    def draw() -> np.ndarray:
        cand = np.zeros(n, dtype=np.int16)
        cand[rng.choice(n, size=half, replace=False)] = 1
        return cand

    m = np.zeros((k, n), dtype=np.int16)
    rows = 0
    while rows < k and attempts < min(_SEED_PHASE_BUDGET, REJECTION_ATTEMPT_LIMIT):
        attempts += 1
        cand = draw()
        inter = m[:rows] @ cand
        if rows == 0 or bool(np.all((inter >= lo) & (inter <= hi))):
            m[rows] = cand
            rows += 1
    if rows == k:
        return m
    while rows < k:
        m[rows] = draw()
        rows += 1
        attempts += 1

    mid = (lo + hi) // 2  # self-intersections masked with an always-legal value
    gram = m @ m.T
    np.fill_diagonal(gram, mid)
    bad = (gram < lo) | (gram > hi)
    best_total = np.inf
    stall = 0
    while attempts <= REJECTION_ATTEMPT_LIMIT:
        per_row = bad.sum(axis=1)
        total = int(per_row.sum())
        if total == 0:
            return m
        if total < best_total:
            best_total = total
            stall = 0
        else:
            stall += 1
        viol = np.flatnonzero(per_row > 0)
        i = int(viol[rng.integers(len(viol))])
        ins = np.flatnonzero(m[i] == 1)
        outs = np.flatnonzero(m[i] == 0)
        attempts += 1
        if stall >= _STALL_KICK:
            # long plateau: redraw the whole row to leave the basin
            stall = 0
            best_total = np.inf
            cand = draw()
            m[i] = cand
            inter = (m @ cand).astype(np.int16)
            inter[i] = mid
            gram[i, :] = inter
            gram[:, i] = inter
            nb = (inter < lo) | (inter > hi)
            bad[i, :] = nb
            bad[:, i] = nb
            continue
        if rng.random() < _REPAIR_NOISE:
            a = int(ins[rng.integers(len(ins))])
            b = int(outs[rng.integers(len(outs))])
            inter = gram[i] - m[:, a] + m[:, b]
        else:
            # all single swaps at once: (in, out, row) intersection updates
            cand_inter = gram[i][None, None, :] - m[:, ins].T[:, None, :] + m[:, outs].T[None, :, :]
            cand_inter[:, :, i] = mid
            counts = ((cand_inter < lo) | (cand_inter > hi)).sum(axis=2)
            flat = int(np.argmin(counts + rng.random(counts.shape)))
            ai, bi = divmod(flat, len(outs))
            a, b = int(ins[ai]), int(outs[bi])
            inter = cand_inter[ai, bi]
        inter = inter.copy()
        inter[i] = mid
        m[i, a] = 0
        m[i, b] = 1
        gram[i, :] = inter
        gram[:, i] = inter
        nb = (inter < lo) | (inter > hi)
        bad[i, :] = nb
        bad[:, i] = nb
    raise RejectionLimitError(
        f"no subset family found in {REJECTION_ATTEMPT_LIMIT} attempts; "
        f"K={k} is too large for N={n}"
    )


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
    family = _sample_subset_family(n, k, rng).astype(bool)
    subsets = tuple(tuple(int(x) for x in np.flatnonzero(row)) for row in family)
    on = (0.5 + 3.0 * epsilon) / half
    off = (0.5 - 3.0 * epsilon) / half
    dists = np.where(family, on, off)
    return ClassicalHardInstance(n, k, epsilon, subsets, dists)


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
    per_sample_information_bound: float


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
    return EntropyReport(closed, direct, deficit, deficit)


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
        estimates = classical_estimate_all(samples, instance.masks())
    guess = signature_guess(estimates, instance.epsilon)
    return guess, guess == true_index


def identify_index_quantum(
    instance: QuantumHardInstance,
    true_index: int,
    t_copies: int,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Split T fresh copies of sigma_i evenly across the K projective tests
    and estimate each acceptance by its empirical frequency. Quantum
    measurements collapse, so unlike the classical case the copies cannot
    be shared between tests; the per-test sample size is T // K."""
    per = t_copies // instance.k
    if per == 0:
        estimates = np.full(instance.k, 0.5)
    else:
        truth = np.array([instance.acceptance(true_index, j) for j in range(instance.k)])
        counts = rng.binomial(per, np.clip(truth, 0.0, 1.0))
        estimates = counts / per
    guess = signature_guess(estimates, instance.epsilon)
    return guess, guess == true_index


@dataclass(frozen=True)
class OverlapReport:
    n: int
    trials: int
    mean: float
    max_dev_half: float
    max_dev_quarter: float
    tail_freq_half: float
    tail_freq_quarter: float
    overlaps: np.ndarray = field(repr=False)


def hlw_overlap_experiment(n: int, trials: int, rng: np.random.Generator) -> OverlapReport:
    """Concentration of Tr(P_T rho_S) for a fixed half-dimension T and Haar
    half-dimension S.

    Unitary invariance gives E[rho_S] = I/N and hence mean 1/2, and the
    concentration radius of 1/20 is reported around both candidate centers
    1/4 and 1/2 without asserting either.
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
    return OverlapReport(
        n=n,
        trials=trials,
        mean=float(overlaps.mean()),
        max_dev_half=float(np.max(np.abs(overlaps - 0.5))),
        max_dev_quarter=float(np.max(np.abs(overlaps - 0.25))),
        tail_freq_half=float(np.mean(np.abs(overlaps - 0.5) > 0.05)),
        tail_freq_quarter=float(np.mean(np.abs(overlaps - 0.25) > 0.05)),
        overlaps=overlaps,
    )
