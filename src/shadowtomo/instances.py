"""Random states, effects, and promise instances for scenarios and tests.

An Instance bundles a state, target effects, and the exact acceptance values.
The ground truth is validation data: runners hand algorithms only the effects
and a CopySource built from the state, and grade the output against the
stored values afterward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CONSTRUCTION_ATOL
from .errors import DimensionMismatchError
from .quantum import DensityMatrix, Effect, accept_prob


@dataclass(frozen=True)
class Instance:
    rho: DensityMatrix
    effects: tuple[Effect, ...]
    ground_truth: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.effects) != len(self.ground_truth):
            raise DimensionMismatchError("need one ground-truth value per effect")
        for e, v in zip(self.effects, self.ground_truth):
            if abs(accept_prob(e, self.rho) - v) > 1e-10:
                raise ValueError("stored ground truth does not match the instance")


def make_instance(rho: DensityMatrix, effects: list[Effect], metadata: dict | None = None) -> Instance:
    truth = tuple(accept_prob(e, rho) for e in effects)
    return Instance(rho, tuple(effects), truth, metadata or {})


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with the
    standard phase fix (diagonal of R normalized positive)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_isometry(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x k matrix with Haar-random orthonormal columns."""
    if not 1 <= k <= n:
        raise DimensionMismatchError("need 1 <= k <= n columns")
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """Gaussian-induced random mixed state of the given rank."""
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix(m / np.real(np.trace(m)), atol=CONSTRUCTION_ATOL)


def random_effect(d: int, rng: np.random.Generator) -> Effect:
    """Random effect: uniform [0,1] spectrum in a Haar-random basis."""
    u = haar_unitary(d, rng)
    vals = rng.random(d)
    return Effect((u * vals) @ u.conj().T, atol=CONSTRUCTION_ATOL)


def random_projector(d: int, rank: int, rng: np.random.Generator) -> Effect:
    iso = haar_isometry(d, rank, rng)
    return Effect(iso @ iso.conj().T, atol=CONSTRUCTION_ATOL)


def pure_with_overlap(psi: np.ndarray, overlap: float, rng: np.random.Generator) -> np.ndarray:
    """A unit vector phi with |<phi|psi>|^2 equal to `overlap` exactly."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    d = psi.shape[0]
    perp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    perp = perp - psi * np.vdot(psi, perp)
    norm = np.linalg.norm(perp)
    if norm < 1e-12:
        # random vector collapsed onto psi; any orthonormal completion works
        basis = np.eye(d, dtype=np.complex128)
        idx = int(np.argmin(np.abs(basis @ psi.conj())))
        perp = basis[idx] - psi * np.vdot(psi, basis[idx])
        norm = np.linalg.norm(perp)
    perp = perp / norm
    return np.sqrt(overlap) * psi + np.sqrt(1.0 - overlap) * perp


def near_certain_effect(rho: DensityMatrix, epsilon: float, rng: np.random.Generator) -> Effect:
    """An effect with Tr(E rho) >= 1 - epsilon: a random downward bite of
    the identity, scaled so the mass removed from rho stays under epsilon."""
    d = rho.dim
    bite = random_effect(d, rng)
    against_rho = accept_prob(bite, rho)
    top = float(np.linalg.eigvalsh(np.asarray(bite.mat))[-1])
    target = epsilon * rng.random()
    scale = 0.0 if against_rho < 1e-15 else target / against_rho
    if top > 0.0:
        scale = min(scale, 1.0 / top)
    return Effect(np.eye(d) - scale * np.asarray(bite.mat), atol=CONSTRUCTION_ATOL)


def or_promise_instance(
    d: int,
    m: int,
    planted_value: float | None,
    low_cap: float,
    rng: np.random.Generator,
) -> Instance:
    """Rank-1 projector effects against a pure state.

    planted_value None builds an all-below instance (every acceptance
    <= low_cap); otherwise exactly one effect, at a random position, has
    acceptance planted_value and the rest stay <= low_cap.
    """
    if m < 1:
        raise ValueError("need at least one effect")
    if planted_value is not None and not 0.0 <= planted_value <= 1.0:
        raise ValueError("planted value must be in [0, 1]")
    if not 0.0 <= low_cap <= 1.0:
        raise ValueError("low cap must be in [0, 1]")
    psi = random_pure(d, rng)
    rho = DensityMatrix(np.outer(psi, psi.conj()), atol=CONSTRUCTION_ATOL)
    planted_at = int(rng.integers(m)) if planted_value is not None else None
    effects = []
    for i in range(m):
        overlap = planted_value if i == planted_at else low_cap * rng.random()
        phi = pure_with_overlap(psi, overlap, rng)
        effects.append(Effect(np.outer(phi, phi.conj()), atol=CONSTRUCTION_ATOL))
    meta = {"planted_index": planted_at, "case": "case_ii" if planted_at is None else "case_i"}
    return make_instance(rho, effects, meta)


def projector_instance(d: int, m: int, rng: np.random.Generator) -> Instance:
    """Random rank-1 projector targets against a random pure state."""
    psi = random_pure(d, rng)
    rho = DensityMatrix(np.outer(psi, psi.conj()), atol=CONSTRUCTION_ATOL)
    effects = [random_projector(d, 1, rng) for _ in range(m)]
    return make_instance(rho, effects, {"kind": "rank1-projectors"})


def _diagonal_effect_with_value(
    p: np.ndarray, target: float, rng: np.random.Generator
) -> np.ndarray:
    """Diagonal effect values e in [0,1]^N with p . e == target exactly."""
    w = rng.random(p.shape[0])
    s = float(p @ w)
    if target <= s:
        e = w * (0.0 if s < 1e-15 else target / s)
    else:
        # blend toward the all-ones effect: value t + (1-t) s hits target
        t = (target - s) / (1.0 - s)
        e = t + (1.0 - t) * w
    return np.clip(e, 0.0, 1.0)


def diagonal_gap_instance(
    n: int, m: int, epsilon: float, rng: np.random.Generator
) -> tuple[Instance, list[float]]:
    """Diagonal promise instance for the gap procedure: every acceptance
    value sits at or above its cutoff, or at or below cutoff - epsilon,
    with a small extra margin on a random side. Returns (instance, cutoffs).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    p = rng.random(n) + 0.05
    p = p / p.sum()
    rho = DensityMatrix(np.diag(p), atol=CONSTRUCTION_ATOL)
    cutoff = float(np.round(0.5 + 0.25 * epsilon, 6))
    effects = []
    sides = []
    margin = 0.05 * epsilon
    for _ in range(m):
        above = bool(rng.random() < 0.5)
        if above:
            target = min(cutoff + margin + rng.random() * (1.0 - cutoff - margin), 1.0)
        else:
            target = max((cutoff - epsilon - margin) * rng.random(), 0.0)
        e = _diagonal_effect_with_value(p, target, rng)
        effects.append(Effect(np.diag(e), atol=CONSTRUCTION_ATOL))
        sides.append("above" if above else "below")
    inst = make_instance(rho, effects, {"kind": "diagonal-gap", "sides": sides})
    return inst, [cutoff] * m
