"""Dense complex linear algebra kernel: Hermitian matrices, tensor products,
partial traces, operator square roots, trace distance.

All functions here work on plain complex ndarrays; quantum object semantics
(states, effects, collapse) live one layer up. Register order follows the
tensor-product convention of numpy.kron: register 0 varies slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CONSTRUCTION_ATOL, DEFAULT_DIM_CAP, POST_ARITHMETIC_ATOL
from .errors import DimensionCapError, DimensionMismatchError, NotPSDError


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Violation:
    invariant: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    kind: str
    ok: bool
    violations: tuple[Violation, ...]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2."""
    return (a + a.conj().T) / 2.0


def hermiticity_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def eigh_spectrum(a: np.ndarray) -> Spectrum:
    """Spectrum of a Hermitian matrix via a symmetric eigensolver."""
    vals, vecs = np.linalg.eigh(hermitize(as_complex_matrix(a)))
    return Spectrum(vals, vecs)


def tensor_power(a: np.ndarray, k: int, cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """k-fold tensor power of a square matrix, cap-checked up front."""
    a = as_complex_matrix(a)
    if k < 1:
        raise ValueError("tensor power requires k >= 1")
    if a.shape[0] ** k > cap:
        raise DimensionCapError(a.shape[0] ** k, cap)
    out = a
    for _ in range(k - 1):
        out = np.kron(out, a)
    return out


def _registers_view(state: np.ndarray, d: int, q: int) -> np.ndarray:
    dim = state.shape[0]
    if d**q != dim:
        raise DimensionMismatchError(f"state dimension {dim} is not {d}^{q}")
    return state.reshape((d,) * (2 * q))


def partial_trace_keep(state: np.ndarray, d: int, q: int, keep: int) -> np.ndarray:
    """Trace out all registers except `keep` from a state on q registers of
    local dimension d."""
    state = as_complex_matrix(state)
    if not 0 <= keep < q:
        raise DimensionMismatchError(f"register index {keep} out of range for q={q}")
    before = d**keep
    after = d ** (q - keep - 1)
    t = state.reshape(before, d, after, before, d, after)
    return np.einsum("aibajb->ij", t)


def average_single_register_trace(state: np.ndarray, d: int, q: int) -> np.ndarray:
    """Average of the q single-register reduced states.

    For a hypothesis on q registers this is the d x d state whose effect
    expectations equal the per-register average acceptance probabilities.
    """
    state = as_complex_matrix(state)
    _registers_view(state, d, q)  # dimension check
    out = np.zeros((d, d), dtype=np.complex128)
    for r in range(q):
        out += partial_trace_keep(state, d, q, r)
    return out / q


def conjugate_each_register(state: np.ndarray, u: np.ndarray, d: int, q: int) -> np.ndarray:
    """Apply (U^{⊗q}) state (U^{⊗q})† without forming the big unitary.

    Cost O(q · dim² · d) instead of a dense dim x dim x dim product.
    """
    state = as_complex_matrix(state)
    u = as_complex_matrix(u)
    if u.shape[0] != d:
        raise DimensionMismatchError("single-register unitary has wrong dimension")
    t = _registers_view(state, d, q)
    for r in range(q):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [r])), 0, r)
    uc = u.conj()
    for r in range(q):
        t = np.moveaxis(np.tensordot(uc, t, axes=([1], [q + r])), 0, q + r)
    return t.reshape(d**q, d**q)


def herm_sqrt(a: np.ndarray, atol: float = 1e-6) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-atol, 0) are clamped to zero; anything below -atol
    raises, since that indicates a genuinely non-PSD input rather than
    floating-point drift.
    """
    vals, vecs = eigh_spectrum(a)
    if vals[0] < -atol:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -{atol:.1e}")
    vals = np.clip(vals, 0.0, None)
    return hermitize((vecs * np.sqrt(vals)) @ vecs.conj().T)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(as_complex_matrix(a))))))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2)·||rho - sigma||_tr for same-dimension Hermitian operators."""
    rho = as_complex_matrix(rho)
    sigma = as_complex_matrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    return 0.5 * trace_norm(rho - sigma)


def validate(m: np.ndarray, kind: str, atol: float = CONSTRUCTION_ATOL) -> ValidationReport:
    """Check the structural invariants of `kind` and report every violation.

    kind is one of "hermitian", "density", "effect". Nothing is raised; the
    caller decides what a violation means.
    """
    if kind not in ("hermitian", "density", "effect"):
        raise ValueError(f"unknown validation kind {kind!r}")
    violations: list[Violation] = []
    try:
        m = as_complex_matrix(m)
    except DimensionMismatchError:
        return ValidationReport(kind, False, (Violation("square", float("nan")),))

    defect = hermiticity_defect(m)
    if defect > atol:
        violations.append(Violation("hermitian", defect))

    if kind in ("density", "effect"):
        vals = np.linalg.eigvalsh(hermitize(m))
        # spectrum checks tolerate post-arithmetic drift
        spec_atol = max(atol, POST_ARITHMETIC_ATOL)
        if vals[0] < -spec_atol:
            violations.append(Violation("psd", float(-vals[0])))
        if kind == "effect" and vals[-1] > 1.0 + spec_atol:
            violations.append(Violation("subunital", float(vals[-1] - 1.0)))
        if kind == "density":
            tr_err = abs(float(np.real(np.trace(m))) - 1.0) + abs(float(np.imag(np.trace(m))))
            if tr_err > spec_atol:
                violations.append(Violation("unit_trace", tr_err))

    return ValidationReport(kind, not violations, tuple(violations))
