"""Dense complex linear algebra kernel: Hermitian matrices, tensor products,
register-wise products and reduced states of square-root factors, operator
square roots, trace distance.

All functions here work on plain complex ndarrays; quantum object semantics
(states, effects, collapse) live one layer up. Register order follows the
tensor-product convention of numpy.kron: register 0 varies slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CONSTRUCTION_ATOL, DEFAULT_DIM_CAP, POST_ARITHMETIC_ATOL, PSD_ROOT_ATOL
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
    ok: bool
    violations: tuple[Violation, ...]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a non-empty square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {m.shape}")
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


def check_dense_dim(dim: int, what: str) -> None:
    """Raise DimensionCapError if a dense `what` of dimension `dim` would
    exceed DEFAULT_DIM_CAP, the one dimension cap of the package."""
    if dim > DEFAULT_DIM_CAP:
        raise DimensionCapError(dim, DEFAULT_DIM_CAP, what)


def tensor_power(a: np.ndarray, k: int) -> np.ndarray:
    """k-fold tensor power of a square matrix, cap-checked up front."""
    a = as_complex_matrix(a)
    if k < 1:
        raise ValueError("tensor power requires k >= 1")
    check_dense_dim(a.shape[0] ** k, "tensor product")
    d = a.shape[0]
    out = a
    for _ in range(k - 1):
        # np.kron's products, without its per-call axis bookkeeping
        n = out.shape[0]
        out = (out[:, None, :, None] * a[None, :, None, :]).reshape(n * d, n * d)
    return out


def _factor_rows(v: np.ndarray, d: int, q: int) -> np.ndarray:
    """v as a complex (d^q, r) array: a square-root factor of a state on q
    registers of local dimension d, one column per factor vector."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[0] != d**q:
        raise DimensionMismatchError(f"factor of shape {v.shape} does not have {d}^{q} rows")
    return v


def average_single_register_trace(v: np.ndarray, d: int, q: int) -> np.ndarray:
    """Average of the q single-register reduced states of V V†, from the
    factor V of shape (d^q, r).

    For a hypothesis on q registers this is the d x d state whose effect
    expectations equal the per-register average acceptance probabilities.
    Registers are taken two at a time: the reduced state of registers k and
    k+1 is sum_a V_a V_a†, with V_a the d^2 x (rest) block of V's rows whose
    leading k digits are a, so V is conjugated once and each pair is one
    batched Gram product; each register's state is then a partial trace of
    the pair's. Pairs halve the passes over V, which bound the cost.
    """
    v = _factor_rows(v, d, q)
    vc = v.conj()
    out = np.zeros((d, d), dtype=np.complex128)
    for k in range(0, q, 2):
        n = d ** min(2, q - k)
        t = v.reshape(d**k, n, -1)
        gram = (t @ vc.reshape(d**k, n, -1).transpose(0, 2, 1)).sum(axis=0)
        if n == d:
            out += gram
        else:
            pair = gram.reshape(d, d, d, d)
            out += np.einsum("ikjk->ij", pair) + np.einsum("kikj->ij", pair)
    return out / q


def conjugate_each_register(v: np.ndarray, u: np.ndarray, d: int, q: int) -> np.ndarray:
    """U^{⊗q} V for V of shape (d^q, r), without forming the big unitary.

    If V is a square-root factor of rho (rho = V V†), the result is a factor
    of U^{⊗q} rho U^{⊗q}†; applied to X and then to the conjugate transpose
    of the result, it gives the two-sided U^{⊗q} X U^{⊗q}†.
    U^{⊗q} = A ⊗ B with A = U^{⊗a}, B = U^{⊗(q-a)} and a = q // 2, so the
    product is two matrix products on reshaped views of V: A on the leading
    register group, then B on the trailing one. Cost O(r · d^q · d^{q/2})
    with d^{q/2}-sized BLAS calls, and no axis permutation.
    """
    v = _factor_rows(v, d, q)
    u = as_complex_matrix(u)
    if u.shape[0] != d:
        raise DimensionMismatchError("single-register unitary has wrong dimension")
    dim, r = v.shape
    a = q // 2
    da, db = d**a, d ** (q - a)
    t = v.reshape(da, db, r)
    if a:
        t = (tensor_power(u, a) @ v.reshape(da, db * r)).reshape(da, db, r)
    return (tensor_power(u, q - a) @ t).reshape(dim, r)


def herm_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-PSD_ROOT_ATOL, 0) are clamped to zero; anything lower
    raises, since that indicates a genuinely non-PSD input rather than
    floating-point drift.
    """
    vals, vecs = eigh_spectrum(a)
    if vals[0] < -PSD_ROOT_ATOL:
        raise NotPSDError(f"eigenvalue {vals[0]:.3e} below -{PSD_ROOT_ATOL:.1e}")
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


def validate(
    m: np.ndarray,
    kind: str,
    atol: float = CONSTRUCTION_ATOL,
    eigenvalues: np.ndarray | None = None,
) -> ValidationReport:
    """Check the structural invariants of `kind` on the square matrix m and
    report every violation.

    kind is "density" or "effect". The spectrum checks read `eigenvalues`
    when the caller already holds m's spectrum, and take an eigvalsh of m
    otherwise; the Hermiticity check is always on m itself. Nothing is
    raised; the caller decides what a violation means.
    """
    if kind not in ("density", "effect"):
        raise ValueError(f"unknown validation kind {kind!r}")
    violations: list[Violation] = []
    defect = hermiticity_defect(m)
    if defect > atol:
        violations.append(Violation("hermitian", defect))

    vals = np.linalg.eigvalsh(hermitize(m)) if eigenvalues is None else np.sort(eigenvalues)
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

    return ValidationReport(not violations, tuple(violations))
