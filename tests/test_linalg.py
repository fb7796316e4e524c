"""Tests for the dense linear-algebra layer."""

import numpy as np
import pytest

from shadowtomo.errors import DimensionMismatchError
from shadowtomo.linalg import (
    as_complex_matrix,
    average_single_register_trace,
    conjugate_each_register,
    eigh_spectrum,
    herm_sqrt,
    hermiticity_defect,
    hermitize,
    partial_trace_keep,
    tensor_power,
    trace_distance,
    trace_norm,
    validate,
)
from shadowtomo.rng import substream


def random_herm(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_state(d, rng):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_as_complex_matrix_accepts_square_arrays():
    m = as_complex_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_complex_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        as_complex_matrix(np.zeros((2, 3)))


def test_tensor_power_matches_repeated_kron():
    rng = substream(1, 0)
    a = random_state(2, rng)
    expected = np.kron(np.kron(a, a), a)
    assert np.allclose(tensor_power(a, 3), expected)


def test_partial_trace_recovers_product_factors():
    rng = substream(2, 0)
    a = random_state(2, rng)
    b = random_state(2, rng)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace_keep(joint, 2, 2, 0), a, atol=1e-12)
    assert np.allclose(partial_trace_keep(joint, 2, 2, 1), b, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = substream(3, 0)
    joint = random_state(8, rng)
    for keep in range(3):
        red = partial_trace_keep(joint, 2, 3, keep)
        assert abs(np.trace(red) - 1.0) < 1e-12


def test_average_single_register_trace_on_product_state():
    # product of distinct states: the average equals the mean factor
    rng = substream(4, 0)
    a = random_state(2, rng)
    b = random_state(2, rng)
    joint = np.kron(a, b)
    avg = average_single_register_trace(joint, 2, 2)
    assert np.allclose(avg, (a + b) / 2.0, atol=1e-12)


def test_conjugate_each_register_matches_dense_oracle():
    rng = substream(5, 0)
    d, q = 2, 3
    state = random_state(d**q, rng)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = np.linalg.qr(x)[0]
    big = np.kron(np.kron(u, u), u)
    expected = big @ state @ big.conj().T
    got = conjugate_each_register(state, u, d, q)
    assert np.allclose(got, expected, atol=1e-10)


def test_conjugate_each_register_q_one_is_plain_conjugation():
    rng = substream(6, 0)
    state = random_state(3, rng)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(x)[0]
    got = conjugate_each_register(state, u, 3, 1)
    assert np.allclose(got, u @ state @ u.conj().T, atol=1e-12)


def test_trace_distance_orthogonal_pure_states():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(p0, p1) - 1.0) < 1e-12
    assert trace_distance(p0, p0) < 1e-12


def test_trace_distance_unitary_invariance():
    rng = substream(7, 0)
    for _ in range(10):
        a = random_state(3, rng)
        b = random_state(3, rng)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(x)[0]
        d1 = trace_distance(a, b)
        d2 = trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert abs(d1 - d2) < 1e-10


def test_trace_norm_of_hermitian_is_abs_eig_sum():
    rng = substream(8, 0)
    h = random_herm(4, rng)
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10


def test_herm_sqrt_squares_back():
    rng = substream(9, 0)
    for _ in range(10):
        m = random_state(4, rng)
        r = herm_sqrt(m)
        assert np.allclose(r @ r, m, atol=1e-10)
        assert hermiticity_defect(r) < 1e-10


def test_herm_sqrt_clips_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-14]).astype(complex)
    r = herm_sqrt(m)
    assert np.all(np.isfinite(r))
    assert abs(r[0, 0] - 1.0) < 1e-12


def test_hermitize_symmetrizes():
    rng = substream(10, 0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitize(a)
    assert hermiticity_defect(h) < 1e-14
    assert np.allclose(h, (a + a.conj().T) / 2.0)


def test_eigh_spectrum_sorted_ascending():
    m = np.diag([0.1, 0.7, 0.2]).astype(complex)
    spec = eigh_spectrum(m)
    vals = list(spec.eigenvalues)
    assert vals == sorted(vals)
    assert abs(vals[-1] - 0.7) < 1e-12
    # eigenvectors reconstruct the matrix
    rec = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.allclose(rec, m, atol=1e-12)


def test_validate_density_passes_and_flags():
    rng = substream(11, 0)
    rho = random_state(3, rng)
    rep = validate(rho, "density")
    assert rep.ok
    bad = validate(np.diag([0.7, 0.7, -0.4]).astype(complex), "density")
    assert not bad.ok
    assert any(v.invariant == "psd" for v in bad.violations)


def test_validate_effect_flags_above_identity():
    rep = validate(np.diag([1.5, 0.0]).astype(complex), "effect")
    assert not rep.ok


def test_validate_unknown_kind_raises():
    with pytest.raises(ValueError):
        validate(np.eye(2, dtype=complex), "wibble")
