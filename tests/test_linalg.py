"""Tests for the dense linear-algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowtomo.errors import DimensionMismatchError
from shadowtomo.linalg import (
    as_complex_matrix,
    average_single_register_trace,
    conjugate_each_register,
    eigh_spectrum,
    herm_sqrt,
    hermiticity_defect,
    hermitize,
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


def random_factor(rows, cols, rng):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _dense_average_trace(state, d, q):
    """Average of the q single-register partial traces of a dense state."""
    t = [state.reshape(d**k, d, d ** (q - k - 1), d**k, d, d ** (q - k - 1)) for k in range(q)]
    return sum(np.einsum("aibajb->ij", x) for x in t) / q


def test_average_single_register_trace_on_product_state():
    # product of distinct states: the average equals the mean factor
    rng = substream(4, 0)
    va = random_factor(2, 3, rng)
    vb = random_factor(2, 2, rng)
    va, vb = va / np.linalg.norm(va), vb / np.linalg.norm(vb)
    a, b = va @ va.conj().T, vb @ vb.conj().T
    avg = average_single_register_trace(np.kron(va, vb), 2, 2)
    assert np.allclose(avg, (a + b) / 2.0, atol=1e-12)


def test_conjugate_each_register_matches_dense_oracle():
    rng = substream(5, 0)
    d, q = 2, 3
    v = random_factor(d**q, 3, rng)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u = np.linalg.qr(x)[0]
    big = np.kron(np.kron(u, u), u)
    got = conjugate_each_register(v, u, d, q)
    assert np.allclose(got, big @ v, atol=1e-10)
    # the factor of the conjugated state
    assert np.allclose(got @ got.conj().T, big @ v @ v.conj().T @ big.conj().T, atol=1e-10)


def _tensordot_product(v, u, d, q):
    """Register-by-register reference: one tensordot and axis move per
    register."""
    t = v.reshape((d,) * q + (v.shape[1],))
    for r in range(q):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [r])), 0, r)
    return t.reshape(d**q, v.shape[1])


def _dense_product(v, u, q):
    big = u
    for _ in range(q - 1):
        big = np.kron(big, u)
    return big @ v


_CONJUGATION_SHAPES = [(d, q) for d in (2, 3, 4) for q in range(1, 11) if d**q <= 1024]


@pytest.mark.parametrize("d, q", _CONJUGATION_SHAPES)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_grouped_conjugation_matches_tensordot_and_dense_references(d, q, seed):
    rng = substream(seed, 0)
    v = random_factor(d**q, 5, rng)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    got = conjugate_each_register(v, u, d, q)
    for ref in (_tensordot_product(v, u, d, q), _dense_product(v, u, q)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


_FACTOR_SHAPES = [(d, q) for d in (2, 3, 4) for q in range(1, 9) if d**q <= 256]


@pytest.mark.parametrize("d, q", _FACTOR_SHAPES)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), cols=st.sampled_from(("1", "3", "d^q")))
def test_factor_kernels_match_dense_references(d, q, seed, cols):
    # both kernels on a rectangular factor V: U^{⊗q} V against the Kronecker
    # product, and the averaged reduced state against that of V V†
    rng = substream(seed, 0)
    dim = d**q
    v = random_factor(dim, {"1": 1, "3": 3, "d^q": dim}[cols], rng)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    want = _dense_product(v, u, q)
    got = conjugate_each_register(v, u, d, q)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    avg = _dense_average_trace(v @ v.conj().T, d, q)
    got = average_single_register_trace(v, d, q)
    assert np.max(np.abs(got - avg)) <= 1e-12 * np.max(np.abs(avg))


def test_factor_kernels_reject_a_wrong_row_count():
    v = np.zeros((6, 2), dtype=np.complex128)
    with pytest.raises(DimensionMismatchError):
        conjugate_each_register(v, np.eye(2), 2, 3)
    with pytest.raises(DimensionMismatchError):
        average_single_register_trace(v, 2, 3)


def test_conjugate_each_register_q_one_is_plain_conjugation():
    rng = substream(6, 0)
    v = random_factor(3, 2, rng)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(x)[0]
    got = conjugate_each_register(v, u, 3, 1)
    assert np.allclose(got, u @ v, atol=1e-12)


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


def test_validate_bounds_a_given_spectrum_and_checks_hermiticity_on_the_matrix():
    m = np.diag([0.2, 0.5]).astype(complex)
    assert validate(m, "effect", eigenvalues=np.array([0.5, 0.2])).ok
    bad = validate(m, "effect", eigenvalues=np.array([1.5, -0.4]))
    assert {v.invariant for v in bad.violations} == {"psd", "subunital"}
    skew = m + np.array([[0.0, 1e-3], [0.0, 0.0]])
    assert not validate(skew, "effect", eigenvalues=np.array([0.2, 0.5])).ok


def test_validate_unknown_kind_raises():
    with pytest.raises(ValueError):
        validate(np.eye(2, dtype=complex), "wibble")
