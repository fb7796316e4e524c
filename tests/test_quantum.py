"""Tests for states, effects, collapse, and threshold amplification."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from dense_reference import materialize_threshold
from shadowtomo import linalg, quantum
from shadowtomo.errors import DegenerateBranchError, DimensionMismatchError
from shadowtomo.instances import random_density, random_effect
from shadowtomo.quantum import (
    DIRECTIONS,
    DensityMatrix,
    Effect,
    ThresholdEffect,
    accept_prob,
    apply_effect,
    binomial_tail,
    collapse,
    leaf_effect,
    sequential_accept_all,
    threshold_accept_prob,
    threshold_diagonal_values,
    unit_width,
)
from shadowtomo.rng import substream


def zero_effect(dim: int) -> Effect:
    return Effect(np.zeros((dim, dim), dtype=np.complex128))


def brute_force_threshold(base: np.ndarray, n: int, t: int, direction: str) -> np.ndarray:
    """Sum of subset tensor products, the defining expansion."""
    dim = base.shape[0]
    comp = np.eye(dim) - base
    total = np.zeros((dim**n, dim**n), dtype=np.complex128)
    for bits in itertools.product([0, 1], repeat=n):
        count = sum(bits)
        keep = count >= t if direction == "at_least" else count <= t
        if not keep:
            continue
        term = np.array([[1.0]], dtype=np.complex128)
        for b in bits:
            term = np.kron(term, base if b else comp)
        total += term
    return total


def binom_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def test_density_matrix_rejects_non_unit_trace():
    with pytest.raises(Exception):
        DensityMatrix(np.diag([0.7, 0.7]).astype(complex))


def test_density_matrix_rejects_negative():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.4, -0.4]).astype(complex))


def test_effect_rejects_above_identity():
    with pytest.raises(Exception):
        Effect(np.diag([1.2, 0.0]).astype(complex))


def test_accept_prob_is_trace_pairing():
    rng = substream(0, 0)
    rho = random_density(3, rng)
    e = random_effect(3, rng)
    expected = float(np.real(np.trace(e.mat @ rho.mat)))
    assert abs(accept_prob(e, rho) - expected) < 1e-12


def test_accept_prob_dimension_mismatch():
    rng = substream(1, 0)
    with pytest.raises(DimensionMismatchError):
        accept_prob(random_effect(2, rng), random_density(3, rng))


def test_collapse_projector_branches():
    rho = np.diag([0.25, 0.75]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    prob, post = collapse(rho, p1, True)
    assert abs(prob - 0.75) < 1e-12
    assert np.allclose(post, np.diag([0.0, 1.0]))
    prob, post = collapse(rho, p1, False)
    assert abs(prob - 0.25) < 1e-12
    assert np.allclose(post, np.diag([1.0, 0.0]))


def test_collapse_degenerate_branch_raises():
    rho = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(DegenerateBranchError):
        collapse(rho, p1, True)


def test_collapse_preserves_unit_trace():
    rng = substream(2, 0)
    for _ in range(20):
        rho = random_density(4, rng)
        e = random_effect(4, rng)
        prob, post = collapse(rho.mat, np.asarray(e.mat), bool(rng.integers(2)))
        assert abs(np.trace(post) - 1.0) < 1e-10
        assert 0.0 <= prob <= 1.0 + 1e-12


def test_apply_effect_probability_matches_accept_prob():
    rng = substream(3, 0)
    rho = random_density(2, rng)
    e = random_effect(2, rng)
    out = apply_effect(e, rho)
    # the default branch is the accept branch
    assert np.allclose(out.post_state.mat, collapse(rho.mat, np.asarray(e.mat), True)[1])
    assert abs(out.probability - accept_prob(e, rho)) < 1e-12
    assert abs(np.trace(out.post_state.mat) - 1.0) < 1e-10


def test_sequential_accept_all_matches_chained_collapse():
    rng = substream(4, 0)
    rho = random_density(3, rng)
    effects = [random_effect(3, rng) for _ in range(4)]
    prob, final = sequential_accept_all(effects, rho)

    state = np.asarray(rho.mat)
    joint = 1.0
    for e in effects:
        p, state = collapse(state, np.asarray(e.mat), True)
        joint *= p
    assert abs(prob - joint) < 1e-12
    assert np.allclose(final.mat, state, atol=1e-10)


def test_binomial_tail_hand_value():
    # P[Bin(3, 1/2) >= 2] = (3 + 1)/8
    assert abs(binomial_tail(3, 0.5, 2, "at_least") - 0.5) < 1e-12


def test_binomial_tail_matches_pmf_sums():
    rng = substream(5, 0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = float(rng.random())
        t = int(rng.integers(0, n + 2))
        lo = sum(binom_pmf(n, p, k) for k in range(t, n + 1))
        hi = sum(binom_pmf(n, p, k) for k in range(0, min(t, n) + 1)) if t >= 0 else 0.0
        assert abs(binomial_tail(n, p, t, "at_least") - lo) < 1e-10
        assert abs(binomial_tail(n, p, t, "at_most") - hi) < 1e-10


def test_binomial_tail_sentinel_thresholds():
    # one step outside [0, n]: empty and certain events
    assert binomial_tail(4, 0.3, 0, "at_least") == 1.0
    assert binomial_tail(4, 0.3, 5, "at_least") == 0.0
    assert binomial_tail(4, 0.3, -1, "at_most") == 0.0
    assert binomial_tail(4, 0.3, 4, "at_most") == 1.0


def _direct_tail(n, p, t, direction):
    """The tail straight from scipy, with no memo in between."""
    if direction == "at_least":
        return 1.0 if t <= 0 else 0.0 if t > n else float(special.betainc(t, n - t + 1, p))
    return 0.0 if t < 0 else 1.0 if t >= n else float(1.0 - special.betainc(t + 1, n - t, p))


def test_binomial_tail_memo_returns_the_direct_value_bit_for_bit():
    # the second pass repeats every argument, so it reads the memo
    grid = [
        (n, p, t, direction)
        for n in (1, 2, 5, 10)
        for p in (0.0, 1e-9, 0.1, 1 / 3, 0.5, 0.9, 1.0)
        for t in range(-1, n + 2)
        for direction in DIRECTIONS
    ]
    for _ in range(2):
        for n, p, t, direction in grid:
            assert binomial_tail(n, p, t, direction) == _direct_tail(n, p, t, direction)


@pytest.mark.parametrize(
    "args", [(0, 0.5, 1, "at_least"), (3, 1.5, 1, "at_least"), (3, -0.1, 1, "at_most"),
             (3, 0.5, 1, "above")],
)
def test_binomial_tail_validates_a_repeated_call(args):
    assert binomial_tail(3, 0.5, 1, "at_least") == _direct_tail(3, 0.5, 1, "at_least")
    for _ in range(2):
        with pytest.raises(ValueError):
            binomial_tail(*args)


def test_effect_spectrum_is_the_eigh_spectrum_and_read_only():
    e = random_effect(4, substream(11, 0))
    spec = e.spectrum
    want = linalg.eigh_spectrum(e.mat)
    assert np.array_equal(spec.eigenvalues, want.eigenvalues)
    assert np.array_equal(spec.eigenvectors, want.eigenvectors)
    assert e.spectrum is spec  # kept after first use
    for a in spec:
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a leaf's threshold spectrum is the kept one
    values, u = quantum.threshold_spectrum(e)
    assert values is spec.eigenvalues and u is spec.eigenvectors


def test_unit_width_and_leaf():
    e = Effect(np.eye(2))
    te = ThresholdEffect(e, 3, 2, "at_least")
    nested = ThresholdEffect(te, 2, 1, "at_least")
    assert unit_width(e) == 1
    assert unit_width(te) == 3
    assert unit_width(nested) == 6
    assert leaf_effect(nested) is e


@st.composite
def threshold_level(draw, registers=st.integers(1, 3)):
    """(registers, threshold, direction) of one valid level, sentinels included."""
    n = draw(registers)
    direction = draw(st.sampled_from(DIRECTIONS))
    lo, hi = (0, n + 1) if direction == "at_least" else (-1, n)
    return n, draw(st.integers(lo, hi)), direction


def nest(base, levels):
    m = base
    for n, t, direction in levels:
        m = ThresholdEffect(m, n, t, direction)
    return m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(threshold_level(st.integers(1, 6)), max_size=6))
def test_unit_width_is_registers_times_base_width_at_any_depth(levels):
    m = nest(Effect(np.eye(2)), levels)
    assert unit_width(m) == math.prod(n for n, _, _ in levels)
    if levels:
        assert unit_width(m) == m.registers * unit_width(m.base)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**16), threshold_level(), threshold_level())
def test_nested_threshold_accept_prob_matches_dense_operator(seed, inner, outer):
    # the fresh-mode memo relies on threshold_accept_prob being exact on
    # product states at every nesting depth, not only for flat thresholds
    rng = substream(seed, 0)
    base = random_effect(2, rng)
    rho = random_density(2, rng)
    m = nest(base, [inner, outer])
    joint = DensityMatrix(linalg.tensor_power(rho.mat, unit_width(m)), atol=1e-8)
    exact = accept_prob(materialize_threshold(m), joint)
    assert abs(threshold_accept_prob(m, accept_prob(base, rho)) - exact) < 1e-8


def test_threshold_effect_rejects_bad_threshold():
    e = Effect(np.eye(2))
    with pytest.raises(Exception):
        ThresholdEffect(e, 3, 5, "at_least")
    with pytest.raises(Exception):
        ThresholdEffect(e, 3, -2, "at_most")


def test_materialize_threshold_matches_brute_force():
    rng = substream(6, 0)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        t = int(rng.integers(0, n + 2))
        direction = "at_least" if rng.integers(2) else "at_most"
        if direction == "at_most":
            t = int(rng.integers(-1, n + 1))
        base = random_effect(2, rng)
        te = ThresholdEffect(base, n, t, direction)
        got = np.asarray(materialize_threshold(te).mat)
        want = brute_force_threshold(np.asarray(base.mat), n, t, direction)
        assert np.allclose(got, want, atol=1e-10)


def test_materialize_threshold_bounds_the_spectrum_it_builds_from(monkeypatch):
    # the spectrum check reads threshold_spectrum's values, not an eigvalsh
    te = ThresholdEffect(Effect(np.diag([0.2, 0.9])), 2, 1, "at_least")
    values, u = quantum.threshold_spectrum(te)
    monkeypatch.setattr(quantum, "threshold_spectrum", lambda m: (2.0 * values, u))
    with pytest.raises(ValueError, match="subunital"):
        materialize_threshold(te)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**16),
    st.sampled_from((2, 3)),
    threshold_level(),
    threshold_level(st.integers(1, 2)),
)
def test_nested_threshold_materializes_as_its_subset_expansion(seed, d, inner, outer):
    # the spectral construction agrees with the defining expansion on the
    # whole operator at every level, not only on product states
    base = random_effect(d, substream(seed, 0))
    got = np.asarray(materialize_threshold(nest(base, [inner, outer])).mat)
    want = brute_force_threshold(brute_force_threshold(np.asarray(base.mat), *inner), *outer)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_threshold_accept_prob_is_binomial_tail_on_products():
    rng = substream(7, 0)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(0, n + 2))
        base = random_effect(2, rng)
        rho = random_density(2, rng)
        p = accept_prob(base, rho)
        te = ThresholdEffect(base, n, t, "at_least")
        joint = DensityMatrix(linalg.tensor_power(rho.mat, n), atol=1e-8)
        exact = accept_prob(materialize_threshold(te), joint)
        assert abs(threshold_accept_prob(te, p) - exact) < 1e-8
        assert abs(threshold_accept_prob(te, p) - binomial_tail(n, p, t, "at_least")) < 1e-12


def test_threshold_accept_prob_plain_effect_passthrough():
    e = Effect(np.eye(2))
    assert threshold_accept_prob(e, 0.37) == 0.37


def test_threshold_diagonal_values_matches_materialized_diagonal():
    # diagonal base effect keeps everything diagonal, so the fast path and
    # the dense operator must agree entry by entry
    vals = np.array([0.9, 0.2])
    base = Effect(np.diag(vals).astype(complex))
    for q in (1, 2, 3):
        for t in range(-1, q + 2):
            for direction in ("at_least", "at_most"):
                if direction == "at_least" and t < 0:
                    continue
                if direction == "at_most" and t > q:
                    continue
                te = ThresholdEffect(base, q, t, direction)
                dense = np.real(np.diag(np.asarray(materialize_threshold(te).mat)))
                fast = threshold_diagonal_values(vals, q, t, direction)
                assert np.allclose(fast, dense, atol=1e-10), (q, t, direction)


def _direct_diagonal_values(eigenvalues, q, t, direction):
    """The threshold diagonal's DP run straight, with no memo in between."""
    e = np.clip(np.asarray(eigenvalues, dtype=np.float64), 0.0, 1.0)
    d = e.shape[0]
    probs = e[np.array(list(itertools.product(range(d), repeat=q)))]
    table = np.zeros((d**q, q + 1))
    table[:, 0] = 1.0
    for r in range(q):
        p = probs[:, r : r + 1]
        shifted = np.concatenate([np.zeros((d**q, 1)), table[:, :-1]], axis=1)
        table = table * (1.0 - p) + shifted * p
    counts = np.arange(q + 1)
    return table[:, counts >= t if direction == "at_least" else counts <= t].sum(axis=1)


def test_threshold_diagonal_memo_returns_the_direct_values_bit_for_bit():
    # each call is made twice in a row, so the second reads the memo; the
    # spectra include eigh's rounding just outside [0, 1]
    spectra = [random_effect(d, substream(12, d)).spectrum.eigenvalues for d in (2, 3, 4)]
    spectra.append(np.array([-1e-17, 0.25, 1.0 + 2e-16]))
    for e in spectra:
        for q in range(1, 6):
            for direction in DIRECTIONS:
                lo, hi = (0, q + 1) if direction == "at_least" else (-1, q)
                for t in range(lo, hi + 1):
                    want = _direct_diagonal_values(e, q, t, direction)
                    for _ in range(2):
                        got = threshold_diagonal_values(e, q, t, direction)
                        assert got.tobytes() == want.tobytes(), (e, q, t, direction)
                        with pytest.raises(ValueError):
                            got[0] = 0.5


def test_threshold_diagonal_values_validates_a_repeated_call():
    e = np.array([0.9, 0.2])
    assert np.array_equal(
        threshold_diagonal_values(e, 2, 1, "at_most"), _direct_diagonal_values(e, 2, 1, "at_most")
    )
    for _ in range(2):
        with pytest.raises(ValueError):
            threshold_diagonal_values(e, 2, 1, "above")


def test_threshold_acceptance_monotone_in_threshold():
    rng = substream(8, 0)
    base = random_effect(2, rng)
    rho = random_density(2, rng)
    p = accept_prob(base, rho)
    n = 4
    probs = [
        threshold_accept_prob(ThresholdEffect(base, n, t, "at_least"), p)
        for t in range(0, n + 2)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(probs, probs[1:]))


def test_zero_and_identity_effects():
    rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert accept_prob(zero_effect(2), rho) == 0.0
    assert accept_prob(Effect(np.eye(2)), rho) == 1.0
