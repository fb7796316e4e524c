"""Tests for the hard-instance families, identification strategies, and
the entropy accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shadowtomo.errors import RejectionLimitError
from shadowtomo.hardness import (
    DEFICIT_COEFF,
    binary_entropy,
    classical_estimate_all,
    entropy_report,
    gen_classical_hard_instance,
    gen_quantum_hard_instance,
    hlw_overlap_experiment,
    identify_index_classical,
    identify_index_quantum,
    overlap_statistics,
    shannon_entropy,
    signature_guess,
    _sample_subset_family,
)
from shadowtomo.ledger import CopySource
from shadowtomo.modes import FidelityMode
from shadowtomo.rng import substream
from subset_reference import reference_subset_family


def test_classical_instance_determinism():
    a = gen_classical_hard_instance(8, 4, 0.1, substream(0, 0))
    b = gen_classical_hard_instance(8, 4, 0.1, substream(0, 0))
    assert np.array_equal(a.masks, b.masks)
    assert np.array_equal(a.distributions, b.distributions)


def test_classical_instance_structure():
    inst = gen_classical_hard_instance(8, 4, 0.1, substream(1, 0))
    masks = inst.masks.astype(np.int64)
    assert masks.shape == (4, 8)
    assert np.all(masks.sum(axis=1) == 4)  # half-size subsets
    assert np.allclose(inst.distributions.sum(axis=1), 1.0, atol=1e-14)
    gram = masks @ masks.T
    lo = math.ceil(8 / 4 - 8 / 12)
    hi = math.floor(8 / 4 + 8 / 12)
    off = gram[~np.eye(4, dtype=bool)]
    assert off.min() >= lo and off.max() <= hi


def test_classical_diagonal_acceptance_is_exact():
    # matched measurement accepts with probability exactly 1/2 + 3 eps
    inst = gen_classical_hard_instance(4, 2, 0.1, substream(2, 0))
    for i in range(2):
        assert abs(inst.acceptance(i, i) - 0.8) < 1e-14


def test_classical_off_diagonal_near_half():
    inst = gen_classical_hard_instance(16, 8, 0.1, substream(3, 0))
    for i in range(8):
        for j in range(8):
            if i != j:
                assert abs(inst.acceptance(i, j) - 0.5) <= 0.1 + 1e-12


def test_classical_validation_errors():
    with pytest.raises(ValueError):
        gen_classical_hard_instance(7, 2, 0.1, substream(5, 0))  # odd N
    with pytest.raises(ValueError):
        gen_classical_hard_instance(8, 1, 0.1, substream(5, 0))  # K < 2
    with pytest.raises(ValueError):
        gen_classical_hard_instance(8, 2, 0.2, substream(5, 0))  # eps > 1/6


def _outcome(sample, n, k, rng):
    """The family's dtype, shape and bytes, or the limit's message, and the
    generator's next draw, which shows where the repair left it."""
    try:
        family = sample(n, k, rng)
        result = (family.dtype, family.shape, family.tobytes())
    except RejectionLimitError as exc:
        result = str(exc)
    return result, int(rng.integers(2**62))


def _assert_draw_for_draw(n, k, seed, trial):
    got = _outcome(_sample_subset_family, n, k, substream(seed, trial))
    assert got == _outcome(reference_subset_family, n, k, substream(seed, trial))
    return got


def test_subset_family_rejection_limit():
    # the limit is reached after the frozen repair's draws, with its message
    result, _ = _assert_draw_for_draw(4, 200, 6, 0)
    assert result == "no subset family found in 10000 attempts; K=200 is too large for N=4"


# (N, K) pairs the repair must solve, up to the shipped classical config
SUBSET_GRID = [(8, 4), (12, 6), (16, 8), (16, 32)]


def _assert_subset_family(family, n, k):
    assert family.shape == (k, n) and family.dtype == bool
    assert np.all(family.sum(axis=1) == n // 2)
    gram = family.astype(np.int64) @ family.T.astype(np.int64)
    off = gram[~np.eye(k, dtype=bool)]
    assert off.min() >= math.ceil(n / 4 - n / 12)
    assert off.max() <= math.floor(n / 4 + n / 12)


@pytest.mark.parametrize("n, k", SUBSET_GRID)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 2**16))
def test_subset_family_meets_the_overlap_constraint(n, k, seed, trial):
    family = _sample_subset_family(n, k, substream(seed, trial))
    _assert_subset_family(family, n, k)
    assert np.array_equal(family, _sample_subset_family(n, k, substream(seed, trial)))


def test_subset_family_repair_finishes_at_the_classical_config():
    # N=16, K=32 is the shipped classical config; the repair needs a few
    # hundred attempts there, far inside the limit
    for trial in range(40):
        _assert_subset_family(_sample_subset_family(16, 32, substream(0, trial)), 16, 32)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 10).map(lambda h: 2 * h),
    k=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    trial=st.integers(0, 2**16),
)
def test_subset_family_matches_the_reference_draw_for_draw(n, k, seed, trial):
    # the count decomposition makes the frozen repair's draws: same masks or
    # the same limit message, and the generator ends in the same place
    _assert_draw_for_draw(n, k, seed, trial)


class _CountingGenerator:
    """A generator that counts its `choice` calls: K initial rows, then one
    per stall kick."""

    def __init__(self, rng):
        self._rng = rng
        self.choices = 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("trial", [0, 1, 6])
def test_subset_family_matches_the_reference_through_stall_kicks(trial):
    # about half of the shipped N=16, K=32 repairs redraw a row on a plateau
    counting = _CountingGenerator(substream(0, trial))
    _sample_subset_family(16, 32, counting)
    assert counting.choices > 32
    _assert_draw_for_draw(16, 32, 0, trial)


def _quantum_acceptance(inst, i, j):
    """Tr(P_j sigma_i)."""
    return float(np.real(np.trace(inst.projectors[j] @ np.asarray(inst.sigma(i).mat))))


def test_quantum_instance_determinism_and_shape():
    a = gen_quantum_hard_instance(4, 4, 0.05, substream(8, 0))
    b = gen_quantum_hard_instance(4, 4, 0.05, substream(8, 0))
    assert np.array_equal(a.projectors, b.projectors)
    assert a.projectors.shape == (4, 4, 4)


def test_quantum_projectors_are_half_rank():
    inst = gen_quantum_hard_instance(4, 4, 0.05, substream(9, 0))
    for p in inst.projectors:
        assert np.allclose(p, p.conj().T, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert abs(np.trace(p).real - 2.0) < 1e-10


def test_quantum_diagonal_acceptance_is_exact():
    inst = gen_quantum_hard_instance(4, 4, 0.05, substream(10, 0))
    for i in range(4):
        assert abs(_quantum_acceptance(inst, i, i) - (0.5 + 3 * 0.05)) < 1e-10


def test_quantum_cross_acceptance_within_half_eps():
    inst = gen_quantum_hard_instance(4, 4, 0.05, substream(11, 0))
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(_quantum_acceptance(inst, i, j) - 0.5) <= 0.05 / 2 + 1e-10


def test_quantum_sigma_eigenvalue_structure():
    # (1 +- 6 eps)/N, each with multiplicity N/2
    inst = gen_quantum_hard_instance(4, 2, 0.05, substream(12, 0))
    vals = np.sort(np.linalg.eigvalsh(np.asarray(inst.sigma(0).mat)))
    assert np.allclose(vals, [0.175, 0.175, 0.325, 0.325], atol=1e-9)


def test_quantum_validation_errors():
    with pytest.raises(ValueError):
        gen_quantum_hard_instance(4, 2, 0.1, substream(13, 0))  # eps > 1/12


def test_binary_entropy_reference_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.8) - 0.7219280948873623) < 1e-15


def test_shannon_entropy_uniform():
    assert abs(shannon_entropy(np.full(8, 1 / 8)) - 3.0) < 1e-12


def test_entropy_closed_form_reference_value():
    # log2(4) - (1 - H2(0.8)) at N=4, eps=0.1
    inst = gen_classical_hard_instance(4, 2, 0.1, substream(14, 0))
    rep = entropy_report(inst)
    assert abs(rep.closed_form - 1.7219280948873623) < 1e-12
    assert abs(rep.closed_form - rep.direct) < 1e-10


def test_entropy_quantum_matches_closed_form():
    inst = gen_quantum_hard_instance(4, 2, 0.05, substream(15, 0))
    rep = entropy_report(inst)
    assert abs(rep.closed_form - rep.direct) < 1e-10


def test_entropy_deficit_bounded_by_coefficient():
    for eps in (0.01, 0.02, 0.05, 0.08, 0.1):
        deficit = 1.0 - binary_entropy(0.5 + 3 * eps)
        assert deficit <= DEFICIT_COEFF * eps**2
    # and the quadratic bound is not grossly loose at the top of the range
    assert 1.0 - binary_entropy(0.8) > 25.0 * 0.01


def test_classical_estimate_strategies_agree_in_the_limit():
    inst = gen_classical_hard_instance(8, 4, 0.1, substream(16, 0))
    rng = substream(16, 1)
    samples = rng.choice(8, size=60000, p=inst.distributions[0])
    a = classical_estimate_all(samples, inst.masks)
    # the same estimator by a second route: expectations against the
    # empirical histogram
    hist = np.bincount(samples, minlength=8) / samples.size
    b = inst.masks.astype(np.float64) @ hist
    assert np.allclose(a, b, atol=1e-12)
    truth = np.array([inst.acceptance(0, j) for j in range(4)])
    assert np.max(np.abs(a - truth)) < 0.02


def test_classical_estimate_rejects_empty_and_unknown():
    inst = gen_classical_hard_instance(8, 4, 0.1, substream(17, 0))
    with pytest.raises(ValueError):
        classical_estimate_all(np.array([], dtype=int), inst.masks)


def test_signature_guess_picks_planted_row():
    eps = 0.1
    k = 6
    sig = np.full((k, k), 0.5)
    np.fill_diagonal(sig, 0.5 + 3 * eps)
    for i in range(k):
        noisy = sig[i] + 0.01
        assert signature_guess(noisy, eps) == i


def test_identify_index_classical_zero_samples_guesses_flat():
    inst = gen_classical_hard_instance(8, 4, 0.1, substream(18, 0))
    guess, correct = identify_index_classical(inst, 2, 0, substream(18, 1))
    assert guess == 0
    assert not correct


def test_identify_index_success_grows_with_samples():
    inst = gen_classical_hard_instance(8, 4, 0.1, substream(19, 0))
    wins = {50: 0, 1000: 0}
    for t_samples in wins:
        for s in range(30):
            true_index = s % 4
            _, correct = identify_index_classical(
                inst, true_index, t_samples, substream(20 + t_samples, s)
            )
            wins[t_samples] += correct
    assert wins[1000] >= wins[50]
    assert wins[1000] >= 27  # near-certain identification at 1000 samples


def test_identify_index_quantum_high_copy_count():
    inst = gen_quantum_hard_instance(8, 4, 0.05, substream(21, 0))
    wins = 0
    for s in range(20):
        sigma = inst.sigma(s % 4)
        source = CopySource(sigma, FidelityMode.FRESH_COPY_STATISTICAL, substream(22, s))
        _, correct = identify_index_quantum(inst, s % 4, 4000, source)
        wins += correct
    assert wins >= 17


# exact mode would hold each test's 10 copies as one 8**10-dimensional state
@pytest.mark.parametrize("mode", [FidelityMode.PER_COPY_COLLAPSE, FidelityMode.FRESH_COPY_STATISTICAL])
def test_identify_index_quantum_draws_its_copies_from_the_source(mode):
    # T // K copies per projector, all debited to the source's ledger; a T
    # below K carries no copy and guesses from the flat estimate
    inst = gen_quantum_hard_instance(8, 4, 0.05, substream(24, 0))
    source = CopySource(inst.sigma(1), mode, substream(24, 1))
    identify_index_quantum(inst, 1, 41, source)
    assert source.ledger.attribution == {"lower-quantum": 40}
    empty = CopySource(inst.sigma(1), mode, substream(24, 1))
    identify_index_quantum(inst, 1, 3, empty)
    assert empty.ledger.consumed == 0


def test_hlw_overlap_mean_and_reports():
    overlaps = hlw_overlap_experiment(8, 300, substream(23, 0))
    assert overlaps.shape == (300,)
    rep = overlap_statistics(overlaps)
    assert abs(rep["mean"] - 0.5) < 0.03
    assert rep["max_dev_half"] <= 0.5
    # every overlap sits closer to 1/2 than to 0 or 1 on average, so the
    # tail frequency around 1/2 is far below the one around 1/4
    assert rep["tail_freq_half"] < rep["tail_freq_quarter"]


def test_hlw_concentration_improves_with_dimension():
    lo = overlap_statistics(hlw_overlap_experiment(8, 200, substream(24, 0)))
    hi = overlap_statistics(hlw_overlap_experiment(32, 200, substream(24, 1)))
    assert hi["max_dev_half"] < lo["max_dev_half"]


def test_hlw_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hlw_overlap_experiment(7, 10, substream(25, 0))
    with pytest.raises(ValueError):
        hlw_overlap_experiment(8, 0, substream(25, 0))
