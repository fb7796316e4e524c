"""End-to-end acceptance suite.

Each test checks one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured numbers (visible
under pytest -s or -rA). Tests draw randomness only through seeded
substreams, so the whole suite is reproducible.
"""

import math
import time
from dataclasses import replace

import numpy as np

from dense_reference import controlled_or_accept_prob, materialize_threshold
from shadowtomo.config import DEFAULT_CONSTANTS
from shadowtomo.hardness import (
    entropy_report,
    gen_classical_hard_instance,
    gen_quantum_hard_instance,
    hlw_overlap_experiment,
    overlap_statistics,
)
from shadowtomo.instances import near_certain_effect, random_density, random_effect
from shadowtomo.linalg import tensor_power, trace_distance
from shadowtomo.quantum import (
    DensityMatrix,
    Effect,
    ThresholdEffect,
    accept_prob,
    apply_effect,
    binomial_tail,
    sequential_accept_all,
)
from shadowtomo.rng import substream
from shadowtomo.scenarios import ScenarioConfig, resolve, run_scenario, run_trial
from shadowtomo.search import search_copy_bound
from shadowtomo.shadow import gap_test_size


def _run_rows(scenario: str, **overrides):
    cfg = resolve(ScenarioConfig(scenario=scenario, **overrides))
    rows = []
    extras = []
    for t in range(cfg.trials):
        row, extra = run_trial(cfg, t)
        rows.append(row)
        extras.append(extra)
    return cfg, rows, extras


def test_gentle_measurement_damage_bound():
    # 100 near-certain pairs per (eps, D) setting; damage <= 2 sqrt(eps) always
    start = time.monotonic()
    checked = 0
    for eps in (1e-2, 1e-4):
        bound = 2.0 * math.sqrt(eps)
        for d in (2, 4, 8):
            for s in range(100):
                rng = substream(1001, checked)
                rho = random_density(d, rng)
                e = near_certain_effect(rho, eps, rng)
                assert accept_prob(e, rho) >= 1.0 - eps
                out = apply_effect(e, rho, accept=True)
                damage = trace_distance(out.post_state.mat, rho.mat)
                assert damage <= bound
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS gentle measurement: {checked}/600 pairs within 2*sqrt(eps), {elapsed:.1f}s")


def test_sequential_union_bound():
    # 5 near-certain effects in sequence at D=4: all-accept prob and damage
    eps = 1e-4
    m = 5
    p_bound = 1.0 - 2.0 * m * math.sqrt(eps)
    d_bound = 4.0 * math.sqrt(m * eps)
    assert abs(p_bound - 0.9) < 1e-12
    for s in range(100):
        rng = substream(1002, s)
        rho = random_density(4, rng)
        effects = [near_certain_effect(rho, eps, rng) for _ in range(m)]
        p_all, final = sequential_accept_all(effects, rho)
        assert p_all >= p_bound
        assert trace_distance(final.mat, rho.mat) <= d_bound
    print(f"PASS union bound: 100/100 instances, all-accept >= {p_bound}, damage <= {d_bound:.4f}")


def test_threshold_materialization_matches_binomial_tail():
    # dense amplified effect vs closed-form tail, exhaustive in n and t at D=2
    start = time.monotonic()
    checked = 0
    for s in range(20):
        rng = substream(1003, s)
        rho = random_density(2, rng)
        e = random_effect(2, rng)
        p = accept_prob(e, rho)
        for n in range(1, 7):
            joint = DensityMatrix(tensor_power(rho.mat, n), atol=1e-8)
            for direction in ("at_least", "at_most"):
                lo = 0 if direction == "at_least" else -1
                for t in range(lo, lo + n + 2):
                    te = ThresholdEffect(e, n, t, direction)
                    dense = materialize_threshold(te)
                    got = accept_prob(dense, joint)
                    want = binomial_tail(n, p, t, direction)
                    assert abs(got - want) <= 1e-8
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS threshold amplification: {checked} exhaustive checks within 1e-8, {elapsed:.1f}s")


def test_controlled_or_acceptance_bounds():
    # case (i): something accepts with prob near 1 -> accept prob >= (1-eps)^2/7
    for s in range(50):
        rng = substream(1004, s)
        m = int(rng.integers(1, 5))
        ell = int(rng.integers(1, 5))
        base = random_density(2, rng)
        joint = DensityMatrix(tensor_power(base.mat, ell), atol=1e-8)
        effects = [near_certain_effect(joint, 0.01, rng)]
        for _ in range(m - 1):
            t = int(rng.integers(1, ell + 1))
            effects.append(materialize_threshold(ThresholdEffect(random_effect(2, rng), ell, t, "at_least")))
        ps = [accept_prob(e, joint) for e in effects]
        eps_inst = 1.0 - max(ps)
        assert controlled_or_accept_prob(effects, joint) >= (1.0 - eps_inst) ** 2 / 7.0 - 1e-12
    # case (ii): everything accepts rarely -> accept prob <= 4 * Delta * M
    for s in range(50):
        rng = substream(1006, s)
        m = int(rng.integers(1, 5))
        ell = int(rng.integers(1, 5))
        base = random_density(2, rng)
        joint = DensityMatrix(tensor_power(base.mat, ell), atol=1e-8)
        effects = []
        for _ in range(m):
            weak = Effect(0.25 * random_effect(2, rng).mat)
            t = max(1, (ell + 1) // 2)
            effects.append(materialize_threshold(ThresholdEffect(weak, ell, t, "at_least")))
        ps = [accept_prob(e, joint) for e in effects]
        assert max(ps) <= 0.5  # stays in the all-low regime
        assert controlled_or_accept_prob(effects, joint) <= 4.0 * sum(ps) + 1e-12
    print("PASS controlled OR bounds: 50+50 constructed instances, both sides, 100%")


def test_or_decision_reliability_and_exact_consumption():
    cfg, rows, extras = _run_rows("orbound")
    assert cfg.trials == 200 and cfg.d == 2 and cfg.m == 8 and cfg.delta == 0.1
    assert cfg.mode == "fresh_copy_statistical"
    correct = sum(r.success for r in rows)
    assert correct >= (1.0 - cfg.delta) * cfg.trials
    assert all(e["exact_consumption"] for e in extras)
    print(f"PASS OR decision: {correct}/200 correct (need >= 180), consumption exact in all")


def test_gentle_search_reliability_and_copy_bound():
    cfg, rows, extras = _run_rows("search")
    assert cfg.trials == 200 and cfg.m == 8 and cfg.delta == 0.1
    hits = sum(r.success for r in rows)
    assert hits >= 0.9 * cfg.trials
    assert all(e["within_bound"] for e in extras)
    # the recorded copy bound is C_search * (log2 M)^4 / eps^2 * (ln log2 M + ln(1/delta))
    logm = math.log2(cfg.m)
    want = (
        DEFAULT_CONSTANTS.c_search
        * logm**4
        / cfg.epsilon**2
        * (math.log(logm) + math.log(1.0 / cfg.delta))
    )
    assert abs(search_copy_bound(cfg.m, cfg.epsilon, cfg.delta) - want) < 1e-9
    print(f"PASS gentle search: {hits}/200 found a high acceptor (need >= 180), bound kept in all")


def test_shadow_tomography_end_to_end():
    start = time.monotonic()
    cfg, rows, extras = _run_rows("shadow")
    elapsed = time.monotonic() - start
    assert cfg.trials == 60 and cfg.d == 2 and cfg.m == 8
    assert cfg.epsilon == 0.25 and abs(cfg.delta - 1.0 / 3.0) < 1e-12
    good = sum(r.success for r in rows)
    assert good >= (2.0 / 3.0) * cfg.trials
    assert all(e["markov_ok"] for e in extras)
    assert all(e["t_ok"] for e in extras)
    for row, extra in zip(rows, extras):
        if row.success:
            assert extra["ledger_ok"]
    assert all(e["exact_consumption"] for e in extras)
    assert elapsed < 600.0
    print(f"PASS shadow tomography: {good}/60 within eps (need >= 40), "
          f"decay + iteration + ledger bounds in all, {elapsed:.0f}s")


def test_promise_gap_reliability():
    cfg, rows, _ = _run_rows("gap")
    assert cfg.trials == 200 and cfg.m == 16 and cfg.delta == 0.1
    k = gap_test_size(cfg.m, cfg.epsilon, cfg.delta)
    want = math.ceil(
        DEFAULT_CONSTANTS.c_gap * math.log(cfg.m / cfg.delta) / cfg.epsilon**2
    )
    assert k == want
    assert all(r.copies_predicted == k for r in rows)
    correct = sum(r.success for r in rows)
    assert correct >= (1.0 - cfg.delta) * cfg.trials
    print(f"PASS promise gap: {correct}/200 trials all-correct (need >= 180), k={k}")


def test_classical_baseline_accuracy():
    cfg, rows, _ = _run_rows("classical")
    assert cfg.trials == 200 and cfg.n == 16 and cfg.k == 32 and cfg.delta == 0.1
    k_want = math.ceil(8.0 * math.log(2.0 * cfg.k / cfg.delta) / cfg.epsilon**2)
    assert all(r.copies_consumed == k_want for r in rows)
    good = sum(r.success for r in rows)
    assert good >= (1.0 - cfg.delta) * cfg.trials
    print(f"PASS classical baseline: {good}/200 all-index accurate (need >= 180), k={k_want}")


def test_hard_instance_exact_structure():
    # subset family: diagonal pinned, off-diagonal within eps/2, value grid, entropy
    eps_c = 0.1
    for s in range(50):
        inst = gen_classical_hard_instance(8, 4, eps_c, substream(1010, s))
        acc = np.array([[inst.acceptance(i, j) for j in range(4)] for i in range(4)])
        assert np.all(np.abs(np.diag(acc) - (0.5 + 3.0 * eps_c)) <= 1e-10)
        off = acc[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.5) <= eps_c / 2.0 + 1e-10)
        grid = np.sort(np.unique(np.round(inst.distributions, 12)))
        want = np.array([(1.0 - 6.0 * eps_c) / 8.0, (1.0 + 6.0 * eps_c) / 8.0])
        assert np.allclose(grid, want, atol=1e-9)
        rep = entropy_report(inst)
        assert abs(rep.closed_form - rep.direct) <= 1e-10
    # subspace family: same checks with sigma eigenvalues taking the biased pair
    eps_q = 0.05
    for s in range(50):
        inst = gen_quantum_hard_instance(4, 4, eps_q, substream(1011, s))
        sigmas = [np.asarray(inst.sigma(i).mat) for i in range(4)]
        acc = np.array(
            [[np.real(np.trace(inst.projectors[j] @ sigmas[i])) for j in range(4)] for i in range(4)]
        )
        assert np.all(np.abs(np.diag(acc) - (0.5 + 3.0 * eps_q)) <= 1e-10)
        off = acc[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off - 0.5) <= eps_q / 2.0 + 1e-10)
        lo = (1.0 - 6.0 * eps_q) / 4.0
        hi = (1.0 + 6.0 * eps_q) / 4.0
        for i in range(4):
            vals = np.sort(np.linalg.eigvalsh(np.asarray(inst.sigma(i).mat)))
            assert np.allclose(vals, [lo, lo, hi, hi], atol=1e-9)
        rep = entropy_report(inst)
        assert abs(rep.closed_form - rep.direct) <= 1e-10
    print("PASS hard instances: 50+50 instances exact to stated tolerances, 100%")


def test_subspace_overlap_concentration():
    r8 = overlap_statistics(hlw_overlap_experiment(8, 500, substream(1012, 0)))
    assert 0.48 <= r8["mean"] <= 0.52
    wins = 0
    for rep in range(10):
        a = overlap_statistics(hlw_overlap_experiment(8, 500, substream(1013, rep)))
        b = overlap_statistics(hlw_overlap_experiment(16, 500, substream(1014, rep)))
        if b["max_dev_half"] < a["max_dev_half"]:
            wins += 1
    assert wins >= 9
    print(f"PASS subspace overlap: mean {r8['mean']:.4f} in [0.48, 0.52], "
          f"N=16 tighter than N=8 in {wins}/10 experiments")


def test_money_demo_all_keys():
    cfg, rows, extras = _run_rows("money-demo")
    assert cfg.trials == 30 and cfg.qubits == 2 and cfg.epsilon == 0.25
    assert rows[0].m == 16  # every candidate key's verifier is estimated
    good = sum(r.success for r in rows)
    assert good >= (2.0 / 3.0) * cfg.trials
    for row, extra in zip(rows, extras):
        if row.success:
            assert extra["true_key_within_eps"]
    assert all(e["exact_consumption"] for e in extras)
    print(f"PASS money demo: {good}/30 trials estimate all 16 keys within eps (need >= 20)")


def test_rerun_byte_identical_csv(tmp_path):
    for scenario, trials in (("orbound", 12), ("hlw", 40)):
        cfg = ScenarioConfig(scenario=scenario, trials=trials, seed=17)
        run_scenario(replace(cfg, out_dir=str(tmp_path / scenario / "a")))
        run_scenario(replace(cfg, out_dir=str(tmp_path / scenario / "b")))
        first = (tmp_path / scenario / "a" / "results.csv").read_bytes()
        second = (tmp_path / scenario / "b" / "results.csv").read_bytes()
        assert first == second
    print("PASS reproducibility: re-runs byte-identical for both probed scenarios")
