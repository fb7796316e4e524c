"""Scenario catalog, flat-file configuration, and the seeded trial runner.

Every scenario is a list of independent trials. Trial t of a run with seed s
draws all of its randomness from substream(s, t), owns a private copy source
and ledger, and reduces to one CSV row, so runs are reproducible bit for bit
and trials can execute on any number of workers without changing output.
Scenario-level thresholds (the pass/fail criteria encoded in each runner's
summary) decide the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import numpy as np

from .config import DEFAULT_CONSTANTS
from .errors import ConfigError, IterationBoundExceededError
from .hardness import (
    classical_estimate_all,
    gen_classical_hard_instance,
    gen_quantum_hard_instance,
    hlw_overlap_experiment,
    identify_index_classical,
    identify_index_quantum,
    overlap_statistics,
)
from .instances import (
    diagonal_gap_instance,
    near_certain_effect,
    or_promise_instance,
    projector_instance,
    random_density,
)
from .ledger import CopySource
from .linalg import trace_distance
from .modes import GAP_REUSE_REASON, PER_COPY_OR_REASON, FidelityMode
from .money import make_wiesner_instance
from .orbound import OrBoundParams, or_bound_decide, random_order_or_test
from .quantum import accept_prob, apply_effect, sequential_accept_all
from .results import TrialRow, aggregate, success_rate, write_csv, write_json
from .rng import substream
from .search import SearchParams, gentle_search, search_copy_bound
from .shadow import (
    ShadowParams,
    ShadowRun,
    Transcript,
    derive_params,
    gap_test_size,
    run_promise_gap,
    run_shadow_tomography,
)

# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat configuration; None means "use the scenario default"."""

    scenario: str
    trials: int | None = None
    seed: int = 0
    mode: str | None = None
    d: int | None = None
    m: int | None = None
    n: int | None = None
    k: int | None = None
    qubits: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    c: float | None = None
    q: int | None = None
    t_samples: int | None = None
    case: str | None = None
    planted_value: float | None = None
    low_cap: float | None = None
    budget: int | None = None
    out_dir: str = "results"
    workers: int = 1


# Uppercase config-file spellings of dimension fields. Every other key is
# spelled as its field; the lowercase spellings of these four are rejected.
_ALIASES = {"D": "d", "M": "m", "N": "n", "K": "k"}

# Keys every scenario accepts; a scenario's defaults declare all the others.
_RUN_KEYS = ("scenario", "seed", "out_dir", "workers")

# field name -> int, float or str, read from the dataclass annotations
_FIELD_TYPES = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(ScenarioConfig).items()
}


def file_key(name: str) -> str:
    """The config-file spelling of field `name` (D/M/N/K uppercase)."""
    return name.upper() if name in _ALIASES.values() else name


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; later keys win."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{origin}:{lineno}: empty key or value")
        pairs[key] = value
    return pairs


def build_config(pairs: dict[str, str]) -> ScenarioConfig:
    """Typed config from raw string pairs; unknown keys are rejected."""
    if "scenario" not in pairs:
        raise ConfigError("config must set 'scenario'")
    kwargs: dict = {}
    for key, value in pairs.items():
        field_name = _ALIASES.get(key, key)
        if field_name not in _FIELD_TYPES or key in _ALIASES.values():
            raise ConfigError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[field_name]
        try:
            kwargs[field_name] = kind(value)
        except ValueError:
            need = "an integer" if kind is int else "a number"
            raise ConfigError(f"config key {key!r} needs {need}, got {value!r}") from None
    return ScenarioConfig(**kwargs)


def load_config_pairs(path: str | Path) -> dict[str, str]:
    """Raw key/value pairs of a config file, before any override."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config_text(text, origin=str(p))


def load_config(path: str | Path) -> ScenarioConfig:
    return build_config(load_config_pairs(path))


def resolve(cfg: ScenarioConfig) -> ScenarioConfig:
    """Reject keys the scenario does not read, fill its defaults and
    validate the result, including a mode the scenario refuses."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {cfg.scenario!r}; valid: {', '.join(SCENARIOS)}")
    scenario = SCENARIOS[cfg.scenario]
    defaults = scenario.defaults
    unread = [
        repr(file_key(f.name))
        for f in fields(cfg)
        if f.name not in _RUN_KEYS and f.name not in defaults and getattr(cfg, f.name) is not None
    ]
    if unread:
        raise ConfigError(
            f"scenario {cfg.scenario!r} does not read {', '.join(unread)}; "
            f"it reads {', '.join(map(file_key, defaults))}"
        )
    out = replace(cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None})

    if out.trials is None or out.trials < 1:
        raise ConfigError("trials must be >= 1")
    if out.seed < 0:
        raise ConfigError("seed must be >= 0")
    if out.workers < 1:
        raise ConfigError("workers must be >= 1")
    if out.mode not in (None, *FidelityMode):
        raise ConfigError(
            f"unknown fidelity mode {out.mode!r}; valid: {', '.join(FidelityMode)}"
        )
    reason = scenario.refuses.get(out.mode)
    if reason is not None:
        raise ConfigError(f"scenario {out.scenario!r} refuses {out.mode}: {reason}")
    for name in ("epsilon", "delta"):
        v = getattr(out, name)
        if v is not None and not 0.0 < v < 1.0:
            raise ConfigError(f"{name} must be in (0, 1)")
    if out.c is not None and not 0.0 < out.c <= 1.0:
        raise ConfigError("c must be in (0, 1]")
    if out.qubits is not None and out.qubits < 1:
        raise ConfigError("qubits must be >= 1")
    if out.case is not None and out.case not in ("planted", "all_below", "alternate"):
        raise ConfigError("case must be planted, all_below, or alternate")
    if out.t_samples is not None and out.t_samples < 0:
        raise ConfigError("t_samples must be >= 0")
    if out.budget is not None and out.budget < 1:
        raise ConfigError("budget must be >= 1 (omit it for unbounded)")
    return out


# ---------------------------------------------------------------------------
# per-trial runners: each takes (cfg, trial, the trial's generator) and
# returns (TrialRow, extras dict)


def _row(
    cfg: ScenarioConfig, trial: int, source: CopySource | None, d: int, m: int, *measured
) -> TrialRow:
    """A trial's row: the echoed run fields, the (D, M) it ran at, the mode
    of its copy source (None, an empty column, if it builds none), then
    copies_consumed, copies_predicted, max_error, success and iterations."""
    mode = None if source is None else source.mode
    return TrialRow(cfg.scenario, trial, cfg.seed, d, m, cfg.epsilon, cfg.delta, mode, *measured)


def _trial_verify_gentle(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    rho = random_density(cfg.d, rng)
    e = near_certain_effect(rho, cfg.epsilon, rng)
    p = accept_prob(e, rho)
    out = apply_effect(e, rho, accept=True)
    damage = trace_distance(out.post_state.mat, rho.mat)
    bound = 2.0 * math.sqrt(cfg.epsilon)
    success = damage <= bound and p >= 1.0 - cfg.epsilon
    row = _row(cfg, trial, None, cfg.d, 1, 1, 1, damage, success, 1)
    return row, {}


def _trial_verify_union(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    rho = random_density(cfg.d, rng)
    effects = [near_certain_effect(rho, cfg.epsilon, rng) for _ in range(cfg.m)]
    p_all, final = sequential_accept_all(effects, rho)
    damage = trace_distance(final.mat, rho.mat)
    p_bound = 1.0 - 2.0 * cfg.m * math.sqrt(cfg.epsilon)
    d_bound = 4.0 * math.sqrt(cfg.m * cfg.epsilon)
    success = p_all >= p_bound and damage <= d_bound
    row = _row(cfg, trial, None, cfg.d, cfg.m, 1, 1, damage, success, cfg.m)
    return row, {}


def _trial_orbound(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    if cfg.case == "alternate":
        truth = "case_i" if trial % 2 == 0 else "case_ii"
    elif cfg.case == "planted":
        truth = "case_i"
    else:
        truth = "case_ii"
    planted = (cfg.planted_value if cfg.planted_value is not None else cfg.c) if truth == "case_i" else None
    inst = or_promise_instance(cfg.d, cfg.m, planted, cfg.low_cap, rng)
    source = CopySource(inst.rho, cfg.mode, rng, budget=cfg.budget)
    params = OrBoundParams(c=cfg.c, epsilon=cfg.epsilon, delta=cfg.delta)
    decision = or_bound_decide(list(inst.effects), source, params)
    predicted = decision.ell * decision.rounds
    success = decision.case == truth
    row = _row(
        cfg, trial, source, cfg.d, cfg.m,
        source.ledger.consumed, predicted, 0.0 if success else 1.0, success, decision.rounds,
    )
    return row, {"exact_consumption": source.ledger.consumed == predicted}


def _trial_random_order(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = or_promise_instance(cfg.d, cfg.m, cfg.planted_value, cfg.low_cap, rng)
    source = CopySource(inst.rho, cfg.mode, rng, budget=cfg.budget)
    accepted = random_order_or_test(list(inst.effects), source)
    row = _row(
        cfg, trial, source, cfg.d, cfg.m,
        source.ledger.consumed, 1, 0.0 if accepted else 1.0, accepted, 1,
    )
    return row, {}


def _trial_search(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = or_promise_instance(cfg.d, cfg.m, cfg.planted_value, cfg.low_cap, rng)
    source = CopySource(inst.rho, cfg.mode, rng, budget=cfg.budget)
    sp = SearchParams(c=cfg.c, epsilon=cfg.epsilon, delta=cfg.delta)
    res = gentle_search(list(inst.effects), source, sp)
    bound = search_copy_bound(cfg.m, cfg.epsilon, cfg.delta)
    floor_bar = cfg.c - cfg.epsilon
    if res.found:
        truth = inst.ground_truth[res.index]
        success = truth >= floor_bar
        err = max(0.0, floor_bar - truth)
    else:
        success = False
        err = 1.0
    row = _row(
        cfg, trial, source, cfg.d, cfg.m,
        res.copies_consumed, int(math.floor(bound)), err, success, len(res.level_bars),
    )
    return row, {"within_bound": res.copies_consumed <= bound}


# slack on the Markov bound for the rounding in p_after / p_before
_MARKOV_TOL = 1e-9


def _markov_ok(transcript: Transcript, epsilon: float) -> bool:
    for step in transcript.steps:
        v = step.hypothesis_value
        if step.sign == "+":
            bound = v / (v + epsilon / 4.0)
        else:
            bound = (1.0 - v) / (1.0 - v + epsilon / 4.0)
        if step.p_before <= 0.0:
            return False
        if step.p_after / step.p_before > bound + _MARKOV_TOL:
            return False
    return True


def _shadow_params(cfg: ScenarioConfig) -> ShadowParams:
    return derive_params(cfg.d, cfg.m, cfg.epsilon, cfg.delta, q=cfg.q)


def _money_params(cfg: ScenarioConfig) -> ShadowParams:
    """A bill of n qubits is a state on D = 2^n with M = 4^n verifiers."""
    return derive_params(2**cfg.qubits, 4**cfg.qubits, cfg.epsilon, cfg.delta, q=cfg.q)


def _shadow_style_trial(cfg: ScenarioConfig, trial: int, inst, params: ShadowParams, rng):
    """One shadow run on `inst` at `params`; its copy source continues `rng`,
    the generator the instance was drawn from."""
    source = CopySource(inst.rho, cfg.mode, rng, budget=cfg.budget)
    # a search that finds a detector debits exactly q * ell_search copies
    per_search = params.q * params.ell_search
    try:
        run = run_shadow_tomography(list(inst.effects), source, params)
    except IterationBoundExceededError as exc:
        row = _row(
            cfg, trial, source, params.d, params.m,
            source.ledger.consumed, params.k_pred, 1.0, False, params.t_bound,
        )
        return row, {
            "error": f"{type(exc).__name__}: {exc}", "t_ok": False,
            "ledger_ok": source.ledger.consumed <= params.k_pred,
            "exact_consumption": source.ledger.consumed == params.t_bound * per_search,
        }
    truth = np.asarray(inst.ground_truth)
    err = float(np.max(np.abs(run.estimates - truth)))
    success = err <= cfg.epsilon
    markov = _markov_ok(run.transcript, cfg.epsilon)
    t_ok = run.transcript.t_final <= params.t_bound
    ledger_ok = run.copies_consumed <= params.k_pred
    row = _row(
        cfg, trial, source, params.d, params.m,
        run.copies_consumed, params.k_pred, err, success, run.transcript.t_final,
    )
    return row, {
        "transcript": run.transcript.as_dict(),
        "estimates": run.estimates,
        "markov_ok": markov,
        "t_ok": t_ok,
        "ledger_ok": ledger_ok,
        "exact_consumption": _exact_consumption(run, per_search, params.m),
    }


def _exact_consumption(run: ShadowRun, per_search: int, m: int) -> bool:
    """T steps take T + 1 searches, and each debits exactly `per_search`
    copies. Only the last, which finds nothing, may debit less: when it ends
    in the None padding that fills the 2M candidates up to a power of two,
    it skips the padded levels' OR decisions and the verification."""
    steps = run.transcript.steps
    last = run.copies_consumed - sum(s.copies_debited for s in steps)
    padded = (2 * m) & (2 * m - 1) != 0
    return all(s.copies_debited == per_search for s in steps) and (
        last == per_search or (padded and last < per_search)
    )


def _trial_shadow(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = projector_instance(cfg.d, cfg.m, rng)
    return _shadow_style_trial(cfg, trial, inst, _shadow_params(cfg), rng)


def _trial_money(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = make_wiesner_instance(cfg.qubits, rng)
    row, extras = _shadow_style_trial(cfg, trial, inst, _money_params(cfg), rng)
    if "error" not in extras:
        idx = inst.metadata["true_key_index"]
        err = abs(extras["estimates"][idx] - inst.ground_truth[idx])
        extras["true_key_within_eps"] = bool(err <= cfg.epsilon)
    return row, extras


def _trial_gap(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst, cutoffs = diagonal_gap_instance(cfg.d, cfg.m, cfg.epsilon, rng)
    source = CopySource(inst.rho, cfg.mode, rng, budget=cfg.budget)
    decisions = run_promise_gap(list(inst.effects), cutoffs, cfg.epsilon, cfg.delta, source)
    sides = inst.metadata["sides"]
    wrong = sum(1 for got, want in zip(decisions, sides) if got != want)
    k = gap_test_size(cfg.m, cfg.epsilon, cfg.delta)
    row = _row(
        cfg, trial, source, cfg.d, cfg.m,
        source.ledger.consumed, k, wrong / cfg.m, wrong == 0, cfg.m,
    )
    return row, {}


def _trial_classical(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    k_samples = math.ceil(8.0 * math.log(2.0 * cfg.k / cfg.delta) / cfg.epsilon**2)
    inst = gen_classical_hard_instance(cfg.n, cfg.k, cfg.epsilon, rng)
    true_index = int(rng.integers(cfg.k))
    samples = rng.choice(cfg.n, size=k_samples, p=inst.distributions[true_index])
    estimates = classical_estimate_all(samples, inst.masks)
    truth = np.array([inst.acceptance(true_index, j) for j in range(cfg.k)])
    err = float(np.max(np.abs(estimates - truth)))
    success = err <= cfg.epsilon
    row = _row(cfg, trial, None, cfg.n, cfg.k, k_samples, k_samples, err, success, 1)
    return row, {}


def _trial_lower_classical(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = gen_classical_hard_instance(cfg.n, cfg.k, cfg.epsilon, rng)
    true_index = int(rng.integers(cfg.k))
    _, correct = identify_index_classical(inst, true_index, cfg.t_samples, rng)
    row = _row(
        cfg, trial, None, cfg.n, cfg.k,
        cfg.t_samples, cfg.t_samples, 0.0 if correct else 1.0, correct, 1,
    )
    return row, {}


def _trial_lower_quantum(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    inst = gen_quantum_hard_instance(cfg.n, cfg.k, cfg.epsilon, rng)
    true_index = int(rng.integers(cfg.k))
    source = CopySource(inst.sigma(true_index), cfg.mode, rng, budget=cfg.budget)
    _, correct = identify_index_quantum(inst, true_index, cfg.t_samples, source)
    row = _row(
        cfg, trial, source, cfg.n, cfg.k,
        source.ledger.consumed, cfg.t_samples, 0.0 if correct else 1.0, correct, 1,
    )
    return row, {}


def _trial_hlw(cfg: ScenarioConfig, trial: int, rng: np.random.Generator):
    overlaps = hlw_overlap_experiment(cfg.n, 1, rng)
    overlap = float(overlaps[0])
    dev = abs(overlap - 0.5)
    row = _row(cfg, trial, None, cfg.n, 1, 1, 1, dev, dev <= cfg.epsilon, 1)
    return row, {"overlap": overlap}


# ---------------------------------------------------------------------------
# scenario-level thresholds


def _check_verify(cfg, rows, extras):
    rate = success_rate(rows)
    return {"success_rate_required": 1.0, "success_rate": rate}, rate == 1.0


def _check_orbound(cfg, rows, extras):
    rate = success_rate(rows)
    exact = all(x["exact_consumption"] for x in extras)
    need = 1.0 - cfg.delta
    return (
        {"success_rate_required": need, "success_rate": rate, "exact_consumption": exact},
        rate >= need and exact,
    )


def _check_exploratory(cfg, rows, extras):
    rate = success_rate(rows)
    return {"success_rate": rate, "exploratory": True}, True


def _check_search(cfg, rows, extras):
    rate = success_rate(rows)
    within = all(x["within_bound"] for x in extras)
    return (
        {"success_rate_required": 0.9, "success_rate": rate, "all_within_copy_bound": within},
        rate >= 0.9 and within,
    )


def _check_shadow(cfg, rows, extras):
    rate = success_rate(rows)
    # a trial that raised has no transcript, so only checked trials vote
    markov = all(x["markov_ok"] for x in extras if "error" not in x)
    t_ok = all(x["t_ok"] for x in extras)
    ledger_ok = all(x["ledger_ok"] for r, x in zip(rows, extras) if r.success)
    exact = all(x["exact_consumption"] for x in extras)
    need = 2.0 / 3.0
    info = {
        "success_rate_required": need,
        "success_rate": rate,
        "markov_all_steps": markov,
        "iteration_bound_respected": t_ok,
        "ledger_within_prediction": ledger_ok,
        "exact_consumption": exact,
    }
    errors = [f"trial {r.trial}: {x['error']}" for r, x in zip(rows, extras) if "error" in x]
    if errors:
        info["trials_unchecked"] = len(errors)
        info["errors"] = errors
    return info, rate >= need and markov and t_ok and ledger_ok and exact


def _check_rate_one_minus_delta(cfg, rows, extras):
    rate = success_rate(rows)
    need = 1.0 - cfg.delta
    return {"success_rate_required": need, "success_rate": rate}, rate >= need


def _check_hlw(cfg, rows, extras):
    stats = overlap_statistics(np.array([x["overlap"] for x in extras]))
    mean = stats.pop("mean")
    info = {"mean_overlap": mean, **stats}
    if len(rows) >= 500:
        lo, hi = 0.48, 0.52
    else:
        # overlaps lie in [0, 1], so Hoeffding bounds the mean's deviation
        # from 1/2 by this half-width with probability >= 1 - delta
        half = math.sqrt(math.log(2.0 / cfg.delta) / (2 * len(rows)))
        lo, hi = 0.5 - half, 0.5 + half
    info["mean_band"] = [lo, hi]
    return info, lo <= mean <= hi


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class Scenario:
    """One scenario: its catalog line, the defaults `resolve` fills in, the
    per-trial runner, the scenario-level threshold check and, for a
    shadow-style scenario, the operating point its trials run at.

    The keys of `defaults` declare every config key the scenario reads
    besides the run keys (scenario, seed, out_dir, workers), and `resolve`
    rejects any other set key. A default of None marks an optional key,
    read but left unset unless a config sets it. Only a scenario whose
    trials build a CopySource declares `mode` and `budget`; `refuses` maps
    each mode it cannot run soundly to modes.py's reason for `resolve`.

    A record holds only this module's private `_trial_*`, `_check_*` and
    `_*_params` functions; those look up every library call at call time, so
    a wrapper installed on a module-level name also sees the calls made by a
    record.
    """

    blurb: str
    defaults: dict
    run: Callable[[ScenarioConfig, int, np.random.Generator], tuple[TrialRow, dict]]
    check: Callable[[ScenarioConfig, list[TrialRow], list[dict]], tuple[dict, bool]]
    operating_point: Callable[[ScenarioConfig], ShadowParams] | None = None
    refuses: dict[FidelityMode, str] = field(default_factory=dict)


SCENARIOS: dict[str, Scenario] = {
    "verify-gentle": Scenario(
        "near-certain measurement damage stays below 2 sqrt(eps)",
        dict(trials=100, d=4, epsilon=1e-2, delta=0.1),
        _trial_verify_gentle,
        _check_verify,
    ),
    "verify-union-bound": Scenario(
        "M sequential near-certain measurements: all-accept and damage bounds",
        dict(trials=100, d=4, m=5, epsilon=1e-4, delta=0.1),
        _trial_verify_union,
        _check_verify,
    ),
    "orbound": Scenario(
        "amplified OR decision on planted / all-below promise instances",
        dict(
            trials=200, mode="fresh_copy_statistical", d=2, m=8, epsilon=0.5, delta=0.1,
            c=0.9, case="alternate", low_cap=0.3, planted_value=None, budget=None,
        ),
        _trial_orbound,
        _check_orbound,
        refuses={FidelityMode.PER_COPY_COLLAPSE: PER_COPY_OR_REASON},
    ),
    "random-order-or": Scenario(
        "shuffled sequential OR tester on a planted instance (exploratory)",
        dict(
            trials=50, mode="per_copy_collapse", d=2, m=8, epsilon=0.5, delta=0.1,
            planted_value=0.99, low_cap=0.01, budget=None,
        ),
        _trial_random_order,
        _check_exploratory,
    ),
    "search": Scenario(
        "gentle binary search returns a high-acceptance index within its copy bound",
        dict(
            trials=200, mode="fresh_copy_statistical", d=2, m=8, epsilon=0.5, delta=0.1,
            c=0.9, planted_value=0.95, low_cap=0.3, budget=None,
        ),
        _trial_search,
        _check_search,
        refuses={FidelityMode.PER_COPY_COLLAPSE: PER_COPY_OR_REASON},
    ),
    "shadow": Scenario(
        "full shadow tomography on random projectors, estimates within eps",
        dict(
            trials=60, mode="fresh_copy_statistical", d=2, m=8, epsilon=0.25,
            delta=1.0 / 3.0, q=10, budget=None,
        ),
        _trial_shadow,
        _check_shadow,
        _shadow_params,
        refuses={FidelityMode.PER_COPY_COLLAPSE: PER_COPY_OR_REASON},
    ),
    "gap": Scenario(
        "promise-gap decisions for diagonal instances from one shared copy block",
        dict(
            trials=200, mode="per_copy_collapse", d=4, m=16, epsilon=0.2, delta=0.1,
            budget=None,
        ),
        _trial_gap,
        _check_rate_one_minus_delta,
        refuses={FidelityMode.FRESH_COPY_STATISTICAL: GAP_REUSE_REASON},
    ),
    "classical": Scenario(
        "empirical-mean baseline on the classical hard family",
        dict(trials=200, n=16, k=32, epsilon=0.1, delta=0.1),
        _trial_classical,
        _check_rate_one_minus_delta,
    ),
    "lower-classical": Scenario(
        "identification success vs sample count on the classical hard family",
        dict(trials=50, n=16, k=8, epsilon=0.1, delta=0.1, t_samples=500),
        _trial_lower_classical,
        _check_exploratory,
    ),
    "lower-quantum": Scenario(
        "identification success vs copy count on the quantum hard family",
        dict(
            trials=50, mode="fresh_copy_statistical", n=8, k=8, epsilon=0.08, delta=0.1,
            t_samples=500, budget=None,
        ),
        _trial_lower_quantum,
        _check_exploratory,
    ),
    "hlw": Scenario(
        "concentration of the random-subspace overlap around 1/2",
        dict(trials=500, n=8, epsilon=0.05, delta=0.1),
        _trial_hlw,
        _check_hlw,
    ),
    "money-demo": Scenario(
        "estimating every verifier's acceptance on a conjugate-coding bill",
        dict(
            trials=30, mode="fresh_copy_statistical", qubits=2, epsilon=0.25,
            delta=1.0 / 3.0, q=4, budget=None,
        ),
        _trial_money,
        _check_shadow,
        _money_params,
        refuses={FidelityMode.PER_COPY_COLLAPSE: PER_COPY_OR_REASON},
    ),
}

# benchmarks/run.py reads the checks under this name; it is derived from
# SCENARIOS so that the catalog stays the only table.
_THRESHOLDS = {name: s.check for name, s in SCENARIOS.items()}


def run_trial(cfg: ScenarioConfig, trial: int) -> tuple[TrialRow, dict]:
    """One seeded trial of cfg's scenario, drawing all of its randomness from
    substream(cfg.seed, trial); cfg must already be resolved."""
    return SCENARIOS[cfg.scenario].run(cfg, trial, substream(cfg.seed, trial))


def _run_trial_star(args: tuple[ScenarioConfig, int]) -> tuple[TrialRow, dict]:
    return run_trial(*args)


# ---------------------------------------------------------------------------
# scenario execution and emission


# The copy count derive_params realizes at the derived q, as
# test_operating_point_realizes_log4m_logd_eps5 pins it
_REALIZED_EXPONENTS = (
    "log^4(M) * log(D) * eps^-5, up to log factors: one power of 1/eps above "
    "the abstract's eps^-4"
)


@dataclass(frozen=True)
class ScenarioOutcome:
    summary: dict
    thresholds_met: bool
    csv_path: Path
    summary_path: Path


def _parameters_echo(cfg: ScenarioConfig) -> dict:
    """Every set parameter under its config-file key."""
    return {
        file_key(f.name): getattr(cfg, f.name)
        for f in fields(cfg)
        if f.name not in ("scenario", "out_dir", "workers") and getattr(cfg, f.name) is not None
    }


def run_scenario(cfg: ScenarioConfig) -> ScenarioOutcome:
    """Run every trial of `cfg` and write the output files into cfg.out_dir.

    With workers > 1 and more than one trial, the trials run in a process
    pool, whose module is imported only then; otherwise they run in this
    process, in order. The outputs are the same either way, since trial t
    draws only from substream(seed, t)."""
    cfg = resolve(cfg)
    tasks = [(cfg, t) for t in range(cfg.trials)]
    if cfg.workers > 1 and cfg.trials > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_run_trial_star, tasks))
    else:
        outcomes = [_run_trial_star(t) for t in tasks]
    rows = [row for row, _ in outcomes]
    extras = [extra for _, extra in outcomes]

    scenario = SCENARIOS[cfg.scenario]
    threshold_info, met = scenario.check(cfg, rows, extras)
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "parameters": _parameters_echo(cfg),
        "constants": DEFAULT_CONSTANTS.as_dict(),
    }
    if scenario.operating_point is not None:
        summary["operating_point"] = {
            **scenario.operating_point(cfg).as_dict(),
            "realized_exponents": _REALIZED_EXPONENTS,
        }
    summary.update(aggregate=aggregate(rows), thresholds=threshold_info, thresholds_met=met)

    target = Path(cfg.out_dir)
    target.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(target / "results.csv", rows)
    summary_path = write_json(target / "summary.json", summary)
    transcripts = [
        {"trial": row.trial, "transcript": extra["transcript"]}
        for row, extra in zip(rows, extras)
        if "transcript" in extra
    ]
    if transcripts:
        write_json(target / "transcripts.json", transcripts)
    return ScenarioOutcome(summary, met, csv_path, summary_path)
