"""Outside-in per-layer tracer for the shadowtomo benchmark.

The tracer wraps public functions and methods of the package from here,
without editing the package: each wrapped function is rebound at every
``shadowtomo`` module that holds it under any name, so calls made through
``from .module import name`` bindings are recorded too. Each span records
calls and self time (its duration minus the time covered by wrapped calls
it made); a few spans also feed counts taken from their arguments or
results, by hooks whose own time no span is charged for. Everything stays
in memory until the benchmark reads it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "shadowtomo"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_copies(tracer, args, kwargs, result):
    # CopySource.dispense(self, n_copies, phase)
    phase = _arg(args, kwargs, 2, "phase")
    tracer.counts["ledger.copies." + phase] += _arg(args, kwargs, 1, "n_copies")


def _count_distinct_tails(tracer, args, kwargs, result):
    # binomial_tail(n, p, t, direction)
    tracer.distinct_tails.add(
        tuple(_arg(args, kwargs, i, name) for i, name in enumerate(("n", "p", "t", "direction")))
    )


def _count_found(tracer, args, kwargs, result):
    tracer.counts["search.found"] += bool(result.found)


def _count_postselections(tracer, args, kwargs, result):
    tracer.counts["shadow.postselections"] += len(result.transcript.steps)


def _count_conjugation_bytes(tracer, args, kwargs, result):
    # conjugate_each_register(state, u, d, q): 2q tensordot passes, each
    # reading and writing a complex128 array of d^(2q) entries
    d = _arg(args, kwargs, 2, "d")
    q = _arg(args, kwargs, 3, "q")
    tracer.counts["linalg.conjugate_each_register.bytes_computed"] += 2 * q * 2 * 16 * d ** (2 * q)


# span name (module-relative path of the wrapped callable) -> count hook
SPANS = {
    "scenarios.run_trial": None,
    "shadow.run_shadow_tomography": _count_postselections,
    "shadow.postselect_hypothesis": None,
    "shadow.run_promise_gap": None,
    "search.gentle_search": _count_found,
    "search.verify_candidate": None,
    "orbound.or_bound_decide": None,
    "ledger.CopySource.dispense": _count_copies,
    "ledger.StatisticalBatch.measure_collective": None,
    "ledger.StatisticalBatch.measure_units": None,
    "ledger.PerCopyBatch.measure_collective": None,
    "quantum.accept_prob": None,
    "quantum.threshold_accept_prob": None,
    "quantum.binomial_tail": _count_distinct_tails,
    "quantum.threshold_diagonal_values": None,
    "linalg.conjugate_each_register": _count_conjugation_bytes,
    "linalg.average_single_register_trace": None,
    "instances.projector_instance": None,
    "instances.diagonal_gap_instance": None,
    "money.make_wiesner_instance": None,
    "hardness.gen_classical_hard_instance": None,
    "hardness.classical_estimate_all": None,
}

COPY_PHASES = ("search-or", "search-verify", "gap-test")


class CoverageError(RuntimeError):
    """A span expected on the workload recorded no calls."""


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct_tails: set[tuple] = set()
        self._stack: list[float] = []

    def _wrap(self, name, fn, hook):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                # the hook's own cost is charged to no span: it is added to
                # the time the caller's children cover, not to its self time
                hook_start = clock()
                hook(self, args, kwargs, result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every span for the duration of the block, then restore."""
        targets = []
        for span, hook in SPANS.items():
            module_name, *owner_path, attr = span.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            for part in owner_path:
                owner = getattr(owner, part)
            targets.append((span, hook, owner if owner_path else None, attr, owner.__dict__[attr]))
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        rebound: list[tuple[object, str, object]] = []
        try:
            for span, hook, cls, attr, fn in targets:
                wrapper = self._wrap(span, fn, hook)
                # a method is looked up on its class; a function under every
                # name any package module bound it to
                holders = [(cls, attr)] if cls is not None else [
                    (module, name) for module in modules
                    for name, value in vars(module).items() if value is fn
                ]
                for holder, name in holders:
                    rebound.append((holder, name, fn))
                    setattr(holder, name, wrapper)
            yield self
        finally:
            for holder, name, fn in reversed(rebound):
                setattr(holder, name, fn)

    def check_coverage(self, expected) -> None:
        missing = [span for span in expected if self.calls[span] == 0]
        if missing:
            raise CoverageError("expected spans recorded no calls: " + ", ".join(missing))

    def per_trial_metrics(self, trials: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each divided by the number of traced trials."""
        out: dict[str, tuple[float, str]] = {}
        for span in SPANS:
            out[span + ".calls"] = (self.calls[span] / trials, "calls/trial")
            out[span + ".self_s"] = (self.self_s[span] / trials, "s/trial")
        for phase in COPY_PHASES:
            out["ledger.copies." + phase] = (self.counts["ledger.copies." + phase] / trials, "copies/trial")
        out["shadow.postselections"] = (self.counts["shadow.postselections"] / trials, "count/trial")
        searches = self.calls["search.gentle_search"]
        out["search.found_ratio"] = (self.counts["search.found"] / searches if searches else 0.0, "ratio")
        tails = self.calls["quantum.binomial_tail"]
        out["quantum.binomial_tail.distinct_ratio"] = (
            len(self.distinct_tails) / tails if tails else 0.0,
            "ratio",
        )
        out["linalg.conjugate_each_register.bytes_computed"] = (
            self.counts["linalg.conjugate_each_register.bytes_computed"] / trials,
            "B/trial",
        )
        return out
