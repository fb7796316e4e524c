"""Trial rows, CSV/JSON emission, and summary aggregation.

The CSV schema is TrialRow's fields, fixed so downstream tooling can diff
runs: one row per trial, identical header order everywhere, and purely
value-determined formatting so that rerunning a scenario with the same
config and seed reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "True" if value else "False"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


@dataclass(frozen=True)
class TrialRow:
    scenario: str
    trial: int
    seed: int
    d: int
    m: int
    epsilon: float
    delta: float
    mode: str | None
    copies_consumed: int
    copies_predicted: int
    max_error: float
    success: bool
    iterations: int


# The CSV columns are TrialRow's fields in order, with d and m written as D and M.
_COLUMNS = tuple(f.name for f in fields(TrialRow))
CSV_HEADER = [{"d": "D", "m": "M"}.get(name, name) for name in _COLUMNS]


def csv_text(rows: list[TrialRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_fmt(getattr(row, name)) for name in _COLUMNS])
    return buf.getvalue()


def write_csv(path: str | Path, rows: list[TrialRow]) -> Path:
    path = Path(path)
    path.write_text(csv_text(rows), encoding="utf-8")
    return path


def _jsonify(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(path: str | Path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, default=_jsonify) + "\n", encoding="utf-8")
    return path


def success_rate(rows: list[TrialRow]) -> float:
    if not rows:
        return 0.0
    return sum(1 for r in rows if r.success) / len(rows)


def aggregate(rows: list[TrialRow]) -> dict:
    """Aggregates of the per-row fields, mirroring the CSV schema; a run has
    at least one trial, so rows is never empty."""
    consumed = [r.copies_consumed for r in rows]
    errors = [r.max_error for r in rows]
    iters = [r.iterations for r in rows]
    within = [r.copies_consumed <= r.copies_predicted for r in rows]
    return {
        "trials": len(rows),
        "successes": sum(1 for r in rows if r.success),
        "success_rate": success_rate(rows),
        "copies_consumed_total": int(sum(consumed)),
        "copies_consumed_mean": float(np.mean(consumed)),
        "copies_predicted_max": int(max(r.copies_predicted for r in rows)),
        "within_predicted_rate": float(np.mean(within)),
        "max_error_max": float(max(errors)),
        "max_error_mean": float(np.mean(errors)),
        "iterations_max": int(max(iters)),
        "iterations_mean": float(np.mean(iters)),
    }
