"""Frozen copy of the subset family's repair as it drew before the
count decomposition, kept as the reference its draw order is pinned to.

`hardness._sample_subset_family` computes each move's candidate conflict
counts from a decomposition instead of one intersection vector per swap,
and must make the same random draws in the same order: the same rows, the
same swaps, the same redraws, the same limit message and the same
generator state at the end. The function below is the per-candidate
repair that the decomposition replaced, copied unchanged with the
constants it read, so a change to the package's kernel cannot move the
reference with it. pytest does not collect this module; test modules
import it by name.
"""

from __future__ import annotations

import math

import numpy as np

from shadowtomo.errors import RejectionLimitError

REJECTION_ATTEMPT_LIMIT = 10**4

# Moves without a new best conflict total before the picked row is redrawn
# instead of swapped; min-conflicts descent alone stalls on plateaus.
_STALL_KICK = 250


def reference_subset_family(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(K, N) bool matrix of half-size subsets with every pairwise
    intersection inside [N/4 - N/12, N/4 + N/12].

    Min-conflicts repair from K random rows: each move picks a random row
    that has a conflict and makes the single in/out swap that leaves it the
    fewest conflicts, ties broken at random. After _STALL_KICK moves without
    a new best total, the move redraws the row instead. Every drawn row and
    every move count against one shared attempt limit, and hitting it means
    K is too large for N.
    """
    half = n // 2
    lo = math.ceil(n / 4.0 - n / 12.0)
    hi = math.floor(n / 4.0 + n / 12.0)

    def draw() -> np.ndarray:
        row = np.zeros(n, dtype=np.int16)
        row[rng.choice(n, size=half, replace=False)] = 1
        return row

    m = np.stack([draw() for _ in range(k)])
    attempts = k
    mid = (lo + hi) // 2  # self-intersections masked with an always-legal value
    gram = m @ m.T
    np.fill_diagonal(gram, mid)
    bad = (gram < lo) | (gram > hi)
    best_total = np.inf
    stall = 0
    while True:
        per_row = bad.sum(axis=1)
        total = int(per_row.sum())
        if total == 0:
            return m.astype(bool)
        if attempts >= REJECTION_ATTEMPT_LIMIT:
            raise RejectionLimitError(
                f"no subset family found in {REJECTION_ATTEMPT_LIMIT} attempts; "
                f"K={k} is too large for N={n}"
            )
        attempts += 1
        if total < best_total:
            best_total = total
            stall = 0
        else:
            stall += 1
        viol = np.flatnonzero(per_row > 0)
        i = int(viol[rng.integers(len(viol))])
        if stall >= _STALL_KICK:
            # long plateau: redraw the whole row to leave the basin
            stall = 0
            best_total = np.inf
            m[i] = draw()
            inter = m @ m[i]
        else:
            # all single swaps at once: (in, out, row) intersection updates
            ins = np.flatnonzero(m[i] == 1)
            outs = np.flatnonzero(m[i] == 0)
            cand = gram[i][None, None, :] - m[:, ins].T[:, None, :] + m[:, outs].T[None, :, :]
            cand[:, :, i] = mid
            counts = ((cand < lo) | (cand > hi)).sum(axis=2)
            ai, bi = divmod(int(np.argmin(counts + rng.random(counts.shape))), len(outs))
            m[i, ins[ai]] = 0
            m[i, outs[bi]] = 1
            inter = cand[ai, bi]
        inter[i] = mid
        gram[i, :] = inter
        gram[:, i] = inter
        bad[i, :] = bad[:, i] = (inter < lo) | (inter > hi)

