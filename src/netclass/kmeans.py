"""Lloyd's k-means with k-means++ seeding and deterministic restarts.

Restart r of a run with seed s uses derive_seed(s, r), so results do not
depend on evaluation order.  Assignment ties and empty-cluster reseeds both
break toward the lowest index, and every restart records its inertia after
each assignment step (the sequence is non-increasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed, make_rng


@dataclass(frozen=True)
class ClusterResult:
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    restart_traces: tuple[tuple[float, ...], ...]
    best_restart: int


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _lloyd(x, k, max_iter, rng):
    n = x.shape[0]
    centers = _plus_plus_init(x, k, rng)
    assign = None
    trace = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), new_assign]
        # A cluster can lose all members; reseat its centroid on the point
        # farthest from its current centroid so k never shrinks.  The point
        # is taken only from a cluster that keeps another member, so no
        # reseat empties a cluster.
        present = np.bincount(new_assign, minlength=k)
        for c in np.nonzero(present == 0)[0]:
            far = int(np.argmax(np.where(present[new_assign] > 1, point_d2, -1.0)))
            present[new_assign[far]] -= 1
            present[c] = 1
            centers[c] = x[far]
            new_assign[far] = c
            point_d2[far] = 0.0
        trace.append(float(point_d2.sum()))
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[c] = x[assign == c].mean(axis=0)
    return centers, assign, trace


def kmeans(
    matrix: np.ndarray,
    k: int,
    max_iter: int = 300,
    restarts: int = 10,
    seed: int = 0,
) -> ClusterResult:
    """Cluster rows into k groups, keeping the best of several restarts.

    The winner is the restart with the smallest final inertia; on exact ties
    the earlier restart wins.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite values")
    if not 1 <= k <= x.shape[0]:
        raise ValueError(f"k must be in 1..{x.shape[0]}")
    if max_iter < 1 or restarts < 1:
        raise ValueError("max_iter and restarts must be positive")
    best = None
    traces = []
    for r in range(restarts):
        rng = make_rng(derive_seed(seed, r))
        centers, assign, trace = _lloyd(x, k, max_iter, rng)
        traces.append(tuple(trace))
        if best is None or trace[-1] < best[0]:
            best = (trace[-1], centers, assign, r)
    inertia, centers, assign, r = best
    return ClusterResult(
        centroids=centers,
        assignments=assign.astype(np.int64),
        inertia=float(inertia),
        restart_traces=tuple(traces),
        best_restart=r,
    )
