"""Exact (non-approximate) t-SNE for small point sets.

All pairwise affinities are computed densely, so cost is O(N^2) per
iteration; intended for corpora of a few hundred rows.  Optimization is
plain gradient descent with momentum (0.5 for the first 250 iterations,
0.8 after), early exaggeration x12 over the first 250 iterations, and a
fixed learning rate.  No adaptive per-parameter gains are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
ENTROPY_TOL_BITS = 1e-5
_EPS = 1e-12


@dataclass(frozen=True)
class Embedding:
    points: np.ndarray
    kl: float
    kl_trace: tuple[tuple[int, float], ...]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _row_affinities(d2_row: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    """Entropy in bits and normalized affinities for one row at precision beta."""
    p = np.exp(-d2_row * beta)
    total = p.sum()
    if total <= 0.0:
        # All mass underflowed; fall back to uniform over the other points.
        p = np.ones_like(p) / len(p)
        return np.log2(len(p)), p
    p = p / total
    nz = p > 0.0
    entropy = float(-(p[nz] * np.log2(p[nz])).sum())
    return entropy, p


def conditional_affinities(
    d2: np.ndarray, perplexity: float, max_steps: int = 200
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional probabilities with entropy matched to log2(perplexity).

    Each row's Gaussian precision is found by bisection until the row entropy
    (in bits) is within 1e-5 of the target, or the step budget runs out.
    Returns (P_conditional with zero diagonal, achieved entropies in bits).
    """
    n = d2.shape[0]
    target = float(np.log2(perplexity))
    p_cond = np.zeros((n, n), dtype=np.float64)
    entropies = np.zeros(n, dtype=np.float64)
    for i in range(n):
        row = np.delete(d2[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        entropy, p = _row_affinities(row, beta)
        for _ in range(max_steps):
            if abs(entropy - target) <= ENTROPY_TOL_BITS:
                break
            if entropy > target:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
            entropy, p = _row_affinities(row, beta)
        p_cond[i, :i] = p[:i]
        p_cond[i, i + 1:] = p[i:]
        entropies[i] = entropy
    return p_cond, entropies


def joint_affinities(d2: np.ndarray, perplexity: float) -> np.ndarray:
    p_cond, _ = conditional_affinities(d2, perplexity)
    n = d2.shape[0]
    return np.maximum((p_cond + p_cond.T) / (2.0 * n), _EPS)


def kl_and_grad(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """KL(P || Q) and its gradient for low-dimensional positions y.

    Q uses the Student-t kernel 1/(1+d^2); the gradient is
    4 * sum_j (p_ij - q_ij) * (1+d_ij^2)^-1 * (y_i - y_j).
    """
    d2 = _pairwise_sq_dists(y)
    num = 1.0 / (1.0 + d2)
    np.fill_diagonal(num, 0.0)
    q = np.maximum(num / num.sum(), _EPS)
    mask = p > _EPS
    kl = float((p[mask] * np.log(p[mask] / q[mask])).sum())
    w = (p - q) * num
    grad = 4.0 * (y * w.sum(axis=1)[:, None] - w @ y)
    return kl, grad


def tsne(
    matrix: np.ndarray,
    perplexity: float = 30.0,
    iterations: int = 1000,
    learning_rate: float = 200.0,
    seed: int = 0,
) -> Embedding:
    """Embed rows into 2-D, returning points plus the recorded KL trace.

    The trace holds (iteration, KL against the unexaggerated P) pairs every
    50 iterations, at the end of the exaggeration phase, and at the end.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ValueError("need a 2-D matrix with at least 4 rows")
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite values")
    n = x.shape[0]
    if not 1.0 <= perplexity < (n - 1) / 3.0:
        raise ValueError(
            f"perplexity must be in [1, {(n - 1) / 3.0:g}) for {n} rows"
        )
    if iterations < 1:
        raise ValueError("iterations must be positive")
    if not learning_rate > 0.0:
        raise ValueError(f"learning rate must be positive, got {learning_rate:g}")
    p = joint_affinities(_pairwise_sq_dists(x), perplexity)
    rng = make_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    trace = []
    kl = float("nan")
    for it in range(1, iterations + 1):
        exaggerated = it <= EXAGGERATION_ITERS
        p_eff = p * EXAGGERATION if exaggerated else p
        _, grad = kl_and_grad(p_eff, y)
        momentum = 0.5 if exaggerated else 0.8
        velocity = momentum * velocity - learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if it % 50 == 0 or it == EXAGGERATION_ITERS or it == iterations:
            kl, _ = kl_and_grad(p, y)
            trace.append((it, kl))
    if not np.isfinite(y).all() or not np.isfinite(kl):
        raise ValueError("optimization diverged; lower the learning rate")
    return Embedding(points=y, kl=kl, kl_trace=tuple(trace))
