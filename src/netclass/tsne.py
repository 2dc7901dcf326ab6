"""Exact (non-approximate) t-SNE for small point sets.

All pairwise affinities are computed densely, so cost is O(N^2) per
iteration; intended for corpora of a few hundred rows.  Optimization is
plain gradient descent with momentum (0.5 for the first 250 iterations,
0.8 after), early exaggeration x12 over the first 250 iterations, and a
fixed learning rate.  No adaptive per-parameter gains are used.

A step computes only the gradient, in two N x N buffers allocated once per
run; the KL divergence is computed only at the trace points.  Every buffered
operation is the one the plain array expression performs, in the same order,
so the points and the trace are bit-for-bit those of a run that allocates
fresh arrays and computes the KL on every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
ENTROPY_TOL_BITS = 1e-5
BISECTION_STEPS = 200
_EPS = 1e-12
_DIVERGED = "optimization diverged; lower the learning rate"


@dataclass(frozen=True)
class Embedding:
    points: np.ndarray
    kl: float
    kl_trace: tuple[tuple[int, float], ...]


# A pair of N x N float64 arrays for the functions below to compute in.
Work = tuple[np.ndarray, np.ndarray]


def _buffers(n: int) -> Work:
    return np.empty((n, n)), np.empty((n, n))


def _pairwise_sq_dists(x: np.ndarray, work: Work | None = None) -> np.ndarray:
    """Squared distances between the rows of x, zero on the diagonal, written
    into work[0]; work[1] is overwritten."""
    d2, scratch = _buffers(len(x)) if work is None else work
    sq = (x * x).sum(axis=1)
    np.matmul(x, x.T, out=d2)
    np.multiply(d2, 2.0, out=d2)
    np.add(sq[:, None], sq[None, :], out=scratch)
    np.subtract(scratch, d2, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


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
    d2: np.ndarray, perplexity: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional probabilities with entropy matched to log2(perplexity).

    Each row's Gaussian precision is found by bisection until the row entropy
    (in bits) is within 1e-5 of the target, or BISECTION_STEPS steps run out.
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
        for _ in range(BISECTION_STEPS):
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


def _student_q(y: np.ndarray, work: Work | None) -> Work:
    """The Student-t kernel 1/(1+d^2) between the rows of y, zero on the
    diagonal, and Q = max(kernel / sum(kernel), 1e-12), written into work."""
    num, q = _buffers(len(y)) if work is None else work
    d2 = _pairwise_sq_dists(y, (q, num))
    np.add(d2, 1.0, out=d2)
    np.divide(1.0, d2, out=num)
    np.fill_diagonal(num, 0.0)
    np.divide(num, num.sum(), out=q)
    np.maximum(q, _EPS, out=q)
    return num, q


def kl_divergence(p: np.ndarray, y: np.ndarray, work: Work | None = None) -> float:
    """KL(P || Q) for low-dimensional positions y, Q from the Student-t kernel;
    work is overwritten."""
    _, q = _student_q(y, work)
    mask = p > _EPS
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def kl_gradient(p: np.ndarray, y: np.ndarray, work: Work | None = None) -> np.ndarray:
    """Gradient of KL(P || Q) with respect to the positions y:
    4 * sum_j (p_ij - q_ij) * (1+d_ij^2)^-1 * (y_i - y_j).

    work is overwritten; tsne passes the same pair to every step, so a step
    allocates no N x N array.
    """
    num, w = _student_q(y, work)
    np.subtract(p, w, out=w)
    np.multiply(w, num, out=w)
    return 4.0 * (y * w.sum(axis=1)[:, None] - w @ y)


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
    p_exaggerated = p * EXAGGERATION
    work = _buffers(n)
    rng = make_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    trace = []
    kl = float("nan")
    # A step too large for float64 overflows; that ends the run with one
    # error instead of numpy warnings and non-finite points.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, iterations + 1):
                exaggerated = it <= EXAGGERATION_ITERS
                grad = kl_gradient(p_exaggerated if exaggerated else p, y, work)
                momentum = 0.5 if exaggerated else 0.8
                velocity = momentum * velocity - learning_rate * grad
                y = y + velocity
                y = y - y.mean(axis=0)
                if it % 50 == 0 or it == EXAGGERATION_ITERS or it == iterations:
                    kl = kl_divergence(p, y, work)
                    trace.append((it, kl))
    except FloatingPointError:
        raise ValueError(_DIVERGED) from None
    if not np.isfinite(y).all() or not np.isfinite(kl):
        raise ValueError(_DIVERGED)
    return Embedding(points=y, kl=kl, kl_trace=tuple(trace))
