"""Exact (non-approximate) t-SNE for small point sets.

All pairwise affinities are computed, so cost is O(N^2) per iteration;
intended for corpora of a few hundred rows.  Optimization is plain gradient
descent with momentum (0.5 for the first 250 iterations, 0.8 after) and a
fixed learning rate.  No adaptive per-parameter gains are used.

The gradient of KL(P || Q) is split into an attractive and a repulsive sum
(van der Maaten, "Accelerating t-SNE using tree-based algorithms", JMLR 15,
2014).  With the Student-t kernel w_ij = 1/(1 + |y_i - y_j|^2) and its total
S, so that q_ij = w_ij / S,

    dC/dy_i = 4 * (a * sum_j p_ij w_ij (y_i - y_j) - sum_j w_ij^2 (y_i - y_j) / S),

where early exaggeration sets a = 12 for the first 250 iterations and 1
after; it scales the attractive sum, so one P serves the whole run.

A step walks the rows in blocks of ROWS.  Per block it computes the
coordinate differences, the kernel (zero on the diagonal) and its row sums,
and the per-row attractive and repulsive sums; S is the sum of all the row
sums, so the step makes one pass in four ROWS x N arrays that it allocates
itself; no state is kept between steps.  Every value is a sum along one
row, and the sum over rows comes after, so no byte depends on ROWS.  The KL
divergence, computed only at the trace points, is a sum of per-row sums in
the same blocks.  Only the KL clips q at 1e-12, where the clip guards the
log; the gradient uses w and S as they are.

Each row's Gaussian precision is bisected until its entropy is within
ENTROPY_TOL_BITS of log2(perplexity), all rows in lockstep on one N x N
array: the squared distances, +inf on the diagonal, each row shifted by its
nearest distance.  The shift cancels when a row is normalized, and it makes
the nearest affinity exp(0) = 1, so no row total underflows.  A round
evaluates only the rows not yet within the tolerance, so each row takes the
precisions it would alone.

No value that reaches an output goes through BLAS: distances are sums of
squared per-coordinate differences and every other product is an
elementwise ufunc, so the points do not depend on how many threads BLAS
uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import make_rng

EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
ENTROPY_TOL_BITS = 1e-5
BISECTION_STEPS = 200
ROWS = 64  # rows per block of the gradient and KL passes
_EPS = 1e-12
_DIVERGED = "optimization diverged; lower the learning rate"


@dataclass(frozen=True)
class Embedding:
    points: np.ndarray
    kl: float
    kl_trace: tuple[tuple[int, float], ...]


def _pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x: squared per-column
    differences summed column by column, exactly zero on the diagonal.
    Raises ValueError when a distance overflows float64."""
    d2 = np.zeros((len(x), len(x)))
    with np.errstate(over="ignore"):
        for column in x.T:
            diff = np.subtract.outer(column, column)
            d2 += np.multiply(diff, diff, out=diff)
    if not np.isfinite(d2).all():
        raise ValueError("squared distances between rows overflow float64")
    return d2


def _affinities(d2: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies in bits and normalized affinities exp(-d2 * beta) of rows of
    shifted squared distances at per-row precisions beta; far entries may
    underflow to 0, so log2 is taken only where p > 0."""
    p = np.multiply(d2, -beta[:, None])
    np.exp(p, out=p)
    np.divide(p, p.sum(axis=1, keepdims=True), out=p)
    terms = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    entropy = -np.multiply(terms, p, out=terms).sum(axis=1)
    return entropy, p


def conditional_affinities(d2: np.ndarray, perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional probabilities with entropy matched to log2(perplexity)
    by at most BISECTION_STEPS bisection steps per row, as the module says.
    Returns (P_conditional with zero diagonal, achieved entropies in bits)."""
    n = d2.shape[0]
    target = float(np.log2(perplexity))
    dists = np.array(d2, dtype=np.float64)
    np.fill_diagonal(dists, np.inf)
    dists -= dists.min(axis=1, keepdims=True)
    beta, lo, hi = np.ones(n), np.zeros(n), np.full(n, np.inf)
    entropies, p = _affinities(dists, beta)
    for _ in range(BISECTION_STEPS):
        rows = np.flatnonzero(np.abs(entropies - target) > ENTROPY_TOL_BITS)
        if not rows.size:
            break
        up = entropies[rows] > target
        lo[rows[up]] = beta[rows[up]]
        hi[rows[~up]] = beta[rows[~up]]
        beta[rows] = np.where(hi[rows] == np.inf, beta[rows] * 2.0, (lo[rows] + hi[rows]) / 2.0)
        entropies[rows], p[rows] = _affinities(dists[rows], beta[rows])
    return p, entropies


def joint_affinities(d2: np.ndarray, perplexity: float) -> np.ndarray:
    p_cond, _ = conditional_affinities(d2, perplexity)
    return np.maximum((p_cond + p_cond.T) / (2.0 * len(d2)), _EPS)


def _kernel_blocks(y: np.ndarray):
    """For each block of ROWS rows of y, yield its slice, the differences
    dx = y_i0 - y_j0 and dy = y_i1 - y_j1, the Student-t kernel
    1/(1 + (dx^2 + dy^2)) with zero at j = i, and a free array, all views
    into four ROWS x N arrays of this call; the next block overwrites them.

    Most operations write over one of their inputs: at 500 rows that made a
    step about a fifth faster than writing each result to a third array."""
    n = len(y)
    work = [np.empty((min(ROWS, n), n)) for _ in range(4)]
    coords = np.ascontiguousarray(y.T)
    for start in range(0, n, ROWS):
        rows = slice(start, min(start + ROWS, n))
        dx, dy, num, scratch = (a[: rows.stop - start] for a in work)
        for diff, c in zip((dx, dy), coords):
            diff[...] = c
            np.subtract(c[rows, None], diff, out=diff)
        np.square(dx, out=num)
        np.add(num, np.square(dy, out=scratch), out=num)
        np.add(num, 1.0, out=num)
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num[:, rows], 0.0)
        yield rows, dx, dy, num, scratch


def kl_divergence(p: np.ndarray, y: np.ndarray) -> float:
    """KL(P || Q) for low-dimensional positions y, Q = max(kernel / S, 1e-12),
    over the entries with p > 1e-12.  A first pass over the blocks finds S,
    a second sums the terms."""
    row_sums = np.empty(len(y))
    for rows, _, _, num, _ in _kernel_blocks(y):
        row_sums[rows] = num.sum(axis=1)
    total = row_sums.sum()
    row_kl = np.empty(len(y))
    for rows, _, _, num, terms in _kernel_blocks(y):
        p_rows = p[rows]
        np.divide(num, total, out=terms)
        np.maximum(terms, _EPS, out=terms)
        np.divide(p_rows, terms, out=terms)
        np.log(terms, out=terms)
        np.multiply(terms, p_rows, out=terms)
        terms[p_rows <= _EPS] = 0.0
        row_kl[rows] = terms.sum(axis=1)
    return float(row_kl.sum())


def kl_gradient(p: np.ndarray, y: np.ndarray, exaggeration: float = 1.0) -> np.ndarray:
    """Gradient of KL(P || Q) with respect to the positions y: the module
    docstring's dC/dy_i, with a = exaggeration scaling the attractive sum.

    A step allocates its four ROWS x N block arrays and no N x N array.
    """
    n = len(y)
    row_sums = np.empty(n)
    attractive = np.empty((n, 2))
    repulsive = np.empty((n, 2))
    for rows, dx, dy, num, scratch in _kernel_blocks(y):
        row_sums[rows] = num.sum(axis=1)
        for axis, diff in enumerate((dx, dy)):
            weighted = np.multiply(diff, num, out=diff)
            attractive[rows, axis] = np.multiply(weighted, p[rows], out=scratch).sum(axis=1)
            repulsive[rows, axis] = np.multiply(weighted, num, out=weighted).sum(axis=1)
    return 4.0 * (exaggeration * attractive - repulsive / row_sums.sum())


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
    # A step too large for float64 overflows; that ends the run with one
    # error instead of numpy warnings and non-finite points.
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, iterations + 1):
                exaggerated = it <= EXAGGERATION_ITERS
                grad = kl_gradient(p, y, EXAGGERATION if exaggerated else 1.0)
                momentum = 0.5 if exaggerated else 0.8
                velocity = momentum * velocity - learning_rate * grad
                y = y + velocity
                y = y - y.mean(axis=0)
                if it % 50 == 0 or it == EXAGGERATION_ITERS or it == iterations:
                    kl = kl_divergence(p, y)
                    trace.append((it, kl))
    except FloatingPointError:
        raise ValueError(_DIVERGED) from None
    if not np.isfinite(y).all() or not np.isfinite(kl):
        raise ValueError(_DIVERGED)
    return Embedding(points=y, kl=kl, kl_trace=tuple(trace))
