"""Benchmark inputs, made from the benchmark seed outside any timed region.

Everything here is O(n + m) numpy code of the benchmark's own.  The
package's generators are only reached through `netclass generate`, where
they are the program under test; `netclass.synth.erdos_renyi` would also
draw C(n, 2) uniforms, which is about 160 GB at the scale point.
"""

from __future__ import annotations

import math

import numpy as np

# Canonical feature-CSV layout; the benchmark writes the learn table itself
# so the table does not depend on the code it measures.
FEATURE_COLUMNS = (
    "nodes", "edges", "density", "max_degree", "min_degree", "avg_degree",
    "assortativity", "total_triangles", "avg_triangles", "max_triangles",
    "avg_clustering_coeff", "frac_closed_triangles", "max_kcore",
    "max_clique_lb", "chromatic_number",
)
INT_COLUMNS = frozenset({
    "nodes", "edges", "max_degree", "min_degree", "total_triangles",
    "max_triangles", "max_kcore", "max_clique_lb", "chromatic_number",
})
UNIT_COLUMNS = frozenset({
    "density", "avg_clustering_coeff", "frac_closed_triangles",
})

# Stock corpus shape (netclass.synth.default_corpus_specs).
CORPUS_BA, CORPUS_ER = 50, 75
CORPUS_NODES = (100, 2000)
CORPUS_M = (2, 10)
CORPUS_DEGREE = (4.0, 50.0)

# Scale point sizes.
SCALE_GEN_NODES = 15_000
SCALE_GEN_BA_M = 10
SCALE_GEN_ER_DEGREE = 10.0
UNIFORM_NODES, UNIFORM_EDGES = 200_000, 1_000_000
POWERLAW_NODES, POWERLAW_EDGES, POWERLAW_EXPONENT = 100_000, 500_000, 0.65

# Learn table shape.
LEARN_ROWS, LEARN_CLASSES, LEARN_SEPARATION, LEARN_SPREAD = 500, 4, 2.8, 0.9

# Command settings shared by the CLI passes and the traced pass: the README
# quick start's folds, clusters and corpus perplexity; 30 is the CLI default.
FOLDS, CLUSTERS = 5, 4
CORPUS_PERPLEXITY, LEARN_PERPLEXITY = 20.0, 30.0


def corpus_spec() -> str:
    """The stock corpus (50 BA + 75 ER, same ranges) at stratified sizes.

    One section per graph pins its node count and m or average degree at a
    fixed quantile of the stock distributions, so every seed yields the same
    sizes and only the random edges change with `--seed`.  Section seeds
    derive from the `--seed` master, as in the stock corpus.
    """
    lines = []

    def nodes(k, count):
        lo, hi = (math.log(v) for v in CORPUS_NODES)
        return int(round(math.exp(lo + (k + 0.5) / count * (hi - lo))))

    for k in range(CORPUS_BA):
        j = (k * 19) % CORPUS_BA  # decorrelates m from n
        m = CORPUS_M[0] + int((j + 0.5) / CORPUS_BA * (CORPUS_M[1] - CORPUS_M[0] + 1))
        n = nodes(k, CORPUS_BA)
        lines += [f"[ba {k}]", "count = 1", f"nodes_min = {n}", f"nodes_max = {n}",
                  f"m_min = {m}", f"m_max = {m}", ""]
    for k in range(CORPUS_ER):
        j = (k * 29) % CORPUS_ER
        lo, hi = CORPUS_DEGREE
        d = format(lo + (j + 0.5) / CORPUS_ER * (hi - lo), ".6f")
        n = nodes(k, CORPUS_ER)
        lines += [f"[er {k}]", "count = 1", f"nodes_min = {n}", f"nodes_max = {n}",
                  f"avg_degree_min = {d}", f"avg_degree_max = {d}", ""]
    return "\n".join(lines)


def scale_spec() -> str:
    """One BA and one ER graph at n = SCALE_GEN_NODES for `netclass generate`."""
    n = SCALE_GEN_NODES
    return "\n".join([
        "[ba]", "count = 1", f"nodes_min = {n}", f"nodes_max = {n}",
        f"m_min = {SCALE_GEN_BA_M}", f"m_max = {SCALE_GEN_BA_M}", "",
        "[er]", "count = 1", f"nodes_min = {n}", f"nodes_max = {n}",
        f"avg_degree_min = {SCALE_GEN_ER_DEGREE}",
        f"avg_degree_max = {SCALE_GEN_ER_DEGREE}", "",
    ])


def _distinct_pairs(u: np.ndarray, v: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and repeated pairs; keep first occurrences in draw order."""
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    _, first = np.unique(lo * n + hi, return_index=True)
    first.sort()
    return u[first], v[first]


def uniform_graph(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """UNIFORM_EDGES distinct pairs drawn uniformly over UNIFORM_NODES nodes."""
    n, m = UNIFORM_NODES, UNIFORM_EDGES
    u, v = _distinct_pairs(rng.integers(0, n, size=m + m // 10),
                           rng.integers(0, n, size=m + m // 10), n)
    if len(u) < m:
        raise RuntimeError("uniform graph drew too few distinct pairs")
    return u[:m], v[:m]


def powerlaw_graph(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Chung-Lu graph: endpoints drawn with weight (i + 1) ** -POWERLAW_EXPONENT.

    Node 0 gets the largest expected degree, near 6e3 at these sizes.
    """
    n = POWERLAW_NODES
    weights = np.arange(1, n + 1, dtype=np.float64) ** -POWERLAW_EXPONENT
    cum = np.cumsum(weights)
    ends = np.searchsorted(cum, rng.random(2 * POWERLAW_EDGES) * cum[-1], side="right")
    ends = np.minimum(ends, n - 1)
    return _distinct_pairs(ends[:POWERLAW_EDGES], ends[POWERLAW_EDGES:], n)


def edge_list_text(u: np.ndarray, v: np.ndarray) -> str:
    flat = np.empty(2 * len(u), dtype=np.int64)
    flat[0::2], flat[1::2] = u, v
    return ("%d %d\n" * len(u)) % tuple(flat.tolist())


def matrix_market_text(u: np.ndarray, v: np.ndarray, n: int) -> str:
    """Symmetric pattern Matrix Market, lower triangle, 1-based."""
    lo, hi = np.minimum(u, v) + 1, np.maximum(u, v) + 1
    head = f"%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {len(u)}\n"
    return head + edge_list_text(hi, lo)


def learn_table(rng: np.random.Generator) -> str:
    """LEARN_ROWS labelled rows in the canonical 15-column layout.

    Each class is a Gaussian blob in a latent 15-d space; the blobs overlap
    (LEARN_SPREAD) so cross-validated accuracy sits near 0.93 and trees grow
    deep.  Count-like columns are exp-mapped, so they are non-negative.
    """
    d = len(FEATURE_COLUMNS)
    # Orthonormal class directions in a random orientation: every seed gets
    # the same class geometry, hence the same accuracy and tree depth.
    basis, _ = np.linalg.qr(rng.normal(size=(d, LEARN_CLASSES)))
    centres = LEARN_SEPARATION * basis.T
    labels = np.arange(LEARN_ROWS) % LEARN_CLASSES
    z = centres[labels] + rng.normal(0.0, LEARN_SPREAD, size=(LEARN_ROWS, d))
    lines = ["name,category," + ",".join(FEATURE_COLUMNS)]
    for i in range(LEARN_ROWS):
        cells = []
        for j, col in enumerate(FEATURE_COLUMNS):
            x = z[i, j]
            if col in INT_COLUMNS:
                cells.append(str(int(round(math.exp(4.0 + x)))))
            elif col in UNIT_COLUMNS:
                cells.append(format(1.0 / (1.0 + math.exp(-x)), ".17g"))
            elif col == "assortativity":
                cells.append(format(math.tanh(x / 2.0), ".17g"))
            else:
                cells.append(format(math.exp(1.0 + x), ".17g"))
        lines.append(f"row_{i:04d},class_{labels[i]}," + ",".join(cells))
    return "\n".join(lines) + "\n"
