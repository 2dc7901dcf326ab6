"""The 15 structural features used to characterize a graph.

All extractors are pure functions of an immutable Graph and are bit-for-bit
deterministic: every ordering heuristic (peeling, clique growth, coloring)
breaks ties by ascending node id.  Degenerate cases never produce NaN or
infinity, so downstream learners always see finite vectors.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, fields
from typing import IO, Iterable

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class FeatureVector:
    """One row of the design matrix; field order matches the CSV layout."""

    nodes: int
    edges: int
    density: float
    max_degree: int
    min_degree: int
    avg_degree: float
    assortativity: float
    total_triangles: int
    avg_triangles: float
    max_triangles: int
    avg_clustering_coeff: float
    frac_closed_triangles: float
    max_kcore: int
    max_clique_lb: int
    chromatic_number: int

    def as_array(self) -> np.ndarray:
        return np.array([float(getattr(self, f.name)) for f in fields(self)])


FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(FeatureVector))
_INT_FEATURES = frozenset(
    f.name for f in fields(FeatureVector) if f.type == "int"
)

CSV_HEADER = "name,category," + ",".join(FEATURE_NAMES)


@dataclass(frozen=True)
class CoreDecomposition:
    """Core number per node plus the peel (degeneracy) order that produced it."""

    core_numbers: tuple[int, ...]
    peel_order: tuple[int, ...]

    @property
    def max_core(self) -> int:
        return max(self.core_numbers, default=0)


def triangle_counts(g: Graph) -> tuple[list[int], int]:
    """Per-node triangle participation counts and the total triangle count.

    Counts each triangle once at its lowest-ranked corner (rank = (degree,
    id)), intersecting the later-ranked neighbor sets of the edge endpoints.
    """
    n = g.node_count
    adj = g.adjacency
    rank = sorted(range(n), key=lambda v: (len(adj[v]), v))
    pos = [0] * n
    for i, v in enumerate(rank):
        pos[v] = i
    later = [frozenset(u for u in adj[v] if pos[u] > pos[v]) for v in range(n)]
    counts = [0] * n
    total = 0
    for u in range(n):
        lu = later[u]
        for v in lu:
            lv = later[v]
            common = lu & lv if len(lu) <= len(lv) else lv & lu
            for w in common:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
            total += len(common)
    return counts, total


def avg_local_clustering(g: Graph, counts: list[int]) -> float:
    """Mean local clustering coefficient; degree < 2 nodes contribute 0."""
    if g.node_count == 0:
        return 0.0
    acc = 0.0
    for v, tri in enumerate(counts):
        d = len(g.adjacency[v])
        if d >= 2:
            acc += 2.0 * tri / (d * (d - 1))
    return acc / g.node_count


def core_decomposition(g: Graph) -> CoreDecomposition:
    """Exact core numbers via min-degree peeling (ties by ascending id).

    A node's core number is the running maximum of the degree it had when
    removed, which equals the largest k whose k-core contains it.
    """
    n = g.node_count
    deg = g.degrees()
    core = [0] * n
    removed = [False] * n
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    order = []
    threshold = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue
        removed[v] = True
        threshold = max(threshold, d)
        core[v] = threshold
        order.append(v)
        for u in g.adjacency[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return CoreDecomposition(tuple(core), tuple(order))


def assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over all 2m directed edges.

    Returns 0.0 for edgeless graphs and whenever the degree variance at the
    endpoints is zero (e.g. regular graphs).
    """
    if g.edge_count == 0:
        return 0.0
    deg = np.array(g.degrees(), dtype=np.float64)
    us, vs = [], []
    for u, v in g.edges():
        us.append(u)
        vs.append(v)
    x = np.concatenate([deg[us], deg[vs]])
    y = np.concatenate([deg[vs], deg[us]])
    var = np.mean(x * x) - np.mean(x) ** 2
    if var <= 0.0:
        return 0.0
    cov = np.mean(x * y) - np.mean(x) * np.mean(y)
    return float(cov / var)


def clique_lower_bound(g: Graph, decomp: CoreDecomposition) -> int:
    """Size of a greedily grown clique; a lower bound on the maximum clique.

    Walks nodes in reverse peel order and extends each candidate clique
    through the node's later-peeled neighbors in peel-order sequence.
    """
    if g.node_count == 0:
        return 0
    order = decomp.peel_order
    pos = [0] * g.node_count
    for i, v in enumerate(order):
        pos[v] = i
    neighbor_sets = [frozenset(a) for a in g.adjacency]
    best = 1
    for v in reversed(order):
        later = sorted((u for u in g.adjacency[v] if pos[u] > pos[v]),
                       key=lambda u: pos[u])
        if len(later) + 1 <= best:
            continue
        clique = [v]
        for u in later:
            nu = neighbor_sets[u]
            if all(w in nu for w in clique):
                clique.append(u)
        best = max(best, len(clique))
    return best


def greedy_chromatic(g: Graph, decomp: CoreDecomposition) -> int:
    """Colors used by greedy coloring in smallest-last order.

    Upper-bounds the chromatic number and never exceeds max core + 1.
    """
    if g.node_count == 0:
        return 0
    order = decomp.peel_order
    color = [-1] * g.node_count
    used = 0
    for v in reversed(order):
        taken = {color[u] for u in g.adjacency[v] if color[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
        used = max(used, c + 1)
    return used


def extract_features(g: Graph) -> FeatureVector:
    """Compute all 15 features; rejects the empty graph."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot extract features from an empty graph")
    m = g.edge_count
    deg = g.degrees()
    counts, total = triangle_counts(g)
    decomp = core_decomposition(g)
    wedges = sum(d * (d - 1) // 2 for d in deg)
    return FeatureVector(
        nodes=n,
        edges=m,
        density=2.0 * m / (n * (n - 1)) if n >= 2 else 0.0,
        max_degree=max(deg),
        min_degree=min(deg),
        avg_degree=2.0 * m / n,
        assortativity=assortativity(g),
        total_triangles=total,
        avg_triangles=3.0 * total / n,
        max_triangles=max(counts),
        avg_clustering_coeff=avg_local_clustering(g, counts),
        frac_closed_triangles=3.0 * total / wedges if wedges else 0.0,
        max_kcore=decomp.max_core,
        max_clique_lb=clique_lower_bound(g, decomp),
        chromatic_number=greedy_chromatic(g, decomp),
    )


def format_value(name: str, value: "int | float") -> str:
    """Render one feature for CSV output (reals carry 17 significant digits)."""
    if name in _INT_FEATURES:
        return str(int(value))
    return format(float(value), ".17g")


def write_features_csv(
    out: IO[str], rows: Iterable[tuple[str, str, FeatureVector]]
) -> None:
    """Write (name, category, features) rows under the fixed header."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for name, category, fv in rows:
        writer.writerow(
            [name, category]
            + [format_value(f, getattr(fv, f)) for f in FEATURE_NAMES]
        )


def read_features_csv(src: IO[str]) -> tuple[list[str], list[str], np.ndarray]:
    """Read a feature CSV back into (names, categories, matrix).

    The header must match the canonical layout exactly.
    """
    reader = csv.reader(src)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty feature CSV") from None
    if header != CSV_HEADER.split(","):
        raise ValueError(f"bad feature CSV header; expected {CSV_HEADER!r}")
    names, categories, rows = [], [], []
    for row in reader:
        if not row:
            continue
        if len(row) != len(FEATURE_NAMES) + 2:
            raise ValueError(f"feature CSV row for {row[0]!r} has wrong arity")
        names.append(row[0])
        categories.append(row[1])
        rows.append([float(x) for x in row[2:]])
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(FEATURE_NAMES)))
    return names, categories, matrix
