"""The 15 structural features used to characterize a graph.

All extractors are pure functions of an immutable Graph and are bit-for-bit
deterministic: every ordering heuristic (peeling, clique growth, coloring)
breaks ties by ascending node id.  Degenerate cases never produce NaN or
infinity, so downstream learners always see finite vectors.

The graph is oriented once, along the peel order of its core decomposition;
the triangle count, the clique bound and the colouring all walk that one
orientation.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, fields
from typing import IO, Iterable, Iterator

import numpy as np

from .graph import Graph, _compress


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
    """Core numbers, the peel (degeneracy) order and its orientation.

    Node peel_order[i] is the i-th node removed.  The graph oriented along
    that order is held in compressed rows over peel positions:
    later[later_ptr[i]:later_ptr[i + 1]] are the positions j > i of the
    neighbors of peel_order[i], ascending, and later_keys holds each such
    pair (i, j) once as i * n + j, sorted.  Row i has at most
    core_numbers[peel_order[i]] entries.
    """

    core_numbers: np.ndarray
    peel_order: np.ndarray
    later_keys: np.ndarray
    later_ptr: np.ndarray
    later: np.ndarray

    @property
    def max_core(self) -> int:
        return int(self.core_numbers.max(initial=0))


def _has_keys(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which queries occur in the sorted, non-empty array keys."""
    return keys[np.minimum(np.searchsorted(keys, queries), len(keys) - 1)] == queries


_WEDGE_CHUNK = 1 << 18  # wedges tested per numpy batch in triangle_counts


def triangle_counts(g: Graph, decomp: CoreDecomposition | None = None) -> tuple[np.ndarray, int]:
    """Per-node triangle participation counts and the total triangle count.

    Counts on the peel orientation of decomp, which is computed from g
    when not given; the counts are the same either way.  Each triangle is
    the closed wedge at its earliest-peeled corner: the wedges at a position
    are the pairs of its later neighbors (at most its core number of them),
    tested in batches against decomp.later_keys.
    """
    n = g.node_count
    if decomp is None:
        decomp = core_decomposition(g)
    keys, ptr, later = decomp.later_keys, decomp.later_ptr, decomp.later
    m = len(later)
    # Entry e pairs with the entries after it in its row.
    partners = np.repeat(ptr[1:], np.diff(ptr)) - np.arange(m) - 1
    bounds = np.searchsorted(np.cumsum(partners), np.arange(0, partners.sum(), _WEDGE_CHUNK),
                             side="right")
    corners = [np.zeros(0, dtype=np.int64)]
    for lo, hi in zip(bounds, np.append(bounds[1:], m)):
        c = partners[lo:hi]
        first = np.repeat(np.arange(lo, hi), c)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(c) - c, c)
        closed = _has_keys(keys, later[first] * n + later[second])
        corners += [keys[first[closed]] // n, later[first[closed]], later[second[closed]]]
    by_position = np.bincount(np.concatenate(corners), minlength=n)
    counts = np.empty(n, dtype=np.int64)
    counts[decomp.peel_order] = by_position
    return counts, int(by_position.sum()) // 3


def avg_local_clustering(g: Graph, counts: np.ndarray) -> float:
    """Mean local clustering coefficient; degree < 2 nodes contribute 0."""
    if g.node_count == 0:
        return 0.0
    deg = g.degrees()
    wedged = deg >= 2
    d = deg[wedged]
    terms = 2.0 * counts[wedged] / (d * (d - 1))
    # cumsum adds in node order, one term at a time, as a Python loop would.
    acc = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
    return acc / g.node_count


def core_decomposition(g: Graph) -> CoreDecomposition:
    """Exact core numbers via min-degree peeling (ties by ascending id).

    Each step removes the node with the least (current degree, id).  A
    node's core number is the running maximum of the degree it had when
    removed, which equals the largest k whose k-core contains it.  Bucket d
    is a heap of the ids whose degree became d; an entry is stale once that
    node's degree drops further.
    """
    n = g.node_count
    degrees = g.degrees()
    ptr = memoryview(g.indptr)  # int views without a Python int per entry
    nbrs = memoryview(g.indices)
    deg = degrees.tolist()
    by_degree = np.argsort(degrees, kind="stable")
    cuts = np.cumsum(np.bincount(degrees, minlength=1))[:-1]
    buckets = [b.tolist() for b in np.split(by_degree, cuts)]  # sorted, so heaps
    heappop, heappush = heapq.heappop, heapq.heappush
    core = [0] * n
    order = []
    threshold = d = 0
    while len(order) < n:
        bucket = buckets[d]
        if not bucket:
            d += 1
            continue
        v = heappop(bucket)
        if deg[v] != d:
            continue
        deg[v] = -1  # removed; no entry matches it again
        if d > threshold:
            threshold = d
        core[v] = threshold
        order.append(v)
        for u in nbrs[ptr[v]:ptr[v + 1]]:
            du = deg[u] - 1
            if du >= 0:
                deg[u] = du
                heappush(buckets[du], u)
        if d:
            d -= 1  # every neighbor had degree >= d
    del buckets, deg  # the stale heap entries
    peel = np.array(order, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    pos[peel] = np.arange(n)
    pu, pv = (pos[ends] for ends in g.edge_arrays())
    keys = np.sort(np.minimum(pu, pv) * n + np.maximum(pu, pv))
    return CoreDecomposition(np.array(core, dtype=np.int64), peel, keys, *_compress(keys, n))


def assortativity(g: Graph) -> float:
    """Pearson correlation of endpoint degrees over all 2m directed edges.

    Returns 0.0 for edgeless graphs and whenever the degree variance at the
    endpoints is zero (e.g. regular graphs).
    """
    if g.edge_count == 0:
        return 0.0
    deg = g.degrees().astype(np.float64)
    us, vs = g.edge_arrays()
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
    through the node's later-peeled neighbors in peel-order sequence, and
    returns the largest clique found.  Each node's clique depends only on
    its own later neighbors, so all of them grow at once: step s offers
    every node its s-th later neighbor, which joins when each member taken
    so far has it as a later neighbor.
    """
    n = g.node_count
    if n == 0:
        return 0
    keys, ptr, later = decomp.later_keys, decomp.later_ptr, decomp.later
    rows = np.flatnonzero(np.diff(ptr))  # peel positions with a later neighbor
    size = np.ones(len(rows), dtype=np.int64)
    taken = []  # taken[s][r]: the neighbor row r took at step s, or -1
    best = 1
    step = 0
    while len(rows):
        candidate = later[ptr[rows] + step]
        joins = np.ones(len(rows), dtype=bool)
        for member in taken:
            check = joins & (member >= 0)
            joins[check] = _has_keys(keys, member[check] * n + candidate[check])
        taken.append(np.where(joins, candidate, -1))
        size += joins
        best = max(best, int(size.max()))
        step += 1
        more = ptr[rows + 1] - ptr[rows] > step
        rows, size = rows[more], size[more]
        taken = [t[more] for t in taken]
    return best


def greedy_chromatic(g: Graph, decomp: CoreDecomposition) -> int:
    """Colors used by greedy coloring in smallest-last order.

    Upper-bounds the chromatic number and never exceeds max core + 1.  In
    reverse peel order the neighbors already colored are the later ones.
    """
    n = g.node_count
    if n == 0:
        return 0
    ptr = memoryview(decomp.later_ptr)
    later = memoryview(decomp.later)
    color = [0] * n  # by peel position
    color_of = color.__getitem__
    used = 0
    for i in range(n - 1, -1, -1):
        taken = set(map(color_of, later[ptr[i]:ptr[i + 1]]))
        c = 0
        while c in taken:
            c += 1
        color[i] = c
        if c >= used:
            used = c + 1
    return used


def extract_features(g: Graph) -> FeatureVector:
    """Compute all 15 features; rejects the empty graph."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot extract features from an empty graph")
    m = g.edge_count
    deg = g.degrees()
    decomp = core_decomposition(g)
    counts, total = triangle_counts(g, decomp)
    wedges = int((deg * (deg - 1) // 2).sum())
    return FeatureVector(
        nodes=n,
        edges=m,
        density=2.0 * m / (n * (n - 1)) if n >= 2 else 0.0,
        max_degree=int(deg.max()),
        min_degree=int(deg.min()),
        avg_degree=2.0 * m / n,
        assortativity=assortativity(g),
        total_triangles=total,
        avg_triangles=3.0 * total / n,
        max_triangles=int(counts.max()),
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


def csv_text(header: list[str], rows: Iterable[list[str]]) -> str:
    """CSV text of the header and then each row, each line ended by a newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = out.getvalue()
    if "\r" in text:  # csv.writer does not quote it, so a reader would end the record
        line = text.count("\n", 0, text.index("\r")) + 1
        raise ValueError(f"cannot write CSV line {line}: a cell holds a carriage return")
    return text


def csv_records(text: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield the header of CSV text read with newline="" as line 1, then
    each non-blank record with the physical line it starts on (a quoted
    field may span lines).  A ValueError names `what` if there is no
    header, or the line of a record the csv module cannot read."""
    reader = csv.reader(io.StringIO(text, newline=""))
    start = 1
    try:
        for row in reader:
            if row or start == 1:
                yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if reader.line_num == 0:
        raise ValueError(f"empty {what}")


def check_row_name(name: str, seen: set, where: str) -> None:
    """Add a row's name to `seen`, or raise naming `where` if empty or seen."""
    if not name:
        raise ValueError(f"{where}: empty name")
    if name in seen:
        raise ValueError(f"{where}: duplicate name {name!r}")
    seen.add(name)


def write_features_csv(
    out: IO[str], rows: Iterable[tuple[str, str, FeatureVector]]
) -> None:
    """Write (name, category, features) rows under the fixed header."""
    out.write(csv_text(CSV_HEADER.split(","), (
        [name, category]
        + [format_value(f, getattr(fv, f)) for f in FEATURE_NAMES]
        for name, category, fv in rows
    )))


def read_features_csv(src: IO[str]) -> tuple[list[str], list[str], np.ndarray]:
    """Read a feature CSV back into (names, categories, matrix).

    The header must match the canonical layout exactly, each name must be
    non-empty and unique (check_row_name), and every feature cell must hold
    a finite number; an error names the row and the column.
    """
    records = csv_records(src.read(), "feature CSV")
    _, header = next(records)
    if header != CSV_HEADER.split(","):
        raise ValueError(f"bad feature CSV header; expected {CSV_HEADER!r}")
    names, categories, rows, seen = [], [], [], set()
    for lineno, row in records:
        if len(row) != len(FEATURE_NAMES) + 2:
            raise ValueError(f"feature CSV line {lineno}: row for {row[0]!r} has wrong arity")
        check_row_name(row[0], seen, f"feature CSV line {lineno}")
        names.append(row[0])
        categories.append(row[1])
        values = []
        for feature, cell in zip(FEATURE_NAMES, row[2:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise ValueError(f"feature CSV row for {row[0]!r}: {feature} is {cell!r}, "
                                 "not a number") from None
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(FEATURE_NAMES)))
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"feature CSV row for {names[i]!r}: {FEATURE_NAMES[j]} is "
                         f"{matrix[i, j]}, not a finite number")
    return names, categories, matrix
