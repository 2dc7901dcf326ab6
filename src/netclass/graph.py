"""Canonical simple undirected graphs and the file formats that produce them.

Every input (edge list, Matrix Market) is canonicalized the same way:
self-loops dropped, duplicate/reversed edges merged, weights discarded, and
source labels compacted to 0..n-1 in first-appearance order.  The resulting
Graph is immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Sequence


class GraphParseError(ValueError):
    """Raised when a graph file violates its declared format."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph over compact node ids 0..node_count-1.

    adjacency[v] is a sorted tuple of distinct neighbors, never containing v;
    u in adjacency[v] iff v in adjacency[u].
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency]

    def edges(self) -> Iterable[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, sorted."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


@dataclass(frozen=True)
class NodeIdMap:
    """Bijection from original source labels to compact node ids."""

    to_compact: dict

    def original_labels(self) -> list:
        inv = [None] * len(self.to_compact)
        for label, idx in self.to_compact.items():
            inv[idx] = label
        return inv


def _build_graph(n: int, edge_set: set[tuple[int, int]]) -> Graph:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), len(edge_set))


def from_edges(pairs: Sequence[tuple]) -> tuple[Graph, NodeIdMap]:
    """Canonicalize a list of (label, label) pairs into a Graph.

    Self-loops are dropped (their labels do not become nodes), parallel and
    reversed duplicates merge, and labels are numbered in first-appearance
    order.  An empty input yields the empty graph.
    """
    ids: dict = {}
    edge_set: set[tuple[int, int]] = set()
    for a, b in pairs:
        if a == b:
            continue
        u = ids.get(a)
        if u is None:
            u = ids[a] = len(ids)
        v = ids.get(b)
        if v is None:
            v = ids[b] = len(ids)
        edge_set.add((u, v) if u < v else (v, u))
    return _build_graph(len(ids), edge_set), NodeIdMap(ids)


def _coerce_label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_edge_list(text: "str | IO[str]") -> tuple[Graph, NodeIdMap]:
    """Parse whitespace-separated edge-list text.

    Lines starting with '%' or '#' are comments; blank lines are skipped.
    Data lines hold 2 or 3 tokens (the third is a weight and is discarded).
    Integer-looking tokens are treated as integer labels, anything else as
    text labels.
    """
    if hasattr(text, "read"):
        text = text.read()
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise GraphParseError(
                f"line {lineno}: expected 2 or 3 tokens, got {len(tokens)}"
            )
        pairs.append((_coerce_label(tokens[0]), _coerce_label(tokens[1])))
    return from_edges(pairs)


_MM_FIELDS = ("pattern", "real", "integer")
_MM_SYMMETRIES = ("general", "symmetric")


def parse_matrix_market(text: "str | IO[str]") -> tuple[Graph, NodeIdMap]:
    """Parse the coordinate subset of the Matrix Market format.

    Accepts pattern/real/integer fields with general/symmetric symmetry.
    Off-diagonal entries become undirected edges (values discarded), diagonal
    entries are dropped, and `general` matrices are symmetrized.  Unlike edge
    lists, the declared dimension is kept, so isolated nodes survive.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphParseError("missing %%MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise GraphParseError(f"malformed header: {lines[0]!r}")
    fmt, fld, sym = (h.lower() for h in header[2:5])
    if fmt != "coordinate":
        raise GraphParseError(f"unsupported format {fmt!r} (coordinate only)")
    if fld not in _MM_FIELDS:
        raise GraphParseError(f"unsupported field {fld!r}")
    if sym not in _MM_SYMMETRIES:
        raise GraphParseError(f"unsupported symmetry {sym!r}")
    want_tokens = 2 if fld == "pattern" else 3

    body = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise GraphParseError("missing dimensions line")
    dim_lineno, dim_line = body[0]
    dims = dim_line.split()
    if len(dims) != 3:
        raise GraphParseError(f"line {dim_lineno}: expected 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(t) for t in dims)
    except ValueError:
        raise GraphParseError(f"line {dim_lineno}: non-integer dimensions") from None
    if min(rows, cols, nnz) < 0:
        raise GraphParseError(f"line {dim_lineno}: negative dimensions {dim_line!r}")
    if rows != cols:
        raise GraphParseError(f"line {dim_lineno}: non-square matrix {rows}x{cols}")
    if len(body) - 1 != nnz:
        raise GraphParseError(
            f"declared {nnz} entries but found {len(body) - 1}"
        )

    edge_set: set[tuple[int, int]] = set()
    for lineno, line in body[1:]:
        tokens = line.split()
        if len(tokens) != want_tokens:
            raise GraphParseError(
                f"line {lineno}: expected {want_tokens} tokens, got {len(tokens)}"
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer index") from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise GraphParseError(
                f"line {lineno}: index ({i},{j}) outside declared range 1..{rows}"
            )
        if i == j:
            continue
        u, v = i - 1, j - 1
        edge_set.add((u, v) if u < v else (v, u))
    return _build_graph(rows, edge_set), NodeIdMap({i: i - 1 for i in range(1, rows + 1)})


def write_edge_list(g: Graph) -> str:
    """Serialize to the canonical edge list: 'u v' per line, u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Return the graph with node v renamed to mapping[v]."""
    if sorted(mapping) != list(range(g.node_count)):
        raise ValueError("mapping must be a permutation of 0..n-1")
    edge_set = {
        (mapping[u], mapping[v]) if mapping[u] < mapping[v] else (mapping[v], mapping[u])
        for u, v in g.edges()
    }
    return _build_graph(g.node_count, edge_set)
