"""Canonical simple undirected graphs and the file formats that produce them.

Every input (edge list, Matrix Market) is canonicalized the same way:
self-loops dropped, duplicate/reversed edges merged, weights discarded, and
source labels compacted to 0..n-1 in first-appearance order.  The resulting
Graph holds read-only numpy arrays and is safe to share across threads.

Every parser returns the graph and its label list: labels[v] is the source
label of node v.  Both parsers have two paths that give the same graph and
label list: a numpy path for text made only of lines of unsigned decimal
integers separated by single spaces (the files `generate` writes), and a
line-by-line path for everything else, which also produces every error
message.  Matrix Market reads its header once, in one place; only its
entries take one path or the other, and any line end that str.splitlines
knows is first rewritten as "\n", so CRLF files take the numpy path too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


class GraphParseError(ValueError):
    """Raised when a graph file violates its declared format."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph over compact node ids 0..node_count-1.

    Compressed sparse rows: the neighbors of v are
    indices[indptr[v]:indptr[v + 1]], sorted ascending and never containing
    v; u is a neighbor of v iff v is a neighbor of u.  Both arrays are int64
    and read-only.
    """

    node_count: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_count: int

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once as arrays (u, v), u < v, sorted by (u, v)."""
        rows = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees())
        upper = rows < self.indices
        return rows[upper], self.indices[upper]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as (u, v) with u < v, sorted."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())


def _build_graph(n: int, u, v) -> Graph:
    """The graph on nodes 0..n-1 with an edge for each pair (u[i], v[i]).

    Self-loops are dropped and duplicate or reversed pairs merge.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    key = np.minimum(u, v)  # edge key lo * n + hi
    key *= n
    key += np.maximum(u, v)
    key = key[u != v]
    key.sort()
    key = key[_starts(key)]
    both = np.concatenate([key, key % n * n + key // n])  # both orientations
    both.sort()
    indptr, indices = _compress(both, n)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return Graph(n, indptr, indices, len(key))


def _compress(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and columns of the sorted keys row * n + column."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n), keys % n


def _starts(sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values.

    Sorting and masking is used instead of np.unique, which took 20 to 40
    times as long as np.sort on a million int64 keys with numpy 2.4, and
    whose first call imports numpy.ma (about 1 MB more peak RSS).
    """
    mask = np.ones(len(sorted_values), dtype=bool)
    mask[1:] = sorted_values[1:] != sorted_values[:-1]
    return mask


def from_edges(pairs: Sequence[tuple]) -> tuple[Graph, list]:
    """Canonicalize a list of (label, label) pairs into a Graph and its labels.

    Self-loops are dropped (their labels do not become nodes), parallel and
    reversed duplicates merge, and labels are numbered in first-appearance
    order.  An empty input yields the empty graph.
    """
    ids: dict = {}
    us, vs = [], []
    for a, b in pairs:
        if a == b:
            continue
        u = ids.get(a)
        if u is None:
            u = ids[a] = len(ids)
        v = ids.get(b)
        if v is None:
            v = ids[b] = len(ids)
        us.append(u)
        vs.append(v)
    return _build_graph(len(ids), us, vs), list(ids)


def _int_tokens(text: str, per_line: int) -> "np.ndarray | None":
    """All tokens of `text` as int64, if every line is `per_line` digit tokens.

    A line must hold unsigned decimal integers separated by single spaces,
    with no other character; a missing final newline is allowed.  Returns
    None for any other text, and for a value too large for int64.  The checks
    are whole-text string operations, so memory stays a small multiple of
    the text size.
    """
    if not text or not text.isascii():
        return None
    raw = text.encode("ascii")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    lines = raw.count(b"\n")
    if raw.translate(None, b"0123456789") != (b" " * (per_line - 1) + b"\n") * lines:
        return None
    # The layout of spaces and newlines is right; no token may be empty.
    if raw.startswith(b" ") or b"\n " in raw or b" \n" in raw or b"  " in raw:
        return None
    tokens = np.fromstring(raw, dtype=np.int64, sep=" ")
    if len(tokens) != per_line * lines or (tokens == np.iinfo(np.int64).max).any():
        return None  # np.fromstring saturates values beyond int64
    return tokens


def _parse_int_edges(tokens: np.ndarray) -> tuple[Graph, list]:
    """from_edges for integer labels given as flat (a0, b0, a1, b1, ...) tokens."""
    pairs = tokens.reshape(-1, 2)
    loops = pairs[:, 0] == pairs[:, 1]
    flat = pairs[~loops].ravel() if loops.any() else tokens
    order = np.argsort(flat)
    starts = _starts(flat[order])
    # A label is first seen at the least token index of its run in `order`.
    first = np.minimum.reduceat(order, np.flatnonzero(starts)) if len(flat) else order
    by_appearance = np.argsort(first)
    compact = np.empty(len(first), dtype=np.int64)
    compact[by_appearance] = np.arange(len(first))
    run = np.cumsum(starts)
    run -= 1
    ids = np.empty(len(flat), dtype=np.int64)
    ids[order] = compact[run]
    del order, run
    return _build_graph(len(first), ids[0::2], ids[1::2]), flat[np.sort(first)].tolist()


def _ascii_int(token: str) -> "int | None":
    """The integer an optional sign and ASCII digits spell, else None.

    int() alone also takes '_' separators and non-ASCII digits, so "1_000"
    and "1000" would name one node.
    """
    digits = token[1:] if token[:1] in "+-" else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _coerce_label(token: str):
    value = _ascii_int(token)
    return token if value is None else value


def parse_edge_list(text: str) -> tuple[Graph, list]:
    """Parse whitespace-separated edge-list text.

    Lines starting with '%' or '#' are comments; blank lines are skipped.
    Data lines hold 2 or 3 tokens (the third is a weight and is discarded).
    Integer-looking tokens are treated as integer labels, anything else as
    text labels.
    """
    tokens = _int_tokens(text, 2)
    if tokens is not None:
        return _parse_int_edges(tokens)
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
# _build_graph keys an edge (lo, hi) as lo * n + hi in int64.
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def _mm_field(line: str) -> str:
    """Check the %%MatrixMarket banner and return its field."""
    if not line.startswith("%%MatrixMarket"):
        raise GraphParseError("missing %%MatrixMarket header")
    header = line.split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise GraphParseError(f"malformed header: {line!r}")
    fmt, fld, sym = (h.lower() for h in header[2:5])
    if fmt != "coordinate":
        raise GraphParseError(f"unsupported format {fmt!r} (coordinate only)")
    if fld not in _MM_FIELDS:
        raise GraphParseError(f"unsupported field {fld!r}")
    if sym not in _MM_SYMMETRIES:
        raise GraphParseError(f"unsupported symmetry {sym!r}")
    return fld


def _mm_graph(rows: int, i, j) -> tuple[Graph, list]:
    """The graph of 1-based entries (i, j); the label of node v is v + 1."""
    graph = _build_graph(rows, np.asarray(i, dtype=np.int64) - 1,
                         np.asarray(j, dtype=np.int64) - 1)
    return graph, list(range(1, rows + 1))


def parse_matrix_market(text: str) -> tuple[Graph, list]:
    """Parse the coordinate subset of the Matrix Market format.

    Accepts pattern/real/integer fields with general/symmetric symmetry.
    Off-diagonal entries become undirected edges (values discarded), diagonal
    entries are dropped, and `general` matrices are symmetrized.  Unlike edge
    lists, the declared dimension is kept, so isolated nodes survive.
    """
    # Make "\n" the only line end (str.splitlines knows nine more), then walk
    # the banner, comments and blank lines up to the dimensions line.
    if any(end in text for end in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        text = "\n".join(text.splitlines())
    start, lineno, dim_line = 0, 0, ""
    while not dim_line:
        if start > len(text):
            raise GraphParseError("missing dimensions line")
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        line, start, lineno = text[start:end], end + 1, lineno + 1
        if lineno == 1:
            fld = _mm_field(line)
        elif not line.lstrip().startswith("%"):
            dim_line = line.strip()
    dims = dim_line.split()
    if len(dims) != 3:
        raise GraphParseError(f"line {lineno}: expected 'rows cols nnz'")
    rows, cols, nnz = (_ascii_int(t) for t in dims)
    if None in (rows, cols, nnz):
        raise GraphParseError(f"line {lineno}: non-integer dimensions")
    if min(rows, cols, nnz) < 0:
        raise GraphParseError(f"line {lineno}: negative dimensions {dim_line!r}")
    if rows != cols:
        raise GraphParseError(f"line {lineno}: non-square matrix {rows}x{cols}")
    if rows > MAX_NODES:
        raise GraphParseError(f"line {lineno}: {rows} rows exceed the limit of {MAX_NODES}")
    want_tokens = 2 if fld == "pattern" else 3

    tokens = _int_tokens(text[start:], want_tokens)
    if tokens is not None and len(tokens) == want_tokens * nnz:
        i, j = tokens[0::want_tokens], tokens[1::want_tokens]
        if min(i.min(), j.min()) >= 1 and max(i.max(), j.max()) <= rows:
            return _mm_graph(rows, i, j)

    body = [
        (n, line.strip())
        for n, line in enumerate(text[start:].split("\n"), start=lineno + 1)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if len(body) != nnz:
        raise GraphParseError(
            f"declared {nnz} entries but found {len(body)}"
        )
    us, vs = [], []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != want_tokens:
            raise GraphParseError(
                f"line {lineno}: expected {want_tokens} tokens, got {len(tokens)}"
            )
        i, j = _ascii_int(tokens[0]), _ascii_int(tokens[1])
        if i is None or j is None:
            raise GraphParseError(f"line {lineno}: non-integer index")
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise GraphParseError(
                f"line {lineno}: index ({i},{j}) outside declared range 1..{rows}"
            )
        us.append(i)
        vs.append(j)
    return _mm_graph(rows, us, vs)


def write_edge_list(g: Graph) -> str:
    """Serialize to the canonical edge list: 'u v' per line, u < v, sorted."""
    u, v = g.edge_arrays()
    flat = np.empty(2 * len(u), dtype=np.int64)
    flat[0::2], flat[1::2] = u, v
    return ("%d %d\n" * len(u)) % tuple(flat.tolist())

