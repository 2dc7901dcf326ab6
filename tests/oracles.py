"""Brute-force reference implementations used to cross-check the package.

Everything here is written for clarity over speed and is only run on tiny
graphs (n <= ~35; up to 300 nodes for the generator reference) and tiny tables, so
exponential algorithms are fine.  None of it shares
code with the package under test, except that `relabel` and
`barabasi_albert_reference` build a package Graph from their edge lists.
"""

import heapq
import re
from itertools import combinations
from typing import Sequence

import numpy as np

from netclass.graph import Graph, _build_graph


def adjacency(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def degrees(n, edges):
    adj = adjacency(n, edges)
    return [len(adj[v]) for v in range(n)]


def density(n, edges):
    if n < 2:
        return 0.0
    return len(edges) / (n * (n - 1) / 2)


def triangle_count_per_node(n, edges):
    adj = adjacency(n, edges)
    counts = [0] * n
    for a, b, c in combinations(range(n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def total_triangles(n, edges):
    return sum(triangle_count_per_node(n, edges)) // 3


def wedge_count(n, edges):
    return sum(d * (d - 1) // 2 for d in degrees(n, edges))


def transitivity(n, edges):
    wedges = wedge_count(n, edges)
    if wedges == 0:
        return 0.0
    return 3 * total_triangles(n, edges) / wedges


def local_clustering(n, edges):
    adj = adjacency(n, edges)
    out = []
    for v in range(n):
        d = len(adj[v])
        if d < 2:
            out.append(0.0)
            continue
        links = sum(1 for a, b in combinations(sorted(adj[v]), 2) if b in adj[a])
        out.append(links / (d * (d - 1) / 2))
    return out


def avg_local_clustering(n, edges):
    if n == 0:
        return 0.0
    return sum(local_clustering(n, edges)) / n


def assortativity(n, edges):
    """Pearson correlation of endpoint degrees over both edge orientations."""
    if not edges:
        return 0.0
    deg = degrees(n, edges)
    xs, ys = [], []
    for u, v in edges:
        xs += [deg[u], deg[v]]
        ys += [deg[v], deg[u]]
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    vx = ((x - x.mean()) ** 2).mean()
    vy = ((y - y.mean()) ** 2).mean()
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = ((x - x.mean()) * (y - y.mean())).mean()
    return cov / np.sqrt(vx * vy)


def kcore_numbers(n, edges):
    """Core number per node by repeated sieving at increasing k."""
    core = [0] * n
    for k in range(1, n + 1):
        alive = set(range(n))
        adj = adjacency(n, edges)
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        if not alive:
            break
        for v in alive:
            core[v] = k
    return core


def max_kcore(n, edges):
    return max(kcore_numbers(n, edges), default=0)


def max_clique(n, edges):
    adj = adjacency(n, edges)
    if n == 0:
        return 0
    for size in range(n, 1, -1):
        for nodes in combinations(range(n), size):
            if all(b in adj[a] for a, b in combinations(nodes, 2)):
                return size
    return 1


def chromatic_number(n, edges):
    """Exact coloring via backtracking with color-symmetry breaking."""
    if n == 0:
        return 0
    adj = adjacency(n, edges)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    colors = {}

    def feasible(k, i):
        if i == n:
            return True
        v = order[i]
        used = max(colors.values(), default=-1)
        for c in range(min(used + 2, k)):
            if all(colors.get(w, -1) != c for w in adj[v]):
                colors[v] = c
                if feasible(k, i + 1):
                    del colors[v]
                    return True
                del colors[v]
        return False

    for k in range(1, n + 1):
        colors.clear()
        if feasible(k, 0):
            return k
    return n


def peel(n, edges):
    """Core numbers and peel order by min-(degree, id) peeling.

    The reference for features.core_decomposition: a heap of (current
    degree, id) pairs with stale entries skipped on pop.
    """
    adj = adjacency(n, edges)
    deg = [len(adj[v]) for v in range(n)]
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
        for u in sorted(adj[v]):
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    return core, order


def greedy_clique(n, edges, order):
    """Largest clique grown greedily from each node in reverse peel order
    through its later-peeled neighbors, taken in peel order."""
    if n == 0:
        return 0
    adj = adjacency(n, edges)
    pos = {v: i for i, v in enumerate(order)}
    best = 1
    for v in reversed(order):
        clique = [v]
        for u in sorted((u for u in adj[v] if pos[u] > pos[v]), key=pos.get):
            if all(w in adj[u] for w in clique):
                clique.append(u)
        best = max(best, len(clique))
    return best


def greedy_coloring(n, edges, order):
    """Colors used by first-fit coloring in reverse peel order."""
    adj = adjacency(n, edges)
    color = {}
    for v in reversed(order):
        taken = {color[u] for u in adj[v] if u in color}
        color[v] = min(c for c in range(len(taken) + 1) if c not in taken)
    return len(set(color.values()))


def _gini_gain(sv, sy, n_classes, parent_counts, parent_gini):
    """Best (gain, threshold) for one sorted feature column, or None."""
    n = len(sv)
    cut = np.nonzero(sv[:-1] != sv[1:])[0]
    if len(cut) == 0:
        return None
    onehot = sy[:, None] == np.arange(n_classes)[None, :]
    prefix = np.cumsum(onehot, axis=0)
    left = prefix[cut].astype(np.float64)
    right = parent_counts[None, :] - left
    n_left = (cut + 1).astype(np.float64)
    n_right = n - n_left
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    gain = parent_gini - (n_left / n) * gini_left - (n_right / n) * gini_right
    best = int(np.argmax(gain))
    lower, upper = sv[cut[best]], sv[cut[best] + 1]
    # The midpoint, unless it rounds onto the upper value or overflows.
    with np.errstate(over="ignore"):
        mid = (lower + upper) / 2.0
    threshold = mid if lower <= mid < upper else lower
    return float(gain[best]), float(threshold)


def cart_tree(x, y, features_per_split, min_split, seed, n_classes):
    """The reference for one tree of forest._grow_trees: the five preorder node arrays
    (feature, threshold, left, right, counts), each node's candidate columns
    scored one at a time and the best split kept under a strict `>`.

    Node numbering and the candidate draws follow the same preorder and the
    same PCG64 stream (numpy.random.default_rng(seed), seed >= 0).
    """
    rng = np.random.default_rng(seed)
    n_features = x.shape[1]
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(np.arange(x.shape[0]), -1)]
    while stack:
        idx, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_counts = np.bincount(y[idx], minlength=n_classes)
        total = len(idx)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(node_counts)
        if total < min_split or (node_counts > 0).sum() <= 1:
            continue
        parent_gini = 1.0 - ((node_counts / total) ** 2).sum()
        feats = np.sort(rng.choice(n_features, size=features_per_split, replace=False))
        best = None
        for f in feats:
            col = x[idx, f]
            order = np.argsort(col, kind="stable")
            found = _gini_gain(col[order], y[idx][order], n_classes, node_counts,
                               parent_gini)
            if found is None:
                continue
            gain, cut = found
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, int(f), cut)
        if best is None:
            continue
        _, feature[node], threshold[node] = best
        left[node] = node + 1
        mask = x[idx, feature[node]] <= threshold[node]
        stack.append((idx[~mask], node))
        stack.append((idx[mask], -1))
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


def _int(token):
    """int(token) for an optional sign and ASCII digits; ValueError otherwise."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def parse_matrix_market(text):
    """The reference for graph.parse_matrix_market: an earlier release's line
    path, which produced every result and message its numpy path did not,
    with integers read as an optional sign and ASCII digits.

    Returns (node count, sorted (u, v) edges with u < v, label list), or
    raises ValueError with the package's message.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("missing %%MatrixMarket header")
    banner = lines[0]
    if not banner.startswith("%%MatrixMarket"):
        raise ValueError("missing %%MatrixMarket header")
    header = banner.split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ValueError(f"malformed header: {banner!r}")
    fmt, fld, sym = (h.lower() for h in header[2:5])
    if fmt != "coordinate":
        raise ValueError(f"unsupported format {fmt!r} (coordinate only)")
    if fld not in ("pattern", "real", "integer"):
        raise ValueError(f"unsupported field {fld!r}")
    if sym not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {sym!r}")
    want_tokens = 2 if fld == "pattern" else 3

    body = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise ValueError("missing dimensions line")
    dim_lineno, dim_line = body[0]
    dims = dim_line.split()
    if len(dims) != 3:
        raise ValueError(f"line {dim_lineno}: expected 'rows cols nnz'")
    try:
        rows, cols, nnz = (_int(t) for t in dims)
    except ValueError:
        raise ValueError(f"line {dim_lineno}: non-integer dimensions") from None
    if min(rows, cols, nnz) < 0:
        raise ValueError(f"line {dim_lineno}: negative dimensions {dim_line!r}")
    if rows != cols:
        raise ValueError(f"line {dim_lineno}: non-square matrix {rows}x{cols}")
    if len(body) - 1 != nnz:
        raise ValueError(f"declared {nnz} entries but found {len(body) - 1}")

    edges = set()
    for lineno, line in body[1:]:
        tokens = line.split()
        if len(tokens) != want_tokens:
            raise ValueError(
                f"line {lineno}: expected {want_tokens} tokens, got {len(tokens)}"
            )
        try:
            i, j = _int(tokens[0]), _int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer index") from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise ValueError(
                f"line {lineno}: index ({i},{j}) outside declared range 1..{rows}"
            )
        if i != j:
            edges.add((min(i, j) - 1, max(i, j) - 1))
    return rows, sorted(edges), list(range(1, rows + 1))


def matrix_market_outcome(parse, text):
    """parse(text) as (node count, edges, labels), or its ValueError message,
    for either graph.parse_matrix_market or the reference above."""
    try:
        result = parse(text)
    except ValueError as exc:
        return str(exc)
    if isinstance(result[0], int):  # the reference
        return result
    g, labels = result
    return g.node_count, list(g.edges()), labels


def conditional_affinities_reference(d2, perplexity):
    """The reference for tsne.conditional_affinities: each row bisected alone.

    A row's distances are its full row of d2 with +inf at the point itself,
    shifted by their minimum; its affinities are exp(-d * beta), normalized,
    and its entropy is -sum p log2 p over its entries with p > 0.  Bisection
    starts at beta = 1, doubles beta until an upper bound exists, and stops
    within 1e-5 bits of log2(perplexity) or after 200 steps.
    """
    n = len(d2)
    target = float(np.log2(perplexity))
    p_cond = np.zeros((n, n))
    entropies = np.zeros(n)
    for i in range(n):
        d = d2[i].copy()
        d[i] = float("inf")
        d = d - d.min()
        beta, lo, hi = 1.0, 0.0, float("inf")
        for step in range(201):
            p = np.exp(-d * beta)
            p = p / p.sum()
            log_p = np.zeros_like(p)
            log_p[p > 0.0] = np.log2(p[p > 0.0])
            entropy = -(p * log_p).sum()
            if abs(entropy - target) <= 1e-5 or step == 200:
                break
            if entropy > target:
                lo = beta
                beta = beta * 2.0 if hi == float("inf") else (lo + hi) / 2.0
            else:
                hi = beta
                beta = (lo + hi) / 2.0
        p_cond[i] = p
        entropies[i] = entropy
    return p_cond, entropies


def kl_and_grad(p, y, exaggeration=1.0):
    """KL(P || Q) and its gradient for positions y, in full N x N arrays:
    the attractive sum times the exaggeration minus the repulsive sum over
    the kernel's total, and the KL over the entries with p > 1e-12 as a sum
    of row sums."""
    dx = y[:, 0, None] - y[None, :, 0]
    dy = y[:, 1, None] - y[None, :, 1]
    num = 1.0 / (1.0 + (dx * dx + dy * dy))
    np.fill_diagonal(num, 0.0)
    total = num.sum(axis=1).sum()
    q = np.maximum(num / total, 1e-12)
    terms = p * np.log(p / q)
    terms[p <= 1e-12] = 0.0
    kl = float(terms.sum(axis=1).sum())
    attractive = np.stack([(num * d * p).sum(axis=1) for d in (dx, dy)], axis=1)
    repulsive = np.stack([(num * d * num).sum(axis=1) for d in (dx, dy)], axis=1)
    grad = 4.0 * (exaggeration * attractive - repulsive / total)
    return kl, grad


def tsne_reference(p, iterations, learning_rate, seed):
    """The reference for tsne.tsne given its joint affinities p: a loop that
    computes the KL and gradient in full N x N arrays on every step.

    Returns (points, kl, kl_trace), or raises the package's ValueError when
    the run diverges.  The start draws the same PCG64 stream
    (numpy.random.default_rng(seed), seed >= 0).
    """
    message = "optimization diverged; lower the learning rate"
    y = np.random.default_rng(seed).normal(0.0, 1e-4, size=(p.shape[0], 2))
    velocity = np.zeros_like(y)
    trace = []
    kl = float("nan")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for it in range(1, iterations + 1):
                exaggerated = it <= 250
                _, grad = kl_and_grad(p, y, 12.0 if exaggerated else 1.0)
                momentum = 0.5 if exaggerated else 0.8
                velocity = momentum * velocity - learning_rate * grad
                y = y + velocity
                y = y - y.mean(axis=0)
                if it % 50 == 0 or it == 250 or it == iterations:
                    kl, _ = kl_and_grad(p, y)
                    trace.append((it, kl))
    except FloatingPointError:
        raise ValueError(message) from None
    if not np.isfinite(y).all() or not np.isfinite(kl):
        raise ValueError(message)
    return y, kl, tuple(trace)


def stratified_kfold(labels, k, seed):
    """The folds as sorted tuples of rows: the round-robin deal of each class's
    shuffled rows that the package's fold array encodes.  The generator is the
    one netclass.seeding.make_rng builds."""
    y = np.asarray(labels, dtype=np.int64)
    n = len(y)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed & ((1 << 64) - 1))
    folds = [[] for _ in range(k)]
    for label in np.unique(y):
        idx = np.nonzero(y == label)[0]
        perm = rng.permutation(idx)
        for j, row in enumerate(perm):
            folds[j % k].append(int(row))
    return tuple(tuple(sorted(f)) for f in folds)


def barabasi_albert_reference(n, m, seed):
    """The reference for synth.barabasi_albert: a list of every edge end so
    far, from which one target at a time is picked uniformly until a new
    node has m distinct ones."""
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(m, 1)
    ends = us.tolist() + vs.tolist()
    edges = list(zip(us.tolist(), vs.tolist()))
    for t in range(m, n):
        targets = set() if ends else {0}
        while len(targets) < m:
            targets.add(ends[int(rng.random() * len(ends))])
        ends += sorted(targets) + [t] * m
        edges += [(s, t) for s in targets]
    u, v = zip(*edges)
    return _build_graph(n, u, v)


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Return the graph with node v renamed to mapping[v]."""
    if sorted(mapping) != list(range(g.node_count)):
        raise ValueError("mapping must be a permutation of 0..n-1")
    new_id = np.asarray(mapping, dtype=np.int64)
    u, v = g.edge_arrays()
    return _build_graph(g.node_count, new_id[u], new_id[v])
