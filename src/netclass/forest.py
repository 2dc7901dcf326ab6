"""CART decision trees and a bagged random forest, trained without sklearn.

A split depends only on the order of a column's values, so a forest fits
nothing but its trees: it only takes log10(1+x) of the columns that
ForestParams.log_flags names (data.apply_log).

Determinism contract: tree t of a forest draws its bootstrap sample from
derive_seed(master, 2t) and its split-candidate subsets from
derive_seed(master, 2t+1), so any scheduling of tree construction yields the
same model.  All ties (equal Gini gain, equal votes) break toward the lowest
feature index / threshold / class index.

All trees of a forest grow in lockstep (_grow_trees, whose one entry is
forest_train).  Each round takes from every live tree the next node in its
preorder that can split; leaves on the way are recorded and draw nothing.
That node draws its candidate columns from its own tree's generator, so each
tree sees the same draws as when it is grown alone.  The round's nodes are
then scored in one segmented numpy pass per chunk of CHUNK_ROWS rows, so the
cost of a numpy call is paid per chunk, not per node.  Rows are ordered by
dense rank per column, computed once per forest; equal values may come out
in any order, which changes no gain, since a cut between equal values is not
scored and the class counts at a cut between distinct values do not depend
on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, apply_log
from .seeding import derive_seed, make_rng

MODEL_FORMAT = "netclass-forest"
MODEL_VERSION = 3
TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")
# Rows scored in one segmented pass.  A round's nodes go in chunks of at
# most this many rows (a larger node is a chunk of its own), which bounds
# the pass's arrays to a few MiB.
CHUNK_ROWS = 4096


class ModelFormatError(ValueError):
    """Raised when a serialized model cannot be understood."""


@dataclass(frozen=True)
class ForestParams:
    """Training hyperparameters.

    features_per_split=None means round(sqrt(n_features)).  log_flags names
    the columns that go through log10(1+x) before any split (None = none).
    """

    trees: int = 100
    features_per_split: "int | None" = None
    min_split: int = 2
    log_flags: "tuple[bool, ...] | None" = None

    def validate(self, n_features: int) -> None:
        if self.trees < 1:
            raise ValueError("need at least one tree")
        if self.min_split < 2:
            raise ValueError("min_split must be at least 2")
        if self.log_flags is not None and len(self.log_flags) != n_features:
            raise ValueError("log_flags length does not match column count")
        fps = self.resolved_features_per_split(n_features)
        if not 1 <= fps <= n_features:
            raise ValueError(
                f"features_per_split {fps} outside 1..{n_features}"
            )

    def resolved_features_per_split(self, n_features: int) -> int:
        if self.features_per_split is not None:
            return self.features_per_split
        return max(1, int(round(np.sqrt(n_features))))


@dataclass(frozen=True, eq=False)
class DecisionTree:
    """A tree as parallel node arrays in preorder; node 0 is the root.

    feature is -1 at leaves; an internal node sends x[feature] <= threshold
    to left and the rest to right, and both children come after it.
    counts[i] holds the per-class training counts that reached node i.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray

    def predict(self, xs: np.ndarray) -> np.ndarray:
        """Class of each row of a matrix."""
        node = np.zeros(len(xs), dtype=np.int64)
        live = np.nonzero(self.feature[node] >= 0)[0]
        while live.size:
            at = node[live]
            go_left = xs[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.feature[node[live]] >= 0]
        return np.argmax(self.counts[node], axis=1)


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    params: ForestParams
    label_names: tuple[str, ...]


class _Growth:
    """One tree while it grows: its generator, its node arrays in preorder,
    and a stack of (rows, class counts, parent) for the nodes not yet numbered.
    A stack entry names its parent if it is a right child; a left child always
    directly follows its parent."""

    def __init__(self, rows: np.ndarray, counts: np.ndarray, seed: int):
        self.rng = make_rng(seed)
        self.stack = [(rows, counts, -1)]
        self.feature, self.threshold, self.left, self.right, self.counts = [], [], [], [], []

    def next_node(self, min_split: int):
        """Number nodes off the stack, each a leaf for now, until one can split:
        it holds at least min_split rows of at least two classes.  Returns that
        node's (number, rows, counts), or None when the tree is done."""
        while self.stack:
            rows, counts, parent = self.stack.pop()
            node = len(self.feature)
            if parent >= 0:
                self.right[parent] = node
            self.feature.append(-1)
            self.threshold.append(0.0)
            self.left.append(-1)
            self.right.append(-1)
            self.counts.append(counts)
            if len(rows) >= min_split and np.count_nonzero(counts) > 1:
                return node, rows, counts
        return None

    def split(self, node, feature, threshold, left, right) -> None:
        """Make node internal; left and right are each child's (rows, counts).
        The left child is popped first, so nodes are numbered in preorder."""
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = node + 1
        self.stack.append((*right, node))
        self.stack.append((*left, -1))

    def tree(self) -> DecisionTree:
        return DecisionTree(
            np.array(self.feature, dtype=np.int64),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.int64),
            np.array(self.right, dtype=np.int64),
            np.array(self.counts, dtype=np.int64),
        )


def _grow_trees(
    x: np.ndarray,
    y: np.ndarray,
    samples: list,
    features_per_split: int,
    min_split: int,
    seeds: list,
    n_classes: int,
) -> list:
    """Grow CART tree t on the rows x[samples[t]], y[samples[t]] of a finite
    x (data.apply_log's), drawing each node's features_per_split candidate
    columns (checked by forest_train) from make_rng(seeds[t]); see the module
    docstring for the lockstep schedule.  A node takes the cut of greatest
    Gini gain, at the midpoint of the two values it separates (the lower one
    if no float lies between).  It stays a leaf when pure, when it holds
    fewer than min_split rows, or when no cut has strictly positive gain."""
    n_features = x.shape[1]
    # Values and their dense ranks column by column: (row, column) is the
    # flat index column * n_rows + row.
    columns = x.T.ravel()
    ranks = np.concatenate([np.unique(col, return_inverse=True)[1] for col in x.T])
    growing = [
        _Growth(rows, np.bincount(y[rows], minlength=n_classes), seed)
        for rows, seed in zip(samples, seeds)
    ]
    live = growing
    while True:
        nodes = []
        for g in live:
            found = g.next_node(min_split)
            if found is not None:
                nodes.append((g, *found))
        if not nodes:
            return [g.tree() for g in growing]
        live = [g for g, *_ in nodes]
        feats = np.sort(np.array([
            g.rng.choice(n_features, size=features_per_split, replace=False) for g in live
        ]), axis=1)
        begin = rows_in_chunk = 0
        for i, (_, _, rows, _) in enumerate(nodes):
            if i > begin and rows_in_chunk + len(rows) > CHUNK_ROWS:
                _split_nodes(columns, ranks, y, nodes[begin:i], feats[begin:i])
                begin, rows_in_chunk = i, 0
            rows_in_chunk += len(rows)
        _split_nodes(columns, ranks, y, nodes[begin:], feats[begin:])


def _split_nodes(columns, ranks, y, nodes, feats) -> None:
    """Score every cut of every candidate column of nodes, each a (growth,
    number, rows, counts), in one segmented pass and split each node whose
    best cut has strictly positive gain.

    Slot (j, r) holds row r of the chunk (nodes one after another) sorted by
    candidate column j of its node; a segment is one (column, node) pair.
    """
    k_nodes, n_cand = feats.shape
    sizes = np.array([len(rows) for _, _, rows, _ in nodes])
    rows = np.concatenate([rows for _, _, rows, _ in nodes])
    counts = np.array([counts for *_, counts in nodes])
    n_classes = counts.shape[1]
    n_rows = len(y)
    owner = np.repeat(np.arange(k_nodes), sizes)
    col_base = feats[owner].T * n_rows
    # Node first, then rank: each segment comes out in value order.
    srt = rows[np.argsort(owner * n_rows + ranks[col_base + rows], axis=1)]
    sv = columns[col_base + srt].ravel()
    srt = srt.ravel()
    offsets = np.cumsum(sizes) - sizes
    seg_start = (np.arange(n_cand)[:, None] * len(rows) + offsets).ravel()
    seg_of = (np.arange(n_cand)[:, None] * k_nodes + owner).ravel()
    # Class counts of slots [0, i) are cum[i]; a segment subtracts its own
    # start, since the slot before it may belong to another column.
    cum = np.zeros((len(srt) + 1, n_classes), dtype=np.int32)
    onehot = np.take(np.eye(n_classes, dtype=np.int32), y[srt], axis=0)
    np.cumsum(onehot, axis=0, out=cum[1:])
    # A cut after slot p is scored only between distinct values of one segment.
    opens = np.zeros(len(srt), dtype=bool)
    opens[seg_start] = True
    cut = np.flatnonzero((sv[:-1] != sv[1:]) & ~opens[1:])
    if not cut.size:
        return
    seg = seg_of[cut]
    base = seg_start[seg]
    node = seg % k_nodes
    total = sizes[node]
    # The expressions of the node-at-a-time search, in its order, with the
    # class axis last and contiguous so every sum adds in the same order.
    left_counts = np.take(cum, cut + 1, axis=0) - np.take(cum, base, axis=0)
    n_left = (cut + 1 - base).astype(np.float64)
    n_right = total - n_left
    right_counts = np.take(counts, node, axis=0) - left_counts
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    parent_gini = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)
    gain = parent_gini[node] - (n_left / total) * gini_left - (n_right / total) * gini_right
    # The first cut that reaches its segment's maximum, then the first column.
    firsts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    seg_gain = np.maximum.reduceat(gain, firsts)
    reach = gain == np.repeat(seg_gain, np.diff(np.r_[firsts, len(cut)]))
    best_cut = np.full(n_cand * k_nodes, -1)
    best_cut[seg[firsts]] = np.minimum.reduceat(
        np.where(reach, np.arange(len(cut)), len(cut)), firsts)
    best = np.full(n_cand * k_nodes, -np.inf)
    best[seg[firsts]] = seg_gain
    col = np.argmax(best.reshape(n_cand, k_nodes), axis=0)
    won = np.flatnonzero(best[col * k_nodes + np.arange(k_nodes)] > 0.0)
    if not won.size:
        return
    c = best_cut[col[won] * k_nodes + won]
    p = cut[c]
    # The midpoint, or the lower value where the midpoint is not below the
    # upper one (adjacent floats) or overflows.  Either way the left child
    # is the slots up to p, so both children shrink.
    with np.errstate(over="ignore"):
        mid = (sv[p] + sv[p + 1]) / 2.0
    threshold = np.where((sv[p] <= mid) & (mid < sv[p + 1]), mid, sv[p])
    start = base[c]
    end = start + sizes[won]
    at = p + 1
    left_child = np.take(cum, at, axis=0) - np.take(cum, start, axis=0)
    right_child = counts[won] - left_child
    for k, f, t, a, b, e, lc, rc in zip(
        won.tolist(), feats[won, col[won]].tolist(), threshold.tolist(), start.tolist(),
        at.tolist(), end.tolist(), left_child, right_child,
    ):
        g, number = nodes[k][:2]
        g.split(number, f, t, (srt[a:b].copy(), lc), (srt[b:e].copy(), rc))


def forest_train(dataset: Dataset, params: ForestParams, master_seed: int) -> Forest:
    """Train a bagged forest; its params spell out log_flags (None: all False)."""
    if dataset.n_rows < 1:
        raise ValueError("cannot train on an empty dataset")
    n_features = dataset.matrix.shape[1]
    params.validate(n_features)
    params = replace(params, log_flags=params.log_flags or (False,) * n_features)
    xs = apply_log(dataset.matrix, params.log_flags)
    n = dataset.n_rows
    samples = [make_rng(derive_seed(master_seed, 2 * t)).integers(0, n, size=n)
               for t in range(params.trees)]
    seeds = [derive_seed(master_seed, 2 * t + 1) for t in range(params.trees)]
    trees = _grow_trees(xs, dataset.labels, samples,
                        params.resolved_features_per_split(n_features),
                        params.min_split, seeds, dataset.n_classes)
    return Forest(tuple(trees), params, dataset.label_names)


def forest_predict(forest: Forest, x: np.ndarray):
    """Majority vote over trees on raw (untransformed) feature vectors.

    One vector gives (label index, per-class vote counts); a matrix gives
    (labels, votes) arrays with one row per input row.  Vote ties go to the
    lowest class index.
    """
    x = np.asarray(x, dtype=np.float64)
    n_features = len(forest.params.log_flags)
    if x.ndim not in (1, 2) or x.shape[-1] != n_features:
        raise ValueError(f"expected rows of {n_features} features")
    xs = apply_log(np.atleast_2d(x), forest.params.log_flags)
    votes = np.zeros((len(xs), len(forest.label_names)), dtype=np.int64)
    rows = np.arange(len(xs))
    for tree in forest.trees:
        votes[rows, tree.predict(xs)] += 1
    labels = np.argmax(votes, axis=1)
    if x.ndim == 1:
        return int(labels[0]), votes[0]
    return labels, votes


def forest_to_json(forest: Forest) -> str:
    """Serialize to a versioned, key-sorted JSON document."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "label_names": list(forest.label_names),
        "params": {
            "trees": forest.params.trees,
            "features_per_split": forest.params.features_per_split,
            "min_split": forest.params.min_split,
            "log_flags": list(forest.params.log_flags),
        },
        "trees": [
            {name: getattr(t, name).tolist() for name in TREE_ARRAYS}
            for t in forest.trees
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _tree_from_dict(data: dict, n_features: int, n_classes: int) -> DecisionTree:
    """Build one tree from its arrays, checking every shape and index."""
    tree = DecisionTree(*(
        np.asarray(data[name], dtype=np.float64 if name == "threshold" else np.int64)
        for name in TREE_ARRAYS
    ))
    n = len(tree.feature)
    if n < 1 or tree.counts.shape != (n, n_classes) or any(
        getattr(tree, name).shape != (n,) for name in TREE_ARRAYS[:4]
    ):
        raise ModelFormatError(
            f"tree arrays must have one entry per node and {n_classes} counts each"
        )
    # The int64 conversion truncates a fraction, so compare with the values read.
    if any(not np.array_equal(np.asarray(data[name], dtype=np.float64), getattr(tree, name))
           for name in ("feature", "left", "right", "counts")):
        raise ModelFormatError("tree feature, left, right and counts must hold whole numbers")
    if not np.isfinite(tree.threshold).all() or (tree.counts < 0).any():
        raise ModelFormatError("tree thresholds must be finite and counts at least 0")
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise ModelFormatError(f"tree feature index outside 0..{n_features - 1}")
    # Children must come after their parent, so every walk ends at a leaf.
    inner = tree.feature >= 0
    node = np.arange(n)[inner]
    for child in (tree.left[inner], tree.right[inner]):
        if ((child <= node) | (child >= n)).any():
            raise ModelFormatError("tree child index out of range")
    return tree


def _json_list(value, kind, message: str) -> tuple:
    """A JSON list whose items are all of kind (true and false are not numbers)."""
    if not isinstance(value, list) or not all(
        isinstance(v, kind) and (kind is bool or not isinstance(v, bool)) for v in value
    ):
        raise ModelFormatError(message)
    return tuple(value)


def forest_from_json(text: str) -> Forest:
    """Parse a model document, rejecting unknown formats and versions."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a netclass-forest model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"unsupported model version {payload.get('version')!r} "
            f"(this netclass reads version {MODEL_VERSION}); retrain the model"
        )
    try:
        raw_params = payload["params"]
        fps = raw_params["features_per_split"]
        _json_list(
            [raw_params["trees"], raw_params["min_split"]] + ([] if fps is None else [fps]),
            int, "params trees and min_split must be integers, features_per_split "
            "an integer or null",
        )
        params = ForestParams(
            trees=raw_params["trees"],
            features_per_split=fps,
            min_split=raw_params["min_split"],
            log_flags=_json_list(raw_params["log_flags"], bool,
                                 "params log_flags must be a list of booleans"),
        )
        label_names = _json_list(
            payload["label_names"], str, "label_names must be a list of strings"
        )
        if not label_names or "" in label_names or len(set(label_names)) < len(label_names):
            raise ModelFormatError("label_names must be distinct, non-empty strings")
        n_features = len(params.log_flags)
        trees = tuple(
            _tree_from_dict(t, n_features, len(label_names)) for t in payload["trees"]
        )
        if not trees:
            raise ModelFormatError("model holds no trees")
        if params.trees != len(trees):
            raise ModelFormatError(
                f"params trees is {params.trees} but the model holds {len(trees)} trees"
            )
        params.validate(n_features)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    return Forest(trees, params, label_names)
