"""CART decision trees and a bagged random forest, trained without sklearn.

Determinism contract: tree t of a forest draws its bootstrap sample from
derive_seed(master, 2t) and its split-candidate subsets from
derive_seed(master, 2t+1), so any scheduling of tree construction yields the
same model.  All ties (equal Gini gain, equal votes) break toward the lowest
feature index / threshold / class index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, StandardizeParams, apply_standardize, fit_standardize
from .seeding import derive_seed, make_rng

MODEL_FORMAT = "netclass-forest"
MODEL_VERSION = 2
TREE_ARRAYS = ("feature", "threshold", "left", "right", "counts")


class ModelFormatError(ValueError):
    """Raised when a serialized model cannot be understood."""


@dataclass(frozen=True)
class ForestParams:
    """Training hyperparameters.

    features_per_split=None means round(sqrt(n_features)).  log_flags is the
    per-column log-transform layout handed to standardization (None = plain
    z-score).
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
        fps = self.resolved_features_per_split(n_features)
        if not 1 <= fps <= n_features:
            raise ValueError(
                f"features_per_split {fps} outside 1..{n_features}"
            )
        if self.log_flags is not None and len(self.log_flags) != n_features:
            raise ValueError("log_flags length does not match feature count")

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

    def leaves(self, xs: np.ndarray) -> np.ndarray:
        """Leaf index reached by each row of a matrix."""
        node = np.zeros(len(xs), dtype=np.int64)
        live = np.nonzero(self.feature[node] >= 0)[0]
        while live.size:
            at = node[live]
            go_left = xs[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
            live = live[self.feature[node[live]] >= 0]
        return node

    def predict(self, x: np.ndarray):
        """Class of one vector (an int) or of each row of a matrix (an array)."""
        x = np.asarray(x, dtype=np.float64)
        labels = np.argmax(self.counts[self.leaves(np.atleast_2d(x))], axis=1)
        return int(labels[0]) if x.ndim == 1 else labels


@dataclass(frozen=True)
class Forest:
    trees: tuple[DecisionTree, ...]
    params: ForestParams
    standardize: StandardizeParams
    label_names: tuple[str, ...]


def train_tree(
    matrix: np.ndarray,
    labels: np.ndarray,
    features_per_split: int,
    min_split: int,
    seed: int,
    n_classes: "int | None" = None,
) -> DecisionTree:
    """Grow one CART tree with Gini impurity and midpoint thresholds.

    A node becomes a leaf when it is pure, holds fewer than min_split
    samples, or no candidate split has strictly positive gain.  Each node
    examines its own random subset of feature columns.
    """
    x = np.asarray(matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[0] != y.shape[0]:
        raise ValueError("matrix and labels disagree or are empty")
    # A NaN threshold would send every row right and never end the split.
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite values")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    n_features = x.shape[1]
    if not 1 <= features_per_split <= n_features:
        raise ValueError("features_per_split outside 1..n_features")
    rng = make_rng(seed)
    feature, threshold, left, right, counts = [], [], [], [], []
    # Pop the left child first: nodes are numbered, and draw their candidate
    # features, in preorder.  A stack entry names its parent if it is a
    # right child; a left child always directly follows its parent.
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
        # Every cut of every candidate column at once: row i of a column's
        # stable sort order ends the left side of cut i.
        cols = x[idx][:, feats]
        order = np.argsort(cols, axis=0, kind="stable")
        sv = np.take_along_axis(cols, order, axis=0)
        onehot = y[idx][order][:, :, None] == np.arange(n_classes)
        n_left = np.arange(1, total, dtype=np.float64)[:, None]
        n_right = total - n_left
        left_counts = np.cumsum(onehot, axis=0)[:-1].astype(np.float64)
        right_counts = node_counts - left_counts
        gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
        gain = parent_gini - (n_left / total) * gini_left - (n_right / total) * gini_right
        gain[sv[:-1] == sv[1:]] = -np.inf  # no cut between equal values
        # The first maximum is the lowest cut, then the lowest feature.
        cut = np.argmax(gain, axis=0)
        f = int(np.argmax(gain[cut, np.arange(len(feats))]))
        if not gain[cut[f], f] > 0.0:
            continue
        feature[node] = int(feats[f])
        threshold[node] = float((sv[cut[f], f] + sv[cut[f] + 1, f]) / 2.0)
        left[node] = node + 1
        mask = x[idx, feature[node]] <= threshold[node]
        stack.append((idx[~mask], node))
        stack.append((idx[mask], -1))
    return DecisionTree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )


def forest_train(dataset: Dataset, params: ForestParams, master_seed: int) -> Forest:
    """Train a bagged forest; standardization is fitted on this data only."""
    if dataset.n_rows < 1:
        raise ValueError("cannot train on an empty dataset")
    n_features = dataset.matrix.shape[1]
    params.validate(n_features)
    std_params = fit_standardize(dataset.matrix, params.log_flags)
    xs = apply_standardize(std_params, dataset.matrix)
    y = dataset.labels
    n = dataset.n_rows
    fps = params.resolved_features_per_split(n_features)
    trees = []
    for t in range(params.trees):
        idx = make_rng(derive_seed(master_seed, 2 * t)).integers(0, n, size=n)
        trees.append(
            train_tree(xs[idx], y[idx], fps, params.min_split,
                       derive_seed(master_seed, 2 * t + 1),
                       n_classes=dataset.n_classes)
        )
    return Forest(tuple(trees), params, std_params, dataset.label_names)


def forest_predict(forest: Forest, x: np.ndarray):
    """Majority vote over trees on raw (unstandardized) feature vectors.

    One vector gives (label index, per-class vote counts); a matrix gives
    (labels, votes) arrays with one row per input row.  Vote ties go to the
    lowest class index.
    """
    x = np.asarray(x, dtype=np.float64)
    n_features = len(forest.standardize.means)
    if x.ndim not in (1, 2) or x.shape[-1] != n_features:
        raise ValueError(f"expected rows of {n_features} features")
    xs = apply_standardize(forest.standardize, np.atleast_2d(x))
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
        },
        "standardize": {
            "log_flags": list(forest.standardize.log_flags),
            "means": list(forest.standardize.means),
            "stds": list(forest.standardize.stds),
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
        std = payload["standardize"]
        standardize = StandardizeParams(
            tuple(bool(b) for b in std["log_flags"]),
            tuple(float(v) for v in std["means"]),
            tuple(float(v) for v in std["stds"]),
        )
        raw_params = payload["params"]
        params = ForestParams(
            trees=int(raw_params["trees"]),
            features_per_split=(
                None if raw_params["features_per_split"] is None
                else int(raw_params["features_per_split"])
            ),
            min_split=int(raw_params["min_split"]),
            log_flags=standardize.log_flags,
        )
        label_names = tuple(str(s) for s in payload["label_names"])
        n_features = len(standardize.means)
        if not label_names or n_features < 1 or not (
            len(standardize.log_flags) == n_features == len(standardize.stds)
        ):
            raise ModelFormatError("model needs labels and equal-length standardize lists")
        if not np.isfinite(standardize.means + standardize.stds).all():
            raise ModelFormatError("standardize means and stds must be finite")
        if min(standardize.stds) < 0:
            raise ModelFormatError("standardize stds must be at least 0")
        trees = tuple(
            _tree_from_dict(t, n_features, len(label_names)) for t in payload["trees"]
        )
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed model document: {exc}") from None
    if not trees:
        raise ModelFormatError("model holds no trees")
    return Forest(trees, params, standardize, label_names)
