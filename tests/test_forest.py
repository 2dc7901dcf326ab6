"""Decision tree and random forest behavior."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from test_golden import multiclass_csv

from netclass import Dataset, ForestParams, forest_predict, forest_train
from netclass.data import apply_log, feature_log_flags
from netclass.features import read_features_csv
from netclass.forest import (
    TREE_ARRAYS,
    Forest,
    ModelFormatError,
    _grow_trees,
    forest_from_json,
    forest_to_json,
)
from netclass.seeding import derive_seed, make_rng


EPS = np.finfo(np.float64).eps


def train_tree(x, y, features_per_split, min_split, seed, n_classes=None):
    """One tree grown on every row of x, as forest_train grows each tree."""
    n_classes = int(y.max()) + 1 if n_classes is None else n_classes
    return _grow_trees(x, y, [np.arange(len(x))], features_per_split, min_split, [seed],
                       n_classes)[0]


def arrays(tree):
    return {name: getattr(tree, name).tolist() for name in TREE_ARRAYS}


def walk(tree, row):
    """Reference traversal of one row, node by node."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return node


def is_single_leaf(tree, counts):
    return arrays(tree) == {"feature": [-1], "threshold": [0.0], "left": [-1],
                            "right": [-1], "counts": [counts]}


def unique_dataset(n_rows=40, n_cols=8, n_classes=4, seed=5):
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n_rows, n_cols))
    labels = rng.integers(0, n_classes, size=n_rows)
    names = [f"r{i}" for i in range(n_rows)]
    cats = [f"c{int(l)}" for l in labels]
    return Dataset.from_feature_table(names, cats, matrix)


class TestTrainTree:
    def test_two_class_1d_split(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        tree = train_tree(x, y, features_per_split=1, min_split=2, seed=0)
        assert tree.feature.tolist() == [0, -1, -1]  # a split, then two leaves
        assert tree.threshold[0] == 0.0  # midpoint of -1 and 1
        assert (tree.left[0], tree.right[0]) == (1, 2)
        assert tree.counts.tolist() == [[2, 2], [2, 0], [0, 2]]
        assert tree.predict(np.array([[-5.0]])).tolist() == [0]
        assert tree.predict(np.array([[0.0]])).tolist() == [0]  # x <= threshold goes left
        assert tree.predict(np.array([[0.5]])).tolist() == [1]

    def test_midpoint_threshold(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = train_tree(x, y, 1, 2, seed=1)
        assert tree.threshold[0] == 0.5

    def test_pure_node_is_leaf(self):
        x = np.array([[1.0], [2.0], [3.0]])
        tree = train_tree(x, np.array([1, 1, 1]), 1, 2, seed=0, n_classes=2)
        assert is_single_leaf(tree, [0, 3])

    def test_min_split_stops_growth(self):
        x = np.array([[-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        tree = train_tree(x, y, 1, min_split=5, seed=0)
        assert is_single_leaf(tree, [2, 2])

    def test_no_positive_gain_is_leaf(self):
        # identical rows with mixed labels cannot be split
        x = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        tree = train_tree(x, y, 3, 2, seed=0)
        assert is_single_leaf(tree, [2, 2])

    def test_equal_gain_breaks_to_lowest_feature(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        tree = train_tree(x, y, features_per_split=2, min_split=2, seed=3)
        assert tree.feature[0] == 0

    def test_leaf_vote_tie_breaks_to_lowest_class(self):
        x = np.zeros((2, 1))
        y = np.array([1, 0])
        tree = train_tree(x, y, 1, 2, seed=0)
        assert tree.predict(np.array([[0.0]])).tolist() == [0]

    def test_non_finite_matrix_rejected(self):
        for bad in (np.nan, np.inf):
            x = np.array([[0.0], [bad], [1.0], [bad]])
            ds = Dataset.from_feature_table(list("abcd"), ["A", "B", "A", "B"], x)
            with pytest.raises(ValueError, match="non-finite"):
                forest_train(ds, ForestParams(trees=1), master_seed=0)

    def test_no_cut_with_positive_gain_leaves_one_leaf(self):
        # Each side of the one cut holds one row of each class: zero gain.
        tree = train_tree(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0, 1, 0, 1]),
                          1, 2, seed=0)
        assert is_single_leaf(tree, [2, 2])

    @pytest.mark.parametrize("low,high", [
        (1.0 + EPS, 1.0 + 2 * EPS),  # the midpoint rounds up to the larger value
        (1e308, 1.7e308),  # the midpoint overflows to inf
        (-1.7e308, -1e308),  # ... or to -inf
    ])
    def test_cut_without_a_midpoint_between_takes_the_lower_value(self, low, high):
        x = np.array([[low], [high], [low], [high]])
        tree = train_tree(x, np.array([0, 1, 0, 1]), 1, 2, 0, n_classes=2)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == low
        assert tree.counts.tolist() == [[2, 2], [2, 0], [0, 2]]
        assert tree.predict(x).tolist() == [0, 1, 0, 1]
        params = ForestParams(trees=1, log_flags=(False,))
        text = forest_to_json(Forest((tree,), params, ("a", "b")))
        assert arrays(forest_from_json(text).trees[0]) == arrays(tree)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        t1 = train_tree(x, y, 2, 2, seed=42)
        t2 = train_tree(x, y, 2, 2, seed=42)
        assert arrays(t1) == arrays(t2)

    def test_perfectly_fits_unique_rows(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(25, 4))
        y = rng.integers(0, 3, size=25)
        tree = train_tree(x, y, 4, 2, seed=1)
        got = [int(tree.predict(x[i:i + 1])[0]) for i in range(25)]
        assert got == [int(v) for v in y]
        assert tree.predict(x).tolist() == got


class TestForest:
    def test_votes_sum_to_tree_count(self):
        ds = unique_dataset()
        forest = forest_train(ds, ForestParams(trees=13), master_seed=7)
        _, votes = forest_predict(forest, ds.matrix[0])
        assert votes.sum() == 13

    def test_training_accuracy_perfect_on_unique_vectors(self):
        ds = unique_dataset(n_rows=30, seed=2)
        forest = forest_train(ds, ForestParams(trees=60), master_seed=3)
        hits = sum(
            forest_predict(forest, ds.matrix[i])[0] == ds.labels[i]
            for i in range(ds.n_rows)
        )
        assert hits == ds.n_rows

    def test_bootstrap_seed_schedule(self):
        ds = unique_dataset(n_rows=12, seed=4)
        forest = forest_train(ds, ForestParams(trees=3), master_seed=11)
        # tree 1 bootstraps from derive_seed(11, 2) and splits with (11, 3)
        idx = make_rng(derive_seed(11, 2)).integers(0, 12, size=12)
        fps = ForestParams().resolved_features_per_split(8)
        tree = train_tree(ds.matrix[idx], ds.labels[idx], fps, 2, derive_seed(11, 3),
                          n_classes=ds.n_classes)
        assert arrays(tree) == arrays(forest.trees[1])
        assert arrays(tree) != arrays(forest.trees[0])

    def test_training_memory_stays_bounded(self):
        # All trees grow at once, so a round's scoring arrays must stay
        # chunked: the peak was 1.5 MiB one node at a time, 5 MiB in chunks
        # of 4,096 rows and 20 MiB unchunked.
        ds = Dataset.from_feature_table(*read_features_csv(io.StringIO(multiclass_csv())))
        params = ForestParams(trees=100, log_flags=feature_log_flags())
        tracemalloc.start()
        try:
            forest_train(ds, params, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_deterministic_and_seed_sensitive(self):
        ds = unique_dataset(n_rows=20, seed=9)
        a = forest_to_json(forest_train(ds, ForestParams(trees=8), 1))
        b = forest_to_json(forest_train(ds, ForestParams(trees=8), 1))
        c = forest_to_json(forest_train(ds, ForestParams(trees=8), 2))
        assert a == b
        assert a != c

    def test_default_features_per_split_is_sqrt(self):
        assert ForestParams().resolved_features_per_split(15) == 4
        assert ForestParams().resolved_features_per_split(9) == 3
        assert ForestParams(features_per_split=7).resolved_features_per_split(15) == 7

    def test_matrix_predict_matches_row_calls(self):
        ds = unique_dataset()
        forest = forest_train(ds, ForestParams(trees=7), 4)
        labels, votes = forest_predict(forest, ds.matrix)
        want = np.zeros_like(votes)
        for tree in forest.trees:
            for i, row in enumerate(ds.matrix):
                want[i, np.argmax(tree.counts[walk(tree, row)])] += 1
        assert np.array_equal(votes, want)
        rows = [forest_predict(forest, row) for row in ds.matrix]
        assert all(type(label) is int for label, _ in rows)
        assert labels.tolist() == [label for label, _ in rows]
        assert np.array_equal(votes, np.stack([v for _, v in rows]))
        labels, votes = forest_predict(forest, ds.matrix[:0])
        assert labels.shape == (0,)
        assert votes.shape == (0, ds.n_classes)

    def test_dimension_mismatch_rejected(self):
        ds = unique_dataset(n_cols=5)
        forest = forest_train(ds, ForestParams(trees=2), 0)
        with pytest.raises(ValueError, match="5 features"):
            forest_predict(forest, np.zeros(4))

    def test_non_finite_input_rejected(self):
        ds = unique_dataset(n_cols=3)
        forest = forest_train(ds, ForestParams(trees=2), 0)
        with pytest.raises(ValueError, match="non-finite"):
            forest_predict(forest, np.array([1.0, np.nan, 0.0]))

    def test_bad_params_rejected(self):
        ds = unique_dataset()
        with pytest.raises(ValueError):
            forest_train(ds, ForestParams(trees=0), 0)
        with pytest.raises(ValueError):
            forest_train(ds, ForestParams(min_split=1), 0)
        with pytest.raises(ValueError):
            forest_train(ds, ForestParams(features_per_split=99), 0)

    def test_log_flags_take_the_log_of_their_columns_only(self):
        rng = np.random.default_rng(6)
        matrix = np.abs(rng.normal(50.0, 20.0, size=(20, 2)))
        labels = (matrix[:, 0] > 50).astype(int)
        ds = Dataset.from_feature_table(
            [f"r{i}" for i in range(20)],
            ["lo" if l == 0 else "hi" for l in labels],
            matrix,
        )
        forest = forest_train(ds, ForestParams(trees=10, log_flags=(True, False)), 0)
        assert forest.params.log_flags == (True, False)
        # The trees are those grown on log10(1+x) of column 0 and column 1 as is.
        plain = forest_train(Dataset(ds.names, ds.labels, ds.label_names,
                                     apply_log(matrix, (True, False))), ForestParams(trees=10), 0)
        assert [arrays(t) for t in forest.trees] == [arrays(t) for t in plain.trees]
        assert plain.params.log_flags == (False, False)
        assert np.array_equal(forest_predict(forest, matrix)[1],
                              forest_predict(plain, apply_log(matrix, (True, False)))[1])
        with pytest.raises(ValueError, match="log_flags length"):
            forest_train(ds, ForestParams(log_flags=(True,)), 0)


class TestModelSerialization:
    def test_round_trip_preserves_bytes_and_predictions(self):
        ds = unique_dataset(n_rows=15, seed=3)
        forest = forest_train(ds, ForestParams(trees=5), 21)
        text = forest_to_json(forest)
        again = forest_from_json(text)
        assert forest_to_json(again) == text
        for i in range(ds.n_rows):
            label1, votes1 = forest_predict(forest, ds.matrix[i])
            label2, votes2 = forest_predict(again, ds.matrix[i])
            assert label1 == label2
            assert np.array_equal(votes1, votes2)

    def test_document_shape(self):
        ds = unique_dataset(n_rows=10)
        payload = json.loads(forest_to_json(forest_train(ds, ForestParams(trees=2), 0)))
        assert payload["format"] == "netclass-forest"
        assert payload["version"] == 3
        assert sorted(payload) == ["format", "label_names", "params", "trees", "version"]
        assert len(payload["trees"]) == 2
        assert payload["label_names"] == list(ds.label_names)
        assert payload["params"]["log_flags"] == [False] * 8
        for tree in payload["trees"]:
            assert sorted(tree) == sorted(TREE_ARRAYS)
            assert len(tree["counts"]) == len(tree["feature"])
            assert all(len(c) == ds.n_classes for c in tree["counts"])

    def test_deep_tree_round_trips(self):
        # alternating labels on a line give a chain 1499 splits deep
        x = np.arange(1500.0)[:, None]
        y = np.arange(1500) % 2
        tree = train_tree(x, y, 1, 2, seed=0)
        assert len(tree.feature) == 2999
        assert tree.predict(x).tolist() == y.tolist()
        forest = Forest((tree,), ForestParams(trees=1, log_flags=(False,)), ("a", "b"))
        text = forest_to_json(forest)
        again = forest_from_json(text)
        assert arrays(again.trees[0]) == arrays(tree)
        assert forest_to_json(again) == text

    def test_wrong_format_rejected(self):
        with pytest.raises(ModelFormatError, match="not a netclass-forest"):
            forest_from_json('{"format": "something-else", "version": 1}')

    def test_wrong_version_rejected(self):
        for version in (99, 1, 2):
            with pytest.raises(ModelFormatError, match="version.*retrain"):
                forest_from_json(f'{{"format": "netclass-forest", "version": {version}}}')

    def test_truncated_json_rejected(self):
        ds = unique_dataset(n_rows=10)
        text = forest_to_json(forest_train(ds, ForestParams(trees=2), 0))
        with pytest.raises(ModelFormatError, match="JSON"):
            forest_from_json(text[: len(text) // 2])

    def test_missing_key_rejected(self):
        with pytest.raises(ModelFormatError, match="malformed"):
            forest_from_json('{"format": "netclass-forest", "version": 3}')
