"""Cross-validation, confusion matrices, and cluster/category overlap."""

import numpy as np
import pytest

import netclass.evaluate as evaluate_module
from netclass import Dataset, ForestParams, cross_validate, forest_predict, forest_train
from netclass.evaluate import (
    ConfusionMatrix,
    CVResult,
    cluster_category_overlap,
    confusion_to_csv,
    confusion_to_text,
    misclass_to_csv,
    overlap_to_text,
    stratified_kfold,
)
from netclass.seeding import derive_seed


class TestStratifiedKFold:
    def test_partition(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2])
        folds = stratified_kfold(labels, 3, seed=1)
        assert folds.shape == (12,) and folds.dtype == np.int64
        assert folds.min() >= 0 and folds.max() < 3

    def test_per_class_balance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=57)
        k = 5
        folds = stratified_kfold(labels, k, seed=2)
        for cls in np.unique(labels):
            per_fold = np.bincount(folds[labels == cls], minlength=k)
            assert per_fold.max() - per_fold.min() <= 1

    def test_deterministic_by_seed(self):
        labels = np.array([0, 1] * 10)
        assert np.array_equal(stratified_kfold(labels, 4, 7), stratified_kfold(labels, 4, 7))
        assert not np.array_equal(stratified_kfold(labels, 4, 7), stratified_kfold(labels, 4, 8))

    def test_small_classes_leave_empty_folds(self):
        # both classes deal round-robin starting at fold 0, so the
        # tail folds stay empty: 3 rows -> folds 0,1,2 and 2 -> 0,1
        labels = np.array([0, 0, 0, 1, 1])
        folds = stratified_kfold(labels, 5, seed=0)
        assert np.bincount(folds, minlength=5).tolist() == [2, 2, 1, 0, 0]

    def test_k_validation(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="at least 2"):
            stratified_kfold(labels, 1, 0)
        with pytest.raises(ValueError, match="cannot split"):
            stratified_kfold(labels, 5, 0)


def separable_dataset(n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=0.0, size=(n_per_class, 4))
    b = rng.normal(loc=8.0, size=(n_per_class, 4))
    matrix = np.vstack([a, b])
    names = [f"r{i}" for i in range(2 * n_per_class)]
    cats = ["low"] * n_per_class + ["high"] * n_per_class
    return Dataset.from_feature_table(names, cats, matrix)


class TestCrossValidate:
    def test_separable_data_scores_perfectly(self):
        ds = separable_dataset()
        result = cross_validate(ds, ForestParams(trees=15), k=4, seed=5)
        assert result.accuracy == 1.0
        assert (result.predictions == ds.labels).all()
        assert np.all(result.predictions >= 0)
        counts = result.confusion.counts
        assert counts.sum() - np.trace(counts) == 0

    def test_every_row_predicted_exactly_once(self):
        ds = separable_dataset(seed=3)
        result = cross_validate(ds, ForestParams(trees=5), k=3, seed=1)
        assert result.predictions.shape == (ds.n_rows,)
        assert set(result.predictions) <= {0, 1}

    def test_empty_folds_predict_nothing(self, monkeypatch):
        trained = []

        def counting_train(*args):
            trained.append(args)
            return forest_train(*args)

        monkeypatch.setattr(evaluate_module, "forest_train", counting_train)
        ds = separable_dataset(n_per_class=3, seed=4)
        result = cross_validate(ds, ForestParams(trees=5), k=5, seed=0)
        assert np.bincount(result.folds, minlength=5).tolist() == [2, 2, 2, 0, 0]
        assert len(trained) == 3  # the two empty folds train no forest
        assert np.all(result.predictions >= 0)
        assert result.confusion.counts.sum() == ds.n_rows

    def test_fold_without_training_rows_rejected(self):
        # one row per class: every class deals its row to fold 0
        ds = Dataset.from_feature_table(["a", "b", "c"], ["x", "y", "z"], np.eye(3))
        with pytest.raises(ValueError, match="fold 0 leaves no training rows"):
            cross_validate(ds, ForestParams(trees=2), k=3, seed=0)

    def test_each_fold_is_predicted_by_a_forest_of_the_other_folds(self):
        ds = separable_dataset(seed=8)
        params = ForestParams(trees=3)
        result = cross_validate(ds, params, k=2, seed=2)
        for f in range(2):
            held = result.folds == f
            forest = forest_train(ds.subset(np.nonzero(~held)[0]), params, derive_seed(2, 1 + f))
            labels, votes = forest_predict(forest, ds.matrix[held])
            assert np.array_equal(result.predictions[held], labels)
            assert np.array_equal(result.votes[held], votes)

    def test_seed_schedule_reproducible(self):
        ds = separable_dataset(seed=6)
        r1 = cross_validate(ds, ForestParams(trees=4), k=3, seed=9)
        r2 = cross_validate(ds, ForestParams(trees=4), k=3, seed=9)
        assert np.array_equal(r1.predictions, r2.predictions)
        assert np.array_equal(r1.folds, stratified_kfold(ds.labels, 3, derive_seed(9, 0)))

    def test_misclassified_records_are_consistent(self):
        # random labels guarantee some misclassifications
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(24, 3))
        cats = [("x" if rng.random() < 0.5 else "y") for _ in range(24)]
        if len(set(cats)) == 1:
            cats[0] = "x" if cats[0] == "y" else "y"
        ds = Dataset.from_feature_table(
            [f"g{i}" for i in range(24)], cats, matrix
        )
        result = cross_validate(ds, ForestParams(trees=5), k=3, seed=0)
        expected_bad = [
            ds.names[i]
            for i in range(ds.n_rows)
            if result.predictions[i] != ds.labels[i]
        ]
        assert expected_bad
        pairs = list(zip(ds.labels.tolist(), result.predictions.tolist()))
        assert result.confusion.counts.tolist() == [
            [pairs.count((t, p)) for p in (0, 1)] for t in (0, 1)
        ]
        header, *rows = misclass_to_csv(ds, result).splitlines()
        assert header == "name,category,predicted,votes_x,votes_y"
        assert [row.split(",")[0] for row in rows] == expected_bad
        for row in rows:
            _, true_label, predicted_label, *votes = row.split(",")
            assert true_label != predicted_label
            assert sum(map(int, votes)) == 5


class TestConfusionMatrix:
    def test_pinned_counts(self):
        cm = ConfusionMatrix(np.array([[1, 1], [1, 2]]), ("BA", "ER"))
        assert cm.accuracy == pytest.approx(0.6)
        assert cm.counts.sum() - np.trace(cm.counts) == 2

    def test_csv_emitter(self):
        cm = ConfusionMatrix(np.array([[1, 0], [1, 1]]), ("BA", "ER"))
        assert confusion_to_csv(cm) == "category,BA,ER\nBA,1,0\nER,1,1\n"

    def test_text_emitter_reports_accuracy(self):
        cm = ConfusionMatrix(np.array([[1, 0], [0, 1]]), ("BA", "ER"))
        text = confusion_to_text(cm)
        assert "accuracy 1.000000" in text
        assert "BA" in text and "ER" in text


class TestOverlap:
    def test_identical_distributions_give_full_mass(self):
        assignments = np.array([0, 1, 0, 1])
        labels = np.array([0, 0, 1, 1])
        report = cluster_category_overlap(assignments, labels, ("a", "b"))
        assert report.counts.tolist() == [[1, 1], [1, 1]]
        # both categories split 50/50 over the clusters: mass = 0.5
        assert report.suggestions == ()
        low = cluster_category_overlap(assignments, labels, ("a", "b"), threshold=0.5)
        assert low.suggestions == (("a", "b", 0.5),)

    def test_cohabiting_categories_suggested(self):
        assignments = np.array([0, 0, 0, 0, 1, 1])
        labels = np.array([0, 0, 1, 1, 2, 2])
        report = cluster_category_overlap(assignments, labels, ("a", "b", "c"))
        assert ("a", "b", 1.0) in report.suggestions
        assert all({x, y} != {"a", "c"} for x, y, _ in report.suggestions)

    def test_disjoint_categories_zero_mass(self):
        assignments = np.array([0, 0, 1, 1])
        labels = np.array([0, 0, 1, 1])
        report = cluster_category_overlap(assignments, labels, ("a", "b"))
        assert report.suggestions == ()
        assert report.purity == (1.0, 1.0)

    def test_purity(self):
        assignments = np.array([0, 0, 0, 0, 1])
        labels = np.array([0, 0, 0, 1, 1])
        report = cluster_category_overlap(assignments, labels, ("a", "b"))
        assert report.purity[0] == pytest.approx(0.75)
        assert report.purity[1] == pytest.approx(1.0)

    def test_empty_cluster_allowed(self):
        report = cluster_category_overlap(
            np.array([0, 2]), np.array([0, 1]), ("a", "b"), n_clusters=3
        )
        assert report.purity[1] == 0.0

    def test_text_emitter(self):
        report = cluster_category_overlap(
            np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), ("a", "b"), threshold=0.5
        )
        text = overlap_to_text(report)
        assert "cluster" in text
        assert "a + b" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            cluster_category_overlap(np.array([0]), np.array([0, 1]), ("a", "b"))

    @pytest.mark.parametrize("threshold", [1.5, -0.1, float("nan")])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            cluster_category_overlap(
                np.array([0, 1]), np.array([0, 1]), ("a", "b"), threshold=threshold
            )


class TestMisclassCsv:
    def test_golden_output(self):
        ds = Dataset.from_feature_table(["g3", "g7"], ["BA", "ER"], np.zeros((2, 1)))
        cm = ConfusionMatrix(np.array([[1, 0], [1, 0]]), ds.label_names)
        result = CVResult(
            folds=np.array([0, 1]),
            predictions=np.array([0, 0]),
            votes=np.array([[100, 0], [60, 40]]),
            confusion=cm,
        )
        text = misclass_to_csv(ds, result)
        assert text == (
            "name,category,predicted,votes_BA,votes_ER\n"
            "g7,ER,BA,60,40\n"
        )
