"""Cross-validation, confusion matrices, and cluster/category overlap."""

import numpy as np
import pytest

from netclass import Dataset, ForestParams, cross_validate
from netclass.data import fit_standardize
from netclass.evaluate import (
    ConfusionMatrix,
    FoldPlan,
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
        plan = stratified_kfold(labels, 3, seed=1)
        flat = sorted(i for fold in plan.folds for i in fold)
        assert flat == list(range(12))

    def test_per_class_balance(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=57)
        k = 5
        plan = stratified_kfold(labels, k, seed=2)
        for cls in np.unique(labels):
            per_fold = [sum(labels[i] == cls for i in fold) for fold in plan.folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic_by_seed(self):
        labels = np.array([0, 1] * 10)
        assert stratified_kfold(labels, 4, 7).folds == stratified_kfold(labels, 4, 7).folds
        assert stratified_kfold(labels, 4, 7).folds != stratified_kfold(labels, 4, 8).folds

    def test_small_classes_leave_empty_folds(self):
        # both classes deal round-robin starting at fold 0, so the
        # tail folds stay empty: 3 rows -> folds 0,1,2 and 2 -> 0,1
        labels = np.array([0, 0, 0, 1, 1])
        plan = stratified_kfold(labels, 5, seed=0)
        assert [len(f) for f in plan.folds] == [2, 2, 1, 0, 0]

    def test_k_validation(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="at least 2"):
            stratified_kfold(labels, 1, 0)
        with pytest.raises(ValueError, match="cannot split"):
            stratified_kfold(labels, 5, 0)

    def test_fold_plan_rejects_non_partition(self):
        with pytest.raises(ValueError, match="partition"):
            FoldPlan(((0, 1), (1, 2)), seed=0)

    def test_train_indices_complement(self):
        plan = stratified_kfold(np.array([0, 0, 1, 1, 0, 1]), 2, seed=3)
        for f in range(2):
            train = plan.train_indices(f)
            assert sorted(train + plan.folds[f]) == list(range(6))


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
        assert result.misclassified == ()
        assert np.all(result.predictions >= 0)
        assert result.confusion.off_diagonal_total == 0

    def test_every_row_predicted_exactly_once(self):
        ds = separable_dataset(seed=3)
        result = cross_validate(ds, ForestParams(trees=5), k=3, seed=1)
        assert result.predictions.shape == (ds.n_rows,)
        assert set(result.predictions) <= {0, 1}

    def test_empty_folds_predict_nothing(self):
        ds = separable_dataset(n_per_class=3, seed=4)
        result = cross_validate(ds, ForestParams(trees=5), k=5, seed=0)
        assert [len(f) for f in result.plan.folds] == [2, 2, 2, 0, 0]
        assert np.all(result.predictions >= 0)
        assert result.confusion.counts.sum() == ds.n_rows

    def test_fold_standardization_fits_train_rows_only(self):
        ds = separable_dataset(seed=8)
        result = cross_validate(ds, ForestParams(trees=3), k=2, seed=2)
        full = fit_standardize(ds.matrix)
        for f, params in enumerate(result.fold_standardize):
            train = list(result.plan.train_indices(f))
            expected = fit_standardize(ds.matrix[train])
            assert params.means == expected.means
            assert params.stds == expected.stds
            assert params.means != full.means

    def test_seed_schedule_reproducible(self):
        ds = separable_dataset(seed=6)
        r1 = cross_validate(ds, ForestParams(trees=4), k=3, seed=9)
        r2 = cross_validate(ds, ForestParams(trees=4), k=3, seed=9)
        assert np.array_equal(r1.predictions, r2.predictions)
        assert r1.plan.seed == derive_seed(9, 0)

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
        expected_bad = {
            ds.names[i]
            for i in range(ds.n_rows)
            if result.predictions[i] != ds.labels[i]
        }
        assert {r.name for r in result.misclassified} == expected_bad
        for rec in result.misclassified:
            assert rec.true_label != rec.predicted_label
            assert sum(rec.votes) == 5


class TestConfusionMatrix:
    def test_pinned_counts(self):
        true = np.array([0, 0, 1, 1, 1])
        pred = np.array([0, 1, 1, 1, 0])
        cm = ConfusionMatrix.from_predictions(true, pred, ("BA", "ER"))
        assert cm.counts.tolist() == [[1, 1], [1, 2]]
        assert cm.accuracy == pytest.approx(0.6)
        assert cm.off_diagonal_total == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no predictions"):
            ConfusionMatrix.from_predictions(np.array([]), np.array([]), ("a",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            ConfusionMatrix.from_predictions(np.array([0]), np.array([0, 1]), ("a",))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="label table"):
            ConfusionMatrix.from_predictions(np.array([0]), np.array([5]), ("a", "b"))

    def test_csv_emitter(self):
        cm = ConfusionMatrix.from_predictions(
            np.array([0, 1, 1]), np.array([0, 1, 0]), ("BA", "ER")
        )
        assert confusion_to_csv(cm) == "category,BA,ER\nBA,1,0\nER,1,1\n"

    def test_text_emitter_reports_accuracy(self):
        cm = ConfusionMatrix.from_predictions(
            np.array([0, 1]), np.array([0, 1]), ("BA", "ER")
        )
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
        from netclass.evaluate import MisclassRecord

        records = [MisclassRecord("g7", "ER", "BA", (60, 40))]
        text = misclass_to_csv(records, ("BA", "ER"))
        assert text == (
            "name,category,predicted,votes_BA,votes_ER\n"
            "g7,ER,BA,60,40\n"
        )
