"""Dataset assembly and the log/z-score transform."""

import numpy as np
import pytest

from netclass import Dataset, feature_log_flags
from netclass.data import apply_standardize, fit_standardize
from netclass.features import FEATURE_NAMES


class TestFitApply:
    def test_log_column_pinned_example(self):
        # counts {9, 99} -> log10(1+x) gives {1, 2} -> z-scores {-1, +1}
        matrix = np.array([[9.0], [99.0]])
        params = fit_standardize(matrix, log_flags=(True,))
        assert params.means == (1.5,)
        assert params.stds == (0.5,)
        out = apply_standardize(params, matrix)
        assert out[0, 0] == pytest.approx(-1.0)
        assert out[1, 0] == pytest.approx(1.0)

    def test_population_std_used(self):
        matrix = np.array([[1.0], [3.0]])
        params = fit_standardize(matrix)
        # population std of {1, 3} is 1, not the sample value sqrt(2)
        assert params.stds == (1.0,)

    def test_train_matrix_maps_to_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(5.0, 2.0, size=(40, 6))
        params = fit_standardize(matrix)
        out = apply_standardize(params, matrix)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_outputs_zero(self):
        matrix = np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]])
        params = fit_standardize(matrix)
        assert params.stds[0] == 0.0
        out = apply_standardize(params, matrix)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].std() > 0

    def test_apply_uses_training_parameters(self):
        train = np.array([[0.0], [2.0]])
        params = fit_standardize(train)
        new = apply_standardize(params, np.array([[4.0]]))
        assert new[0, 0] == pytest.approx(3.0)  # (4 - 1) / 1

    def test_dimension_mismatch(self):
        params = fit_standardize(np.ones((3, 2)))
        with pytest.raises(ValueError, match="columns"):
            apply_standardize(params, np.ones((3, 5)))
        with pytest.raises(ValueError, match="2-D"):
            apply_standardize(params, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        matrix = np.array([[1.0], [bad]])
        with pytest.raises(ValueError, match="non-finite"):
            fit_standardize(matrix)
        params = fit_standardize(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            apply_standardize(params, matrix)

    def test_negative_count_in_log_column_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            fit_standardize(np.array([[-1.0], [3.0]]), log_flags=(True,))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            fit_standardize(np.empty((0, 3)))


class TestFeatureLogFlags:
    def test_count_scale_columns_flagged(self):
        flags = dict(zip(FEATURE_NAMES, feature_log_flags()))
        expected_logged = {
            "nodes", "edges", "max_degree", "min_degree", "total_triangles",
            "avg_triangles", "max_triangles", "max_kcore", "max_clique_lb",
            "chromatic_number",
        }
        assert {k for k, v in flags.items() if v} == expected_logged
        assert sum(feature_log_flags()) == 10


class TestDataset:
    def make(self):
        names = ["a", "b", "c", "d"]
        cats = ["ER", "BA", "ER", "BA"]
        matrix = np.arange(8, dtype=float).reshape(4, 2)
        return Dataset.from_feature_table(names, cats, matrix)

    def test_label_table_sorted(self):
        ds = self.make()
        assert ds.label_names == ("BA", "ER")
        assert list(ds.labels) == [1, 0, 1, 0]

    def test_missing_category_rejected(self):
        with pytest.raises(ValueError, match="without a category"):
            Dataset.from_feature_table(["a"], [""], np.ones((1, 2)))

    def test_subset_keeps_label_table(self):
        ds = self.make()
        sub = ds.subset([0, 2])
        assert sub.names == ("a", "c")
        assert sub.label_names == ds.label_names
        assert list(sub.labels) == [1, 1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            Dataset(("a",), np.array([0, 1]), ("x",), np.ones((1, 2)))
