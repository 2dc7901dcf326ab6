"""k-means clustering: pinned examples, monotonicity, determinism."""

import numpy as np
import pytest

from netclass import kmeans


class TestPinnedExamples:
    def test_two_pairs_on_a_line(self):
        matrix = np.array([[0.0], [1.0], [10.0], [11.0]])
        result = kmeans(matrix, 2, restarts=5, seed=0)
        assert result.inertia == pytest.approx(1.0)
        assert sorted(float(c) for c in result.centroids[:, 0]) == [0.5, 10.5]
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(12, 3))
        result = kmeans(matrix, 1, seed=4)
        assert np.allclose(result.centroids[0], matrix.mean(axis=0))
        expected = ((matrix - matrix.mean(axis=0)) ** 2).sum()
        assert result.inertia == pytest.approx(expected)

    def test_k_equals_n_distinct_points(self):
        matrix = np.arange(10, dtype=float).reshape(5, 2) * 7
        result = kmeans(matrix, 5, seed=2)
        assert result.inertia == pytest.approx(0.0)
        assert sorted(result.assignments) == [0, 1, 2, 3, 4]


class TestTraceMonotonicity:
    def test_every_restart_trace_non_increasing(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(8, n)))
            matrix = rng.normal(scale=rng.uniform(0.5, 5.0), size=(n, d))
            result = kmeans(matrix, k, restarts=4, seed=trial)
            for trace in result.restart_traces:
                assert len(trace) >= 1
                for early, late in zip(trace, trace[1:]):
                    assert late <= early + 1e-9

    def test_winner_has_lowest_final_inertia(self):
        rng = np.random.default_rng(15)
        matrix = rng.normal(size=(30, 2))
        result = kmeans(matrix, 3, restarts=6, seed=1)
        finals = [t[-1] for t in result.restart_traces]
        assert result.inertia == min(finals)
        assert result.best_restart == finals.index(min(finals))


class TestDeterminismAndEdgeCases:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(44)
        matrix = rng.normal(size=(25, 4))
        a = kmeans(matrix, 4, seed=9)
        b = kmeans(matrix, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_duplicate_points_with_excess_clusters(self):
        # fewer distinct points than clusters exercises the reseed path
        matrix = np.array([[0.0], [0.0], [0.0], [10.0]])
        result = kmeans(matrix, 3, restarts=3, seed=6)
        assert np.isfinite(result.inertia)
        assert set(result.assignments) == {0, 1, 2}

    def test_reseat_never_empties_a_singleton_cluster(self):
        # Every point is at distance 0, so the farthest point is the first
        # one, the only member of its cluster after the first reseat; moving
        # it would empty that cluster and make its mean NaN.
        result = kmeans(np.zeros((6, 2)), 3, seed=1)
        assert result.inertia == 0.0
        assert set(result.assignments) == {0, 1, 2}
        assert all(trace == (0.0, 0.0) for trace in result.restart_traces)

    def test_coincident_points(self):
        result = kmeans(np.zeros((2, 1)), 2, seed=0)
        assert result.inertia == 0.0
        assert set(result.assignments) == {0, 1}

    def test_k_out_of_range(self):
        matrix = np.zeros((3, 1))
        with pytest.raises(ValueError, match="k must be"):
            kmeans(matrix, 0, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(matrix, 4, seed=0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            kmeans(np.array([[np.nan], [1.0]]), 1, seed=0)

    def test_bad_iteration_budgets(self):
        with pytest.raises(ValueError, match="positive"):
            kmeans(np.zeros((3, 1)), 1, max_iter=0, seed=0)
        with pytest.raises(ValueError, match="positive"):
            kmeans(np.zeros((3, 1)), 1, restarts=0, seed=0)
