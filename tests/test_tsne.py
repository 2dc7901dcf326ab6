"""t-SNE: affinity calibration, gradient correctness, optimization traces."""

import numpy as np
import pytest

from netclass import tsne
from netclass.tsne import (
    _pairwise_sq_dists,
    conditional_affinities,
    joint_affinities,
    kl_divergence,
    kl_gradient,
)


def blobs(rng, per=20, centers=((0, 0), (8, 8), (-8, 8))):
    points = [rng.normal(loc=c, scale=1.0, size=(per, len(c))) for c in centers]
    return np.vstack(points)


class TestAffinities:
    def test_row_entropy_matches_perplexity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 5))
        for perplexity in (5.0, 12.0):
            p_cond, entropies = conditional_affinities(
                _pairwise_sq_dists(x), perplexity
            )
            assert np.allclose(entropies, np.log2(perplexity), atol=1e-5)
            assert np.allclose(p_cond.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(np.diag(p_cond) == 0.0)

    def test_joint_affinities_symmetric_and_normalized(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4))
        p = joint_affinities(_pairwise_sq_dists(x), 7.0)
        assert np.allclose(p, p.T)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert p.min() >= 1e-12


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(10, 4))
        p = joint_affinities(_pairwise_sq_dists(x), 3.0)
        y = rng.normal(scale=0.5, size=(10, 2))
        grad = kl_gradient(p, y)
        h = 1e-5
        for i in range(10):
            for d in range(2):
                forward = y.copy()
                forward[i, d] += h
                backward = y.copy()
                backward[i, d] -= h
                fd = (kl_divergence(p, forward) - kl_divergence(p, backward)) / (2 * h)
                rel = abs(grad[i, d] - fd) / max(abs(fd), 1e-8)
                assert rel <= 1e-4, (i, d, grad[i, d], fd)


class TestOptimization:
    def test_embedding_shape_and_trace(self):
        rng = np.random.default_rng(5)
        x = blobs(rng)
        emb = tsne(x, perplexity=10.0, iterations=350, seed=1)
        assert emb.points.shape == (60, 2)
        assert np.isfinite(emb.points).all()
        assert abs(emb.points.mean()) < 1e-6  # recentered every step
        marks = dict(emb.kl_trace)
        assert 250 in marks and 350 in marks
        assert emb.kl == marks[350]

    def test_kl_improves_after_exaggeration_ends(self):
        rng = np.random.default_rng(6)
        x = blobs(rng)
        emb = tsne(x, perplexity=10.0, iterations=400, seed=2)
        marks = dict(emb.kl_trace)
        assert marks[400] < marks[250]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3))
        a = tsne(x, perplexity=5.0, iterations=60, seed=9)
        b = tsne(x, perplexity=5.0, iterations=60, seed=9)
        c = tsne(x, perplexity=5.0, iterations=60, seed=10)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_blobs_separate(self):
        rng = np.random.default_rng(8)
        x = blobs(rng)
        truth = np.repeat(np.arange(3), 20)
        # Learning rate 50 suits 60 points; at the default 200 the blobs stay
        # mixed at some seeds after 500 iterations.
        for seed in range(10):
            emb = tsne(x, perplexity=10.0, iterations=500, learning_rate=50.0, seed=seed)
            # each embedded point must sit closer to its own blob mean than
            # to the other blob means
            means = np.array([emb.points[i * 20:(i + 1) * 20].mean(axis=0) for i in range(3)])
            dists = ((emb.points[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            recovered = dists.argmin(axis=1)
            assert (recovered == truth).mean() >= 0.95, seed


class TestValidation:
    def test_perplexity_bound(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="perplexity"):
            tsne(x, perplexity=3.0, iterations=10, seed=0)  # needs < (10-1)/3

    def test_perplexity_floor(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="perplexity"):
            tsne(x, perplexity=0.5, iterations=10, seed=0)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="4 rows"):
            tsne(np.zeros((3, 2)), perplexity=1.0, iterations=10, seed=0)

    def test_non_finite_rejected(self):
        x = np.zeros((10, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            tsne(x, perplexity=2.0, iterations=10, seed=0)

    def test_bad_iterations(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="iterations"):
            tsne(x, perplexity=2.0, iterations=0, seed=0)

    @pytest.mark.parametrize("rate", [0.0, float("nan")])
    def test_bad_learning_rate(self, rate):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match="learning rate must be positive"):
            tsne(x, perplexity=2.0, iterations=10, learning_rate=rate, seed=0)

    @pytest.mark.parametrize("rate", [1e300, float("inf")])
    def test_divergence_is_one_error_and_no_warning(self, rate):
        # pytest turns warnings into errors, so a numpy overflow warning
        # escaping the optimizer would fail this test as well.
        x = blobs(np.random.default_rng(4), per=8)
        with pytest.raises(ValueError, match="optimization diverged"):
            tsne(x, perplexity=5.0, iterations=60, learning_rate=rate, seed=0)
