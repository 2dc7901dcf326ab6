"""Acceptance gate: one pass/fail line per criterion.

Each test prints "AC-n: PASS/FAIL (detail)" on the real stdout so the
verdicts are visible even under pytest's capture, then asserts.
"""

import sys
import time
from functools import lru_cache
from itertools import permutations

import numpy as np
import oracles
import pytest

import conftest
from conftest import EXPECTED_FEATURES, KARATE_ASSORTATIVITY, KARATE_EXPECTED
from netclass import (
    Dataset,
    ForestParams,
    cross_validate,
    default_corpus_specs,
    extract_features,
    feature_log_flags,
    forest_predict,
    forest_train,
    generate_corpus,
    kmeans,
    tsne,
)
from netclass.cli import main
from netclass.data import fit_standardize
from netclass.features import FeatureVector
from netclass.graph import _build_graph
from netclass.synth import barabasi_albert, erdos_renyi
from netclass.tsne import _pairwise_sq_dists, joint_affinities, kl_divergence, kl_gradient

INT_FEATURES = {f.name for f in FeatureVector.__dataclass_fields__.values()
                if f.type == "int"}


def _report(tag: str, ok: bool, detail: str = "") -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@lru_cache(maxsize=None)
def corpus_table(master: int):
    entries = generate_corpus(default_corpus_specs(master))
    names = [e.name for e in entries]
    categories = [e.category for e in entries]
    matrix = np.array([extract_features(e.graph).as_array() for e in entries])
    return names, categories, matrix


def corpus_dataset(master: int) -> Dataset:
    names, categories, matrix = corpus_table(master)
    return Dataset.from_feature_table(names, categories, matrix)


def random_graph(rng, n, p):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _build_graph(n, [u for u, _ in pairs], [v for _, v in pairs])


def check_against_oracles(graph) -> None:
    fv = extract_features(graph)
    n = graph.node_count
    edges = list(graph.edges())
    degrees = oracles.degrees(n, edges)
    per_node = oracles.triangle_count_per_node(n, edges)
    total = oracles.total_triangles(n, edges)

    assert fv.nodes == n
    assert fv.edges == len(edges)
    assert fv.density == pytest.approx(oracles.density(n, edges), abs=1e-9)
    assert fv.max_degree == max(degrees)
    assert fv.min_degree == min(degrees)
    assert fv.avg_degree == pytest.approx(2 * len(edges) / n, abs=1e-9)
    assert fv.assortativity == pytest.approx(oracles.assortativity(n, edges), abs=1e-9)
    assert fv.total_triangles == total
    assert fv.avg_triangles == pytest.approx(sum(per_node) / n, abs=1e-9)
    assert fv.max_triangles == max(per_node)
    assert fv.avg_clustering_coeff == pytest.approx(
        oracles.avg_local_clustering(n, edges), abs=1e-9
    )
    assert fv.frac_closed_triangles == pytest.approx(
        oracles.transitivity(n, edges), abs=1e-9
    )
    assert fv.max_kcore == oracles.max_kcore(n, edges)
    omega = oracles.max_clique(n, edges)
    assert 1 <= fv.max_clique_lb <= omega
    chi = oracles.chromatic_number(n, edges)
    assert chi <= fv.chromatic_number <= fv.max_kcore + 1


def compare_expected(fv, expected) -> None:
    for name, want in expected.items():
        got = getattr(fv, name)
        if name in INT_FEATURES:
            assert got == want, f"{name}: {got} != {want}"
        else:
            assert got == pytest.approx(want, abs=1e-9), f"{name}: {got} != {want}"


def test_ac1_feature_oracle_equivalence(named_graphs, karate):
    start = time.monotonic()
    rng = np.random.default_rng(20260816)
    checked = 0
    for p in (0.2, 0.5, 0.8):
        for _ in range(70):
            n = int(rng.integers(1, 10))
            check_against_oracles(random_graph(rng, n, p))
            checked += 1

    for name, graph in named_graphs.items():
        fv = extract_features(graph)
        compare_expected(fv, EXPECTED_FEATURES[name])
        check_against_oracles(graph)

    kfv = extract_features(karate)
    compare_expected(kfv, KARATE_EXPECTED)
    assert kfv.assortativity == pytest.approx(KARATE_ASSORTATIVITY, abs=1e-4)
    karate_edges = list(karate.edges())
    assert kfv.assortativity == pytest.approx(
        oracles.assortativity(34, karate_edges), abs=1e-9
    )
    assert kfv.avg_clustering_coeff == pytest.approx(
        oracles.avg_local_clustering(34, karate_edges), abs=1e-9
    )

    elapsed = time.monotonic() - start
    _report(
        "AC-1", checked >= 200 and elapsed < 60,
        f"{checked} random graphs + {len(named_graphs)} fixtures + karate, "
        f"{elapsed:.1f}s",
    )


def test_ac2_synthetic_separability():
    start = time.monotonic()
    params = ForestParams(trees=100, log_flags=feature_log_flags())
    results = []
    for master in (1, 2, 3, 4, 5):
        ds = corpus_dataset(master)
        assert ds.n_rows == 125 and ds.label_names == ("BA", "ER")
        cv = cross_validate(ds, params, k=5, seed=master)
        results.append((cv.accuracy, cv.confusion.off_diagonal_total))
    hits = sum(acc >= 0.99 and off <= 1 for acc, off in results)
    elapsed = time.monotonic() - start
    detail = ", ".join(f"seed {m}: {acc:.3f}/{off}" for m, (acc, off) in
                       zip((1, 2, 3, 4, 5), results))
    _report("AC-2", hits >= 4 and elapsed < 180, f"{detail}; {elapsed:.1f}s")


def test_ac3_substitute_property_suite():
    # (a) perfect resubstitution accuracy when feature vectors are unique
    names, categories, matrix = corpus_table(1)
    _, unique_idx = np.unique(matrix, axis=0, return_index=True)
    ds = corpus_dataset(1).subset(sorted(int(i) for i in unique_idx))
    forest = forest_train(ds, ForestParams(trees=100, log_flags=feature_log_flags()), 7)
    hits = sum(
        forest_predict(forest, ds.matrix[i])[0] == ds.labels[i]
        for i in range(ds.n_rows)
    )
    resub_corpus = hits / ds.n_rows

    rng = np.random.default_rng(11)
    rand_matrix = rng.normal(size=(40, 6))
    rand_labels = [("a", "b", "c")[int(v)] for v in rng.integers(0, 3, size=40)]
    rand_ds = Dataset.from_feature_table(
        [f"r{i}" for i in range(40)], rand_labels, rand_matrix
    )
    rand_forest = forest_train(rand_ds, ForestParams(trees=30), 11)
    rand_hits = sum(
        forest_predict(rand_forest, rand_ds.matrix[i])[0] == rand_ds.labels[i]
        for i in range(40)
    )
    resub_random = rand_hits / 40

    # (b) shuffled labels score at chance level for K=4 balanced classes
    accs = []
    for trial in range(10):
        trial_rng = np.random.default_rng(100 + trial)
        noise = trial_rng.normal(size=(60, 8))
        labels = [("w", "x", "y", "z")[i % 4] for i in range(60)]
        noise_ds = Dataset.from_feature_table(
            [f"n{i}" for i in range(60)], labels, noise
        )
        accs.append(cross_validate(noise_ds, ForestParams(trees=21), 5, trial).accuracy)
    chance_gap = abs(float(np.mean(accs)) - 0.25)

    # (c) per-fold standardization is fit on that fold's training rows only
    sub = corpus_dataset(1).subset(list(range(0, 125, 5)))
    flags = feature_log_flags()
    cv = cross_validate(sub, ForestParams(trees=9, log_flags=flags), 5, 3)
    full = fit_standardize(sub.matrix, flags)
    leak_free = True
    for f, got in enumerate(cv.fold_standardize):
        want = fit_standardize(sub.matrix[list(cv.plan.train_indices(f))], flags)
        leak_free &= got.means == want.means and got.stds == want.stds
        leak_free &= got.means != full.means

    ok = resub_corpus == 1.0 and resub_random == 1.0 and chance_gap <= 0.1 and leak_free
    _report(
        "AC-3", ok,
        f"resub {resub_corpus:.3f}/{resub_random:.3f}, "
        f"chance gap {chance_gap:.3f}, leakage-free {leak_free}",
    )


def blob_points(rng):
    centers = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
    truth = np.repeat(np.arange(3), 30)
    return centers[truth] + rng.normal(size=(90, 3)), truth


def test_ac4_embedding_structure_recovery():
    start = time.monotonic()
    points, truth = blob_points(np.random.default_rng(99))
    hits = 0
    scores = []
    for seed in range(5):
        emb = tsne(points, perplexity=20.0, iterations=500, seed=seed)
        clusters = kmeans(emb.points, 3, restarts=10, seed=seed).assignments
        best = max(
            float(np.mean(np.array(perm)[clusters] == truth))
            for perm in permutations(range(3))
        )
        scores.append(best)
        hits += best >= 0.95

    grad_rng = np.random.default_rng(17)
    x = grad_rng.normal(size=(10, 4))
    p = joint_affinities(_pairwise_sq_dists(x), perplexity=2.5)
    y = grad_rng.normal(size=(10, 2))
    grad = kl_gradient(p, y)
    fd = np.zeros_like(grad)
    h = 1e-5
    for i in range(10):
        for j in range(2):
            up, down = y.copy(), y.copy()
            up[i, j] += h
            down[i, j] -= h
            fd[i, j] = (kl_divergence(p, up) - kl_divergence(p, down)) / (2 * h)
    rel = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)))

    elapsed = time.monotonic() - start
    ok = hits >= 4 and rel <= 1e-4 and elapsed < 120
    _report(
        "AC-4", ok,
        f"recovery {', '.join(f'{s:.3f}' for s in scores)}; "
        f"grad rel err {rel:.2e}; {elapsed:.1f}s",
    )


SPEC = """\
[corpus]
master_seed = 3

[ba]
count = 6
nodes_min = 30
nodes_max = 60
m_min = 2
m_max = 4

[er]
count = 6
nodes_min = 30
nodes_max = 60
p_min = 0.10
p_max = 0.30
"""


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def run_all_commands(root, run: int, workers: str) -> str:
    """Run every subcommand inside a fresh directory; return all output bytes.

    Commands run on relative paths with the directory as cwd so outputs
    that echo input paths stay comparable across runs.
    """
    import os

    base = root / f"run{run}_w{workers}"
    base.mkdir()
    (base / "spec.ini").write_text(SPEC, encoding="utf-8")
    w = ["--workers", workers]
    cwd = os.getcwd()
    os.chdir(base)
    try:
        assert main(["generate", "spec.ini", "--out-dir", "graphs"] + w) == 0
        assert main(["features", "graphs/manifest.csv",
                     "--out", "features.csv"] + w) == 0
        assert main(["train", "features.csv", "--model-out", "model.json",
                     "--trees", "9"] + w) == 0
        targets = [f"graphs/ba_{i:04d}.edges" for i in range(3)]
        assert main(["predict", "model.json"] + targets
                    + ["--out", "pred.csv"] + w) == 0
        assert main(["evaluate", "features.csv", "--out-dir", "reports",
                     "--folds", "3", "--trees", "9"] + w) == 0
        assert main(["embed", "features.csv", "--out", "embed.csv",
                     "--perplexity", "2", "--iterations", "120"] + w) == 0
        assert main(["cluster", "features.csv", "--out", "clusters.csv",
                     "--k", "2", "--restarts", "5",
                     "--overlap-out", "overlap.txt"] + w) == 0
    finally:
        os.chdir(cwd)

    manifest = read(base / "graphs" / "manifest.csv")
    graph_bytes = "".join(
        read(base / "graphs" / line.split(",")[0])
        for line in manifest.splitlines()[1:]
    )
    return "\x00".join([
        manifest, graph_bytes,
        read(base / "features.csv"), read(base / "model.json"),
        read(base / "pred.csv"),
        read(base / "reports" / "confusion.csv"),
        read(base / "reports" / "confusion.txt"),
        read(base / "reports" / "misclassified.csv"),
        read(base / "embed.csv"), read(base / "clusters.csv"),
        read(base / "overlap.txt"),
    ])


def test_ac5_monotone_inertia_and_cli_determinism(tmp_path):
    rng = np.random.default_rng(23)
    blob, _ = blob_points(rng)
    datasets = [
        blob,
        rng.uniform(size=(50, 4)),
        np.tile(rng.normal(size=(5, 3)), (8, 1)),
    ]
    trace_count = 0
    for i, data in enumerate(datasets):
        for k in (2, 4):
            result = kmeans(data, k, restarts=6, seed=31 + i)
            for trace in result.restart_traces:
                assert all(
                    later <= earlier + 1e-9
                    for earlier, later in zip(trace, trace[1:])
                )
                trace_count += 1

    outputs = [run_all_commands(tmp_path, run, workers) for run, workers in
               enumerate(("1", "1", "2", "4", "8"))]
    identical = all(out == outputs[0] for out in outputs[1:])

    _report(
        "AC-5", identical,
        f"{trace_count} inertia traces monotone; "
        f"7 commands byte-identical over workers 1,1,2,4,8: {identical}",
    )


def test_ac6_generator_statistics():
    edge_counts = [erdos_renyi(100, 0.1, seed).edge_count for seed in range(100)]
    mean = float(np.mean(edge_counts))
    sigma_mean = np.sqrt(4950 * 0.1 * 0.9) / 10.0
    er_ok = abs(mean - 495.0) <= 4.0 * sigma_mean

    ba_ok = True
    for n, m in ((10, 2), (50, 3), (200, 5), (7, 6), (100, 1)):
        graph = barabasi_albert(n, m, seed=n * 100 + m)
        expected_edges = m * (m - 1) // 2 + (n - m) * m
        ba_ok &= graph.edge_count == expected_edges
        ba_ok &= min(graph.degrees()) == m

    _report(
        "AC-6", er_ok and ba_ok,
        f"ER mean edges {mean:.2f} (target 495 +/- {4 * sigma_mean:.2f}); "
        f"BA edge counts and min degrees exact: {ba_ok}",
    )
