"""Hypothesis properties of the graph core, the feature kernels, the trees,
the cross-validation folds and t-SNE.

Graphs are drawn small and tie-heavy (circulants, where every node has the
same degree, plus a few random edges), so the (degree, id) tie-breaking of
the peel order is exercised on almost every example; the peel orientation
that the triangle, clique and colouring kernels read is checked row by row.
They are built through Matrix Market text, which keeps isolated nodes.
Tree tables are drawn from a few values per column, so equal values, equal
gains and cuts that do not exist are common; trees grown together, in
chunks of a few rows, are compared with the reference one tree at a time; a
forest's thresholds on a linear column scale with it by powers of two.  Matrix Market
texts use every line end that str.splitlines knows and are compared with a
copy of the earlier reader that reads only ASCII digits as integers.
Fold arrays are compared with the earlier list-of-folds deal.
Barabási–Albert graphs are compared with a loop that picks one target at a
time from a list of every edge end so far.  t-SNE runs, in
blocks of 1, 7 or the module's own count of rows, are compared byte for
byte with a loop that computes the KL and gradient in full N x N arrays on
every step.  The t-SNE affinities, calibrated for all rows in lockstep, are
compared byte for byte with rows bisected one at a time, on tables that
sometimes hold a row far from the others, whose affinities only the shift by
its nearest distance keeps from underflowing.
k-means runs on tables whose rows are copies of a few points, with up to
one cluster per row, so reseating an emptied cluster is common.
"""

import importlib
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from netclass import (  # noqa: E402
    Dataset,
    ForestParams,
    extract_features,
    forest_train,
    kmeans,
    parse_edge_list,
)
from netclass.evaluate import stratified_kfold  # noqa: E402
from netclass.features import (  # noqa: E402
    FEATURE_NAMES,
    _INT_FEATURES,
    clique_lower_bound,
    core_decomposition,
    greedy_chromatic,
    triangle_counts,
)
from netclass import forest  # noqa: E402
from netclass.forest import TREE_ARRAYS, _grow_trees  # noqa: E402
from netclass.graph import (  # noqa: E402
    parse_matrix_market,
    write_edge_list,
)
from netclass.synth import barabasi_albert  # noqa: E402
from netclass.tsne import (  # noqa: E402
    _pairwise_sq_dists,
    conditional_affinities,
    joint_affinities,
    tsne,
)

# The module, which the package's tsne function shadows as an attribute.
tsne_module = importlib.import_module("netclass.tsne")

# Deterministic example generation and no example database on disk, so a
# run leaves no files and every run checks the same examples.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# The heuristics break ties by node id, so they may change under relabelling.
ORDER_DEPENDENT = {"max_clique_lb", "chromatic_number"}


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 20))
    offsets = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n))
    rows = n + draw(st.integers(0, 3))  # trailing isolated nodes
    entries = [(i + 1, (i + s) % n + 1) for i in range(n) for s in sorted(offsets)] + extra
    text = (f"%%MatrixMarket matrix coordinate pattern general\n"
            f"{rows} {rows} {len(entries)}\n"
            + "".join(f"{a} {b}\n" for a, b in entries))
    return parse_matrix_market(text)[0]


@PROPERTY
@given(graphs())
def test_peel_order_and_cores_match_heap_reference(g):
    core, order = oracles.peel(g.node_count, list(g.edges()))
    decomp = core_decomposition(g)
    assert decomp.core_numbers.tolist() == core
    assert decomp.peel_order.tolist() == order


@PROPERTY
@given(graphs())
def test_heuristics_match_reference_walk_of_the_peel_order(g):
    n, edges = g.node_count, list(g.edges())
    _, order = oracles.peel(n, edges)
    decomp = core_decomposition(g)
    assert clique_lower_bound(g, decomp) == oracles.greedy_clique(n, edges, order)
    assert greedy_chromatic(g, decomp) == oracles.greedy_coloring(n, edges, order)


@PROPERTY
@given(graphs())
def test_peel_orientation_rows_are_the_later_neighbors(g):
    n = g.node_count
    decomp = core_decomposition(g)
    pos = np.empty(n, dtype=np.int64)
    pos[decomp.peel_order] = np.arange(n)
    ptr, later = decomp.later_ptr, decomp.later
    assert len(ptr) == n + 1
    for i, v in enumerate(decomp.peel_order):
        row = later[ptr[i]:ptr[i + 1]]
        assert row.tolist() == sorted(int(j) for j in pos[g.neighbors(v)] if j > i)
        assert len(row) <= decomp.core_numbers[v]
        assert decomp.later_keys[ptr[i]:ptr[i + 1]].tolist() == (i * n + row).tolist()
    assert len(decomp.later_keys) == len(later) == g.edge_count
    counts, total = triangle_counts(g, decomp)
    default_counts, default_total = triangle_counts(g)
    assert counts.tolist() == default_counts.tolist() and total == default_total


@PROPERTY
@given(graphs())
def test_triangle_counts_match_brute_force(g):
    counts, total = triangle_counts(g)
    per_node = oracles.triangle_count_per_node(g.node_count, list(g.edges()))
    assert counts.tolist() == per_node
    assert total == sum(per_node) // 3


@PROPERTY
@given(graphs(), st.data())
def test_order_free_features_survive_relabel(g, data):
    perm = data.draw(st.permutations(range(g.node_count)))
    before = extract_features(g)
    after = extract_features(oracles.relabel(g, perm))
    for name in FEATURE_NAMES:
        if name in ORDER_DEPENDENT:
            continue
        if name in _INT_FEATURES:
            assert getattr(after, name) == getattr(before, name), name
        else:  # sums may run in another order
            assert getattr(after, name) == pytest.approx(
                getattr(before, name), rel=1e-12, abs=1e-15), name


@PROPERTY
@given(graphs())
def test_parse_of_written_edge_list_gives_the_graph_back(g):
    g2, labels = parse_edge_list(write_edge_list(g))
    assert g2.node_count == int((g.degrees() > 0).sum())
    assert sorted(tuple(sorted((labels[u], labels[v]))) for u, v in g2.edges()) \
        == list(g.edges())


@PROPERTY
@given(graphs())
def test_every_feature_is_finite(g):
    fv = extract_features(g)
    assert all(math.isfinite(v) for v in fv.as_array())


@st.composite
def tree_tables(draw):
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 5))
    values = st.sampled_from((-1.5, 0.0, 0.25, 3.0))
    x = np.array(draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)))
    # Past 8 classes numpy's pairwise sum unrolls, so the class sums must
    # still add in the reference's order there.
    n_classes = draw(st.integers(1, 13))
    # Leave one class out of the labels when there is more than one.
    absent = draw(st.integers(0, n_classes - 1)) if n_classes > 1 else None
    present = [c for c in range(n_classes) if c != absent]
    y = np.array(draw(st.lists(st.sampled_from(present), min_size=rows, max_size=rows)))
    features_per_split = draw(st.integers(1, cols))
    min_split = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32))
    return x, y, features_per_split, min_split, seed, n_classes


# Column 1 holds adjacent floats whose midpoint rounds up to the larger one,
# so its cut takes the lower value as its threshold.
EPS = np.finfo(np.float64).eps
ADJACENT = [1.0 + EPS, 1.0 + 2 * EPS, 1.0 + EPS, 1.0 + 2 * EPS, 3.0]


@PROPERTY
@given(tree_tables())
@example((np.column_stack([[0.0, 1.0, 0.0, 1.0, 1.0], ADJACENT]),
          np.array([0, 1, 0, 1, 1]), 1, 2, 4, 2))
def test_train_tree_matches_reference_split_search(table):
    x, y, features_per_split, min_split, seed, n_classes = table
    tree, = _grow_trees(x, y, [np.arange(len(x))], features_per_split, min_split, [seed],
                        n_classes)
    expected = oracles.cart_tree(x, y, features_per_split, min_split, seed, n_classes)
    for name, want in zip(TREE_ARRAYS, expected):
        got = getattr(tree, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@st.composite
def forest_tables(draw):
    """A tree table, 1-5 bootstrap samples with a seed each, and a chunk cap
    of 1 or 7 rows (a round in several passes) or the module's own."""
    x, y, features_per_split, min_split, _, n_classes = draw(tree_tables())
    n_trees = draw(st.integers(1, 5))
    rows = st.lists(st.integers(0, len(x) - 1), min_size=len(x), max_size=len(x))
    samples = [np.array(draw(rows), dtype=np.int64) for _ in range(n_trees)]
    seeds = draw(st.lists(st.integers(0, 2**32), min_size=n_trees, max_size=n_trees))
    cap = draw(st.sampled_from([1, 7, forest.CHUNK_ROWS]))
    return x, y, samples, features_per_split, min_split, seeds, n_classes, cap


# 11 classes, where a class sum that adds in another order than the
# reference's pairwise sum breaks a tie between two cuts the other way.
ELEVEN_CLASS_X = np.array([
    [-1.5, 3.0], [3.0, 3.0], [0.25, 0.0], [3.0, -1.5], [3.0, 0.25], [0.25, 0.25],
    [0.25, -1.5], [0.25, 3.0], [-1.5, -1.5], [0.0, 3.0], [0.25, 3.0], [0.0, -1.5],
    [3.0, -1.5], [0.0, 3.0], [-1.5, 3.0], [-1.5, 0.25], [0.25, 3.0],
])
ELEVEN_CLASS_Y = np.array([8, 8, 9, 10, 4, 7, 7, 10, 1, 2, 4, 8, 3, 6, 10, 2, 1])


@PROPERTY
@given(forest_tables())
@example((ELEVEN_CLASS_X, ELEVEN_CLASS_Y, [np.arange(17), np.arange(17)[::-1]], 2, 2,
          [2671547580, 5], 11, 7))
def test_trees_grown_together_match_reference_one_by_one(table):
    x, y, samples, features_per_split, min_split, seeds, n_classes, cap = table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "CHUNK_ROWS", cap)
        trees = _grow_trees(x, y, samples, features_per_split, min_split, seeds, n_classes)
    assert len(trees) == len(samples)
    for tree, rows, seed in zip(trees, samples, seeds):
        expected = oracles.cart_tree(x[rows], y[rows], features_per_split, min_split, seed,
                                     n_classes)
        for name, want in zip(TREE_ARRAYS, expected):
            got = getattr(tree, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


@st.composite
def scaled_columns(draw):
    """A tree table as a dataset whose other columns may be log columns (their
    values made non-negative), forest params, and a linear column j to scale
    by 2**k."""
    x, y, features_per_split, min_split, seed, _ = draw(tree_tables())
    j = draw(st.integers(0, x.shape[1] - 1))
    flags = tuple(draw(st.booleans()) and c != j for c in range(x.shape[1]))
    x[:, list(flags)] = np.abs(x[:, list(flags)])
    ds = Dataset.from_feature_table([f"r{i}" for i in range(len(x))],
                                    [f"c{c}" for c in y], x)
    params = ForestParams(trees=draw(st.integers(1, 3)), features_per_split=features_per_split,
                          min_split=min_split, log_flags=flags)
    return ds, params, seed, j, draw(st.integers(-20, 20))


@PROPERTY
@given(scaled_columns())
def test_thresholds_on_a_linear_column_scale_with_it(case):
    """The forest fits no statistics, so it sees the column in raw units: the
    same splits, with that column's thresholds times 2**k exactly."""
    ds, params, seed, j, k = case
    scaled = ds.matrix.copy()
    scaled[:, j] *= 2.0**k
    plain = forest_train(ds, params, seed)
    other = forest_train(Dataset(ds.names, ds.labels, ds.label_names, scaled), params, seed)
    for a, b in zip(plain.trees, other.trees):
        for name in ("feature", "left", "right", "counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        on_j = a.feature == j
        assert np.array_equal(b.threshold[on_j], a.threshold[on_j] * 2.0**k)
        assert np.array_equal(b.threshold[~on_j], a.threshold[~on_j])


@st.composite
def fold_cases(draw):
    n = draw(st.integers(2, 200))
    n_classes = draw(st.integers(1, 6))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return labels, draw(st.integers(2, n)), draw(st.integers())


@PROPERTY
@given(fold_cases())
def test_fold_array_matches_reference_folds(case):
    labels, k, seed = case
    folds = stratified_kfold(labels, k, seed)
    expected = oracles.stratified_kfold(labels, k, seed)
    for f, want in enumerate(expected):
        held = set(want)
        assert np.nonzero(folds == f)[0].tolist() == list(want)
        assert np.nonzero(folds != f)[0].tolist() == [
            i for i in range(len(labels)) if i not in held
        ]


@st.composite
def ba_cases(draw):
    n = draw(st.integers(2, 300))
    return n, draw(st.integers(1, n - 1)), draw(st.integers(0, 2**64 - 1))


@PROPERTY
@given(ba_cases())
@example((2, 1, 0))  # no draw: node 1 attaches to node 0
@example((40, 1, 3))
@example((40, 39, 5))  # one new node takes every node: heavy rejection
@example((300, 299, 11))
def test_barabasi_albert_matches_reference_loop(case):
    assert barabasi_albert(*case) == oracles.barabasi_albert_reference(*case)


# Every line end str.splitlines knows; "\r\n" counts as one.
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def matrix_market_texts(draw):
    """Matrix Market texts with one kind of line end throughout.  About half
    are well formed; the rest break one thing: the banner, the dimensions, an
    entry, or a line, with a stray line end of another kind."""
    fault = draw(st.sampled_from([None, None, None, "banner", "dims", "entry", "stray"]))

    def pick(fine, broken, broken_in):
        return draw(st.sampled_from(broken if fault == broken_in else fine))

    fld = draw(st.sampled_from(["pattern", "integer", "real"]))
    banner = pick(
        ["%%MatrixMarket matrix coordinate {} general",
         "%%MatrixMarket matrix coordinate {} symmetric",
         "%%MatrixMarket Matrix Coordinate {} General  "],
        [" %%MatrixMarket matrix coordinate {} general",
         "%%MatrixMarket matrix array {} general",
         "%%MatrixMarket matrix coordinate complex general",
         "%%MatrixMarket vector coordinate {} general", ""],
        "banner").format(fld)
    filler = st.lists(st.sampled_from(["% note", "", "  ", " % indented", "%"]), max_size=2)
    n = draw(st.integers(1, 5))
    width = 2 if fld == "pattern" else 3
    values = ["3", "0.5", "-2e3"] if fld == "real" else ["3", "0", "12"]
    loose = draw(st.booleans())  # a leading space or a comment among the entries
    entries = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = [str(draw(st.integers(1, n))) for _ in range(2)]
        tokens += [draw(st.sampled_from(values)) for _ in range(width - 2)]
        entries.append(draw(st.sampled_from(["", " "] if loose else [""])) + " ".join(tokens))
    if fault == "entry":
        bad = draw(st.sampled_from(["0 1", f"{n + 1} 1", "x 1", "+1 1", "1", "1 2 3 4",
                                    "-1 1", "1\t1", "007 1 1", "1_0 1",
                                    "\u0661 1"]))
        entries.insert(draw(st.integers(0, len(entries))), bad)
    if loose:
        entries.insert(draw(st.integers(0, len(entries))), "".join(draw(filler)))
    nnz = sum(1 for e in entries if e.strip() and not e.lstrip().startswith("%"))
    dims = pick(["{0} {0} {1}", "{0}  {0} {1}", " {0} {0} {1}", "{0}\t{0}\t{1} "],
                ["{0} {0}", "{0} {0} {1} 1", "{0} {0}x {1}", "{0} 9 {1}",
                 "-{0} -{0} {1}", "{0} {0} {2}", "{0}_0 {0}_0 {1}"],
                "dims").format(n, nnz, nnz + 1)
    end = draw(st.sampled_from(LINE_ENDS))
    text = end.join([banner, *draw(filler), dims, *entries])
    text += draw(st.sampled_from([end, end, ""]))
    if fault == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(LINE_ENDS)) + text[at:]
    return text


@settings(PROPERTY, max_examples=1000)
@given(matrix_market_texts())
def test_matrix_market_matches_reference_reader(text):
    assert oracles.matrix_market_outcome(parse_matrix_market, text) \
        == oracles.matrix_market_outcome(oracles.parse_matrix_market, text)


def _exact(run):
    """run()'s (points, kl, kl_trace) with every float as its exact bytes, or
    the message of the ValueError it raises."""
    try:
        points, kl, trace = run()
    except ValueError as exc:
        return str(exc)
    return points.tobytes(), kl.hex(), [(it, value.hex()) for it, value in trace]


@st.composite
def tsne_runs(draw):
    n = draw(st.integers(5, 40))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).normal(
        size=(n, draw(st.integers(1, 4))))
    x[: draw(st.integers(0, 2))] = x[-1]  # repeated rows
    perplexity = draw(st.floats(1.0, (n - 1) / 3.0, exclude_max=True))
    iterations = draw(st.integers(1, 330))
    learning_rate = draw(st.floats(10.0, 1000.0))
    rows = draw(st.sampled_from([1, 7, tsne_module.ROWS]))
    return x, perplexity, iterations, learning_rate, draw(st.integers(0, 2**32)), rows


# Iteration counts below, at and above the end of early exaggeration (250),
# off the 50-step trace grid, learning rates that overflow float64, and 150
# rows, which the module's own block count splits unevenly.
@PROPERTY
@given(tsne_runs())
@example((np.arange(24.0).reshape(8, 3), 2.0, 137, 200.0, 1, 7))
@example((np.arange(24.0).reshape(8, 3), 2.0, 250, 200.0, 2, 1))
@example((np.arange(30.0).reshape(10, 3) ** 0.5, 2.5, 263, 800.0, 3, 7))
@example((np.arange(24.0).reshape(8, 3), 2.0, 60, 1e300, 4, 7))
@example((np.arange(24.0).reshape(8, 3), 2.0, 60, float("inf"), 5, 7))
@example((np.random.default_rng(6).normal(size=(150, 3)), 20.0, 300, 200.0, 6,
          tsne_module.ROWS))
def test_tsne_matches_reference_loop_byte_for_byte(run):
    x, perplexity, iterations, learning_rate, seed, rows = run
    p = joint_affinities(_pairwise_sq_dists(x), perplexity)

    def package():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tsne_module, "ROWS", rows)
            emb = tsne(x, perplexity, iterations, learning_rate, seed)
        return emb.points, emb.kl, emb.kl_trace

    got = _exact(package)
    assert got == _exact(lambda: oracles.tsne_reference(p, iterations, learning_rate, seed))
    if learning_rate > 1e299:
        assert got == "optimization diverged; lower the learning rate"


@st.composite
def affinity_tables(draw):
    n = draw(st.integers(5, 60))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).normal(
        size=(n, draw(st.integers(1, 4)))) * draw(st.sampled_from([0.1, 1.0, 5.0]))
    x[: draw(st.integers(0, 2))] = x[-1]  # repeated rows
    # Far rows: without the shift by the nearest distance, every affinity of
    # such a row would underflow at beta 1.
    for row in range(draw(st.integers(0, 2))):
        x[row] += draw(st.floats(28.0, 1000.0)) * (1 + row)
    return x, draw(st.floats(1.0, (n - 1) / 3.0, exclude_max=True))


@PROPERTY
@given(affinity_tables())
@example((np.vstack([np.random.default_rng(2).normal(size=(60, 3)), [[40.0] * 3]]), 10.0))
# Row 0's two nearest points are nearly tied and 3 units away: its target
# precision would underflow every unshifted affinity of the row.
@example((np.concatenate([[0.0, 3.0, -3.0000001],
                          np.random.default_rng(0).normal(20, 1, 20)])[:, None], 1.5))
def test_lockstep_affinities_match_rows_bisected_alone(case):
    x, perplexity = case
    d2 = _pairwise_sq_dists(x)
    p_cond, entropies = conditional_affinities(d2, perplexity)
    ref_p, ref_entropies = oracles.conditional_affinities_reference(d2, perplexity)
    assert p_cond.tobytes() == ref_p.tobytes()
    assert entropies.tobytes() == ref_entropies.tobytes()


@st.composite
def few_point_tables(draw):
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                           min_size=1, max_size=3))
    rows = draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=12))
    x = np.array([points[i] for i in rows], dtype=np.float64)
    return x, draw(st.integers(1, len(x))), draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(few_point_tables())
@example((np.zeros((6, 2)), 3, 1))
@example((np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]]), 4, 0))
def test_kmeans_keeps_every_cluster_on_repeated_rows(case):
    x, k, seed = case
    result = kmeans(x, k, restarts=3, seed=seed)
    assert sorted(set(result.assignments.tolist())) == list(range(k))
    for trace in result.restart_traces:
        assert np.isfinite(trace).all()
        assert all(late <= early for early, late in zip(trace, trace[1:]))
