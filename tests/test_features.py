"""Feature extraction against hand-derived values and brute-force oracles."""

import io

import numpy as np
import pytest

import oracles
from conftest import EXPECTED_FEATURES, KARATE_ASSORTATIVITY, KARATE_EXPECTED
from netclass import extract_features
from netclass.features import (
    CSV_HEADER,
    FEATURE_NAMES,
    assortativity,
    core_decomposition,
    format_value,
    read_features_csv,
    triangle_counts,
    write_features_csv,
)
from netclass.graph import from_edges

INT_FEATURES = {
    "nodes", "edges", "max_degree", "min_degree", "total_triangles",
    "max_triangles", "max_kcore", "max_clique_lb", "chromatic_number",
}


def random_graph(rng, n, p):
    """G(n, p) built directly over ids 0..n-1 so isolated nodes survive."""
    from netclass.graph import _build_graph

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return _build_graph(n, [u for u, _ in pairs], [v for _, v in pairs])


class TestNamedGraphs:
    @pytest.mark.parametrize("name", sorted(EXPECTED_FEATURES))
    def test_expected_features(self, name, named_graphs):
        fv = extract_features(named_graphs[name])
        for feature, expected in EXPECTED_FEATURES[name].items():
            got = getattr(fv, feature)
            if feature in INT_FEATURES:
                assert got == expected, f"{name}.{feature}"
            else:
                assert got == pytest.approx(expected, abs=1e-9), f"{name}.{feature}"

    def test_karate(self, karate):
        fv = extract_features(karate)
        for feature, expected in KARATE_EXPECTED.items():
            got = getattr(fv, feature)
            if feature in INT_FEATURES:
                assert got == expected, feature
            else:
                assert got == pytest.approx(expected, abs=1e-9), feature
        assert fv.assortativity == pytest.approx(KARATE_ASSORTATIVITY, abs=1e-4)


class TestAgainstOracles:
    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(404)
        for trial in range(60):
            n = int(rng.integers(1, 10))
            p = [0.2, 0.5, 0.8][trial % 3]
            g = random_graph(rng, n, p)
            edges = list(g.edges())
            fv = extract_features(g)

            assert fv.nodes == n
            assert fv.edges == len(edges)
            assert fv.density == pytest.approx(oracles.density(n, edges), abs=1e-12)
            deg = oracles.degrees(n, edges)
            assert fv.max_degree == max(deg)
            assert fv.min_degree == min(deg)
            assert fv.avg_degree == pytest.approx(sum(deg) / n, abs=1e-12)
            assert fv.assortativity == pytest.approx(
                oracles.assortativity(n, edges), abs=1e-9
            )

            per_node = oracles.triangle_count_per_node(n, edges)
            counts, total = triangle_counts(g)
            assert counts.tolist() == per_node
            assert total == oracles.total_triangles(n, edges)
            assert fv.total_triangles == total
            assert fv.max_triangles == max(per_node)
            assert fv.avg_triangles == pytest.approx(sum(per_node) / n, abs=1e-12)

            assert fv.frac_closed_triangles == pytest.approx(
                oracles.transitivity(n, edges), abs=1e-9
            )
            assert fv.avg_clustering_coeff == pytest.approx(
                oracles.avg_local_clustering(n, edges), abs=1e-9
            )

            decomp = core_decomposition(g)
            assert list(decomp.core_numbers) == oracles.kcore_numbers(n, edges)
            assert fv.max_kcore == oracles.max_kcore(n, edges)

            # Heuristic features are checked through exact bounds:
            # clique_lb is realizable, so it cannot exceed the true clique
            # number; the greedy coloring is bracketed by the true chromatic
            # number below and the degeneracy bound above.
            omega = oracles.max_clique(n, edges)
            chi = oracles.chromatic_number(n, edges)
            assert 1 <= fv.max_clique_lb <= omega
            assert chi <= fv.chromatic_number <= fv.max_kcore + 1

    def test_relabel_invariance(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, 0.5)
            perm = list(rng.permutation(n))
            fv1 = extract_features(g)
            fv2 = extract_features(oracles.relabel(g, [int(x) for x in perm]))
            for feature in FEATURE_NAMES:
                assert getattr(fv1, feature) == pytest.approx(
                    getattr(fv2, feature), abs=1e-9
                ), feature

    def test_disjoint_union_adds_triangles(self):
        g1, _ = from_edges([(0, 1), (1, 2), (2, 0)])
        shifted = [(u + 3, v + 3) for u, v in [(0, 1), (1, 2), (2, 0), (0, 3)]]
        g2, _ = from_edges(shifted)
        union, _ = from_edges([(0, 1), (1, 2), (2, 0)] + shifted)
        assert (
            extract_features(union).total_triangles
            == extract_features(g1).total_triangles
            + extract_features(g2).total_triangles
        )


class TestDegenerateGraphs:
    def test_empty_graph_rejected(self):
        g, _ = from_edges([])
        with pytest.raises(ValueError):
            extract_features(g)

    def test_single_isolated_node(self):
        from netclass.graph import _build_graph

        fv = extract_features(_build_graph(1, [], []))
        assert fv.nodes == 1
        assert fv.edges == 0
        assert fv.density == 0.0
        assert fv.assortativity == 0.0
        assert fv.max_kcore == 0
        assert fv.max_clique_lb == 1
        assert fv.chromatic_number == 1

    def test_single_edge(self):
        g, _ = from_edges([(0, 1)])
        fv = extract_features(g)
        assert fv.assortativity == 0.0  # both endpoints have equal degree
        assert fv.max_clique_lb == 2
        assert fv.chromatic_number == 2

    def test_regular_graph_assortativity_zero(self, named_graphs):
        # zero degree variance must yield 0, not NaN
        assert assortativity(named_graphs["c5"]) == 0.0
        assert assortativity(named_graphs["k4"]) == 0.0


class TestCsvRoundTrip:
    def test_header_layout(self):
        assert CSV_HEADER.split(",")[:2] == ["name", "category"]
        assert tuple(CSV_HEADER.split(",")[2:]) == FEATURE_NAMES

    def test_write_then_read(self, named_graphs):
        rows = [
            (name, "test", extract_features(g))
            for name, g in sorted(named_graphs.items())
        ]
        buf = io.StringIO()
        write_features_csv(buf, rows)
        names, cats, matrix = read_features_csv(io.StringIO(buf.getvalue()))
        assert names == [r[0] for r in rows]
        assert cats == ["test"] * len(rows)
        for i, (_, _, fv) in enumerate(rows):
            assert np.allclose(matrix[i], fv.as_array(), atol=0, rtol=0)

    def test_reals_round_trip_exactly(self):
        value = 0.1 + 0.2  # not representable in short decimal
        rendered = format_value("density", value)
        assert float(rendered) == value

    def test_ints_render_without_decimal_point(self):
        assert format_value("nodes", 34) == "34"
        assert "." not in format_value("total_triangles", 45)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            read_features_csv(io.StringIO("name,category,bogus\n"))

    def test_bad_arity_rejected(self):
        text = CSV_HEADER + "\nrow1,cat,1,2\n"
        with pytest.raises(ValueError, match="arity"):
            read_features_csv(io.StringIO(text))

    def test_as_array_order_matches_names(self, named_graphs):
        fv = extract_features(named_graphs["bowtie"])
        arr = fv.as_array()
        for i, name in enumerate(FEATURE_NAMES):
            assert arr[i] == float(getattr(fv, name))
