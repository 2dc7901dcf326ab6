"""Parsing, canonicalization, and serialization of graphs."""

import numpy as np
import pytest

from netclass import (
    GraphParseError,
    from_edges,
    parse_edge_list,
    parse_matrix_market,
    write_edge_list,
)
from netclass.graph import relabel


class TestEdgeListParsing:
    def test_basic_triangle(self):
        g, m = parse_edge_list("1 2\n2 3\n3 1\n")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_first_appearance_compaction(self):
        g, m = parse_edge_list("5 9\n9 2\n")
        assert m.to_compact == {5: 0, 9: 1, 2: 2}
        assert m.original_labels() == [5, 9, 2]
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicate_and_reversed_edges_merge(self):
        g, _ = parse_edge_list("1 2\n2 1\n1 2\n2 3\n")
        assert g.edge_count == 2

    def test_self_loops_dropped_and_do_not_create_nodes(self):
        g, m = parse_edge_list("1 1\n2 3\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert 1 not in m.to_compact

    def test_weights_discarded(self):
        g, _ = parse_edge_list("1 2 3.5\n2 3 0.1\n")
        assert g.edge_count == 2

    def test_comments_and_blank_lines(self):
        text = "% a comment\n\n# another\n1 2\n\n"
        g, _ = parse_edge_list(text)
        assert g.edge_count == 1

    def test_string_labels(self):
        g, m = parse_edge_list("alice bob\nbob carol\n")
        assert g.node_count == 3
        assert m.to_compact["alice"] == 0

    def test_bad_token_count_reports_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_edge_list("1 2\n3 4 5 6\n")

    def test_single_token_rejected(self):
        with pytest.raises(GraphParseError, match="expected 2 or 3"):
            parse_edge_list("7\n")

    def test_empty_text_gives_empty_graph(self):
        g, m = parse_edge_list("")
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n")
        with open(path) as handle:
            g, _ = parse_edge_list(handle)
        assert g.edge_count == 1


class TestGraphInvariants:
    def test_adjacency_sorted_and_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(0, 25))
            pairs = [
                (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(k)
            ]
            g, _ = from_edges(pairs)
            for u, nbrs in enumerate(g.adjacency):
                assert list(nbrs) == sorted(set(nbrs))
                assert u not in nbrs
                for v in nbrs:
                    assert u in g.adjacency[v]
            assert g.edge_count == sum(len(a) for a in g.adjacency) // 2

    def test_edges_sorted_with_u_less_than_v(self):
        g, _ = from_edges([(3, 1), (2, 0), (1, 0)])
        edges = list(g.edges())
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)

    def test_relabel_roundtrip(self):
        g, _ = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        mapping = [2, 0, 3, 1]
        inverse = [mapping.index(i) for i in range(4)]
        assert relabel(relabel(g, mapping), inverse).adjacency == g.adjacency

    def test_relabel_rejects_non_permutation(self):
        g, _ = from_edges([(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            relabel(g, [0, 0])


class TestEdgeListRoundTrip:
    def test_writer_format(self):
        # labels 1, 0, 2 compact (by first appearance) to ids 0, 1, 2
        g, _ = from_edges([(1, 0), (2, 1)])
        assert write_edge_list(g) == "0 1\n0 2\n"

    def test_roundtrip_preserves_structure(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            pairs = [
                (int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(int(rng.integers(1, 20)))
            ]
            g, _ = from_edges(pairs)
            if g.edge_count == 0:
                continue
            g2, m2 = parse_edge_list(write_edge_list(g))
            # Re-parsing may renumber nodes; compare through the label map.
            relocated = {
                tuple(sorted((m2.to_compact[u], m2.to_compact[v])))
                for u, v in g.edges()
            }
            assert g2.node_count == g.node_count - g.degrees().count(0)
            assert relocated == set(g2.edges())


class TestMatrixMarket:
    HEADER = "%%MatrixMarket matrix coordinate pattern symmetric\n"

    def test_pattern_symmetric_keeps_isolated_nodes(self):
        text = self.HEADER + "5 5 3\n1 2\n2 3\n1 3\n"
        g, m = parse_matrix_market(text)
        assert g.node_count == 5
        assert g.edge_count == 3
        assert g.degrees() == [2, 2, 2, 0, 0]
        assert m.to_compact == {i: i - 1 for i in range(1, 6)}

    def test_general_real_symmetrizes(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 4\n1 2 0.5\n2 1 0.5\n2 3 1.0\n1 1 9.0\n"
        )
        g, _ = parse_matrix_market(text)
        assert g.edge_count == 2

    def test_diagonal_dropped(self):
        text = self.HEADER + "3 3 2\n1 1\n1 2\n"
        g, _ = parse_matrix_market(text)
        assert g.edge_count == 1

    def test_comment_lines_in_body(self):
        text = self.HEADER + "% note\n3 3 1\n% another\n1 2\n"
        g, _ = parse_matrix_market(text)
        assert g.edge_count == 1

    def test_integer_field_accepted(self):
        text = "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n1 2 7\n"
        g, _ = parse_matrix_market(text)
        assert g.edge_count == 1

    def test_missing_banner(self):
        with pytest.raises(GraphParseError, match="MatrixMarket"):
            parse_matrix_market("3 3 1\n1 2\n")

    def test_array_format_rejected(self):
        with pytest.raises(GraphParseError, match="coordinate"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n")

    def test_complex_field_rejected(self):
        with pytest.raises(GraphParseError, match="field"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate complex symmetric\n2 2 0\n"
            )

    def test_skew_symmetric_rejected(self):
        with pytest.raises(GraphParseError, match="symmetry"):
            parse_matrix_market(
                "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 0\n"
            )

    def test_non_square_rejected(self):
        with pytest.raises(GraphParseError, match="non-square"):
            parse_matrix_market(self.HEADER + "3 4 0\n")

    @pytest.mark.parametrize("dims", ["-2 -2 0", "2 2 -1"])
    def test_negative_dimensions_rejected(self, dims):
        with pytest.raises(GraphParseError, match="line 2: negative dimensions"):
            parse_matrix_market(self.HEADER + dims + "\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declared 3"):
            parse_matrix_market(self.HEADER + "3 3 3\n1 2\n")

    def test_out_of_range_index_reports_line(self):
        with pytest.raises(GraphParseError, match="line 3.*outside"):
            parse_matrix_market(self.HEADER + "3 3 1\n1 4\n")

    def test_wrong_token_count_for_field(self):
        with pytest.raises(GraphParseError, match="expected 2 tokens"):
            parse_matrix_market(self.HEADER + "3 3 1\n1 2 0.5\n")
