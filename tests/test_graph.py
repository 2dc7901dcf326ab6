"""Parsing, canonicalization, and serialization of graphs."""

import tracemalloc

import numpy as np
import pytest

import netclass.graph
import oracles
from netclass import extract_features, parse_edge_list
from netclass.graph import (
    MAX_NODES,
    GraphParseError,
    _int_tokens,
    from_edges,
    parse_matrix_market,
    write_edge_list,
)


class TestEdgeListParsing:
    def test_basic_triangle(self):
        g, m = parse_edge_list("1 2\n2 3\n3 1\n")
        assert g.node_count == 3
        assert g.edge_count == 3
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_first_appearance_compaction(self):
        g, m = parse_edge_list("5 9\n9 2\n")
        assert m == [5, 9, 2]
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicate_and_reversed_edges_merge(self):
        g, _ = parse_edge_list("1 2\n2 1\n1 2\n2 3\n")
        assert g.edge_count == 2

    def test_self_loops_dropped_and_do_not_create_nodes(self):
        g, m = parse_edge_list("1 1\n2 3\n")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert 1 not in m

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
        assert m[0] == "alice"

    @pytest.mark.parametrize("text,labels", [
        ("1_000 5\n1000 6\n", ["1_000", 5, 1000, 6]),
        ("\u0661 2\n1 3\n", ["\u0661", 2, 1, 3]),  # ARABIC-INDIC DIGIT ONE
        ("+5 2\n5 3\n-1 2\n", [5, 2, 3, -1]),
    ])
    def test_only_ascii_digits_make_integer_labels(self, text, labels):
        g, m = parse_edge_list(text)
        assert m == labels
        assert g.node_count == len(labels)

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
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert len(g.indptr) == g.node_count + 1 and g.indptr[0] == 0
            for u in range(g.node_count):
                nbrs = g.neighbors(u).tolist()
                assert nbrs == sorted(set(nbrs))
                assert u not in nbrs
                for v in nbrs:
                    assert u in g.neighbors(v)
            assert g.edge_count == len(g.indices) // 2

    def test_arrays_read_only(self):
        g, _ = from_edges([(0, 1), (1, 2)])
        for array in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_edges_sorted_with_u_less_than_v(self):
        g, _ = from_edges([(3, 1), (2, 0), (1, 0)])
        edges = list(g.edges())
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)

    def test_relabel_roundtrip(self):
        g, _ = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        mapping = [2, 0, 3, 1]
        inverse = [mapping.index(i) for i in range(4)]
        assert oracles.relabel(oracles.relabel(g, mapping), inverse) == g
        assert oracles.relabel(g, mapping) != g

    def test_relabel_rejects_non_permutation(self):
        g, _ = from_edges([(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            oracles.relabel(g, [0, 0])


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
            # Re-parsing may renumber nodes; compare through the label list.
            compact = {label: v for v, label in enumerate(m2)}
            relocated = {
                tuple(sorted((compact[u], compact[v])))
                for u, v in g.edges()
            }
            assert g2.node_count == g.node_count - int((g.degrees() == 0).sum())
            assert relocated == set(g2.edges())


class TestMatrixMarket:
    HEADER = "%%MatrixMarket matrix coordinate pattern symmetric\n"

    def test_pattern_symmetric_keeps_isolated_nodes(self):
        text = self.HEADER + "5 5 3\n1 2\n2 3\n1 3\n"
        g, m = parse_matrix_market(text)
        assert g.node_count == 5
        assert g.edge_count == 3
        assert g.degrees().tolist() == [2, 2, 2, 0, 0]
        assert m == [1, 2, 3, 4, 5]

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

    @pytest.mark.parametrize("rows", [MAX_NODES + 1, 10**18])
    def test_oversized_dimension_rejected_before_allocating(self, rows):
        with pytest.raises(GraphParseError, match=f"line 2: {rows} rows exceed the limit"):
            parse_matrix_market(self.HEADER + f"{rows} {rows} 0\n")

    def test_entry_count_mismatch(self):
        with pytest.raises(GraphParseError, match="declared 3"):
            parse_matrix_market(self.HEADER + "3 3 3\n1 2\n")

    def test_out_of_range_index_reports_line(self):
        with pytest.raises(GraphParseError, match="line 3.*outside"):
            parse_matrix_market(self.HEADER + "3 3 1\n1 4\n")

    @pytest.mark.parametrize("entry", ["1_0 2", "\u0661 2", "1 \uff12"])
    def test_non_ascii_integer_index_rejected(self, entry):
        with pytest.raises(GraphParseError, match="line 3: non-integer index"):
            parse_matrix_market(self.HEADER + f"12 12 1\n{entry}\n")

    def test_non_ascii_integer_dimension_rejected(self):
        with pytest.raises(GraphParseError, match="line 2: non-integer dimensions"):
            parse_matrix_market(self.HEADER + "1_0 10 0\n")

    def test_wrong_token_count_for_field(self):
        with pytest.raises(GraphParseError, match="expected 2 tokens"):
            parse_matrix_market(self.HEADER + "3 3 1\n1 2 0.5\n")


def assert_same_parse(a, b):
    (ga, ma), (gb, mb) = a, b
    assert ga.node_count == gb.node_count and ga.edge_count == gb.edge_count
    np.testing.assert_array_equal(ga.indptr, gb.indptr)
    np.testing.assert_array_equal(ga.indices, gb.indices)
    assert ma == mb


def spy_on_entries(monkeypatch):
    """The type of the row indices each _mm_graph call gets: an ndarray from
    the numpy path, a list from the line loop."""
    seen = []
    build = netclass.graph._mm_graph

    def spy(rows, i, j):
        seen.append(type(i))
        return build(rows, i, j)

    monkeypatch.setattr(netclass.graph, "_mm_graph", spy)
    return seen


class TestParsePaths:
    """The numpy path and the line-by-line path give the same graph and
    label list; a leading comment line sends any text down the second."""

    FORCE = "# comment: not a digit-only line\n"
    FAST = [
        "1 2\n2 3\n3 1\n",
        "007 8\n8 7\n7 0009\n",  # leading zeros: 007 and 7 are one label
        "4 4\n1 2\n2 4\n",  # 4 is numbered where it first appears off a loop
        "5 5\n1 2\n",  # 5 appears only in a self-loop: not a node
        "7 7\n",  # only self-loops: the empty graph
        "3 1\n1 3\n3 1\n2 2",  # duplicates, and no final newline
        "9223372036854775806 0\n",
    ]
    GENERAL = [
        "1\t2\n2\t3\n",
        "1 2 5\n2 3 7\n",
        "-1 2\n2 -3\n",
        " 1 2\n", "1  2\n", "1 2 \n", "1 2\r\n2 3\r\n", "\n1 2\n",
        "99999999999999999999 1\n",  # beyond int64
        "9223372036854775807 1\n",  # int64 max, where np.fromstring saturates
        "alice 2\n2 3\n",
    ]

    @pytest.mark.parametrize("text", FAST)
    def test_fast_inputs_take_the_numpy_path(self, text):
        assert _int_tokens(text, 2) is not None
        assert _int_tokens(self.FORCE + text, 2) is None

    @pytest.mark.parametrize("text", GENERAL)
    def test_other_inputs_take_the_line_path(self, text):
        assert _int_tokens(text, 2) is None

    @pytest.mark.parametrize("text", FAST + GENERAL)
    def test_paths_agree(self, text):
        assert_same_parse(parse_edge_list(text), parse_edge_list(self.FORCE + text))

    def test_paths_agree_on_random_lists(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lines = [
                "0" * int(rng.integers(0, 2)) + str(int(a)) + " " + str(int(b))
                for a, b in rng.integers(0, 30, size=(int(rng.integers(1, 40)), 2))
            ]
            text = "\n".join(lines) + "\n" * int(rng.integers(0, 2))
            assert _int_tokens(text, 2) is not None
            assert_same_parse(parse_edge_list(text), parse_edge_list(self.FORCE + text))

    HEAD = "%%MatrixMarket matrix coordinate {} {}\n"
    MM_FAST = [  # (banner, comments and dimensions; entries)
        (HEAD.format("pattern", "symmetric") + "5 5 3\n", "1 2\n2 3\n3 1\n"),
        (HEAD.format("pattern", "general") + "% note\n4 4 4\n", "1 2\n2 1\n3 3\n4 2"),
        (HEAD.format("integer", "general") + "3 3 2\n", "1 2 7\n3 2 0\n"),
        (HEAD.format("pattern", "symmetric") + "4 4 0\n", ""),
    ]

    @pytest.mark.parametrize("head,entries", MM_FAST)
    def test_matrix_market_paths_agree(self, head, entries, monkeypatch):
        general = head + "% comment among the entries\n" + entries
        seen = spy_on_entries(monkeypatch)
        fast, slow = parse_matrix_market(head + entries), parse_matrix_market(general)
        # With no entries there is nothing for numpy to read.
        assert seen == [np.ndarray if entries else list, list]
        assert_same_parse(fast, slow)

    @pytest.mark.parametrize("text", [
        HEAD.format("real", "general") + "3 3 1\n1 2 0.5\n",
        HEAD.format("pattern", "general") + "3 3 1\n 1 2\n",
        HEAD.format("pattern", "general") + "3 3 2\n1 2\n",  # count mismatch
        HEAD.format("pattern", "general") + "3 3 1\n1 4\n",  # out of range
        HEAD.format("pattern", "general") + "% a\x0bb\n3 3 1\n1 2\n",
    ])
    def test_matrix_market_line_path_inputs(self, text, monkeypatch):
        seen = spy_on_entries(monkeypatch)
        outcome = oracles.matrix_market_outcome(parse_matrix_market, text)
        assert np.ndarray not in seen
        assert outcome == oracles.matrix_market_outcome(oracles.parse_matrix_market, text)

    def test_memory_bounded(self):
        # An integer edge list with 2e5 edges is about 2 MiB of text; parsing
        # it and extracting all features peaks near 22 MiB of traced memory.
        # One regular expression matched over the whole text would keep
        # state for every line and pass 38 MiB on its own.
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, 40000, size=(200000, 2))
        text = ("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist())
        tracemalloc.start()
        try:
            extract_features(parse_edge_list(text)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_matrix_market_memory_bounded(self):
        # A pattern Matrix Market text with 2e5 entries is about 2.2 MiB;
        # parsing it and extracting all features peaks near 19 MiB of traced
        # memory.  Splitting the whole text into lines up front would keep
        # a string object per line and pass 25 MiB.
        rng = np.random.default_rng(3)
        pairs = rng.integers(1, 40001, size=(200000, 2))
        text = (self.HEAD.format("pattern", "general") + "40000 40000 200000\n"
                + ("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist()))
        tracemalloc.start()
        try:
            extract_features(parse_matrix_market(text)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 23 * 2**20
