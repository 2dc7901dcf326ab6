"""Synthetic graph generators and corpus assembly."""

import time
import tracemalloc

import numpy as np
import pytest

from netclass import default_corpus_specs, generate_corpus
from netclass.graph import MAX_NODES
from netclass.seeding import derive_seed
from netclass.synth import (
    GeneratorSpec,
    barabasi_albert,
    erdos_renyi,
    generate_entry,
    parse_generator_spec,
)


class TestErdosRenyi:
    def test_extreme_probabilities(self):
        assert erdos_renyi(8, 0.0, seed=1).edge_count == 0
        assert list(erdos_renyi(8, 1.0, seed=1).edges()) == [
            (i, j) for i in range(8) for j in range(i + 1, 8)]
        # A gap above 1 has chance 1e-16 per pair, so no pair is skipped.
        assert erdos_renyi(300, 1 - 1e-16, seed=1).edge_count == 300 * 299 // 2

    @pytest.mark.parametrize("p", [5e-324, 1e-300])
    def test_tiny_probability_keeps_no_pair(self, p):
        # Every gap saturates far past the last of the 5e9 pairs.  A gap
        # clipped at C(n, 2) instead of C(n, 2) + 1 would keep the last
        # pair (n - 2, n - 1); one draw per pair would take 5e9 draws.
        start = time.process_time()
        assert erdos_renyi(10**5, p, seed=3).edge_count == 0
        assert time.process_time() - start < 1.0

    def test_simple_graph_invariants(self):
        g = erdos_renyi(40, 0.3, seed=5)
        for u in range(g.node_count):
            nbrs = g.neighbors(u).tolist()
            assert u not in nbrs
            assert len(set(nbrs)) == len(nbrs)
        assert all(u < v for u, v in g.edges())

    def test_deterministic_per_seed(self):
        a = erdos_renyi(30, 0.2, seed=9)
        b = erdos_renyi(30, 0.2, seed=9)
        c = erdos_renyi(30, 0.2, seed=10)
        assert a == b
        assert a != c

    def test_edge_count_near_expectation(self):
        # mean of 40 draws should sit well within 4 standard errors
        n, p = 60, 0.25
        pairs = n * (n - 1) / 2
        counts = [erdos_renyi(n, p, seed=s).edge_count for s in range(40)]
        sigma = np.sqrt(pairs * p * (1 - p) / len(counts))
        assert abs(np.mean(counts) - pairs * p) < 4 * sigma

    def test_tiny_graphs(self):
        assert erdos_renyi(0, 0.5, seed=0).node_count == 0
        assert erdos_renyi(1, 1.0, seed=0).edge_count == 0
        assert erdos_renyi(1, 0.5, seed=0).edge_count == 0
        assert list(erdos_renyi(2, 1.0, seed=0).edges()) == [(0, 1)]
        assert erdos_renyi(2, 0.0, seed=0).edge_count == 0
        assert {erdos_renyi(2, 0.5, seed=s).edge_count for s in range(20)} == {0, 1}

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_each_pair_kept_with_probability_p(self, p):
        # numpy's geometric sampler inverts below p = 1/3 and searches at or
        # above it, so one p of each.  Over 4,000 graphs on 6 nodes, each of
        # the 15 pairs, the first (0, 1) and the last (4, 5) included, must
        # be kept at a rate within 4 sigma of p, and the edge count's sample
        # variance within 4 of its standard errors of the binomial's.
        n, seeds = 6, 4000
        pairs = n * (n - 1) // 2
        kept = np.zeros((seeds, pairs), dtype=bool)
        for s in range(seeds):
            u, v = erdos_renyi(n, p, seed=s).edge_arrays()
            kept[s, u * (2 * n - 1 - u) // 2 + v - u - 1] = True
        sigma = np.sqrt(p * (1 - p) / seeds)
        assert np.all(np.abs(kept.mean(axis=0) - p) < 4 * sigma)
        var = pairs * p * (1 - p)
        excess_kurtosis = (1 - 6 * p * (1 - p)) / var
        var_se = var * np.sqrt(2 / (seeds - 1) + excess_kurtosis / seeds)
        assert abs(kept.sum(axis=1).var(ddof=1) - var) < 4 * var_se

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_bad_probability(self, p):
        with pytest.raises(ValueError, match="probability"):
            erdos_renyi(5, p, seed=0)

    def test_negative_n(self):
        with pytest.raises(ValueError, match="non-negative"):
            erdos_renyi(-1, 0.5, seed=0)

    def test_memory_linear_in_nodes_and_edges(self):
        # One uniform draw per pair held at once would be C(5000, 2) doubles,
        # about 95 MiB; the graph itself (about 25k edges) needs a few MiB.
        tracemalloc.start()
        try:
            erdos_renyi(5000, 10 / 4999, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestBarabasiAlbert:
    @pytest.mark.parametrize("n,m", [(10, 1), (25, 3), (100, 5), (4, 3)])
    def test_exact_edge_count_and_min_degree(self, n, m):
        g = barabasi_albert(n, m, seed=3)
        assert g.edge_count == m * (m - 1) // 2 + m * (n - m)
        assert min(g.degrees()) == m

    def test_m3_n4_is_complete(self):
        g = barabasi_albert(4, 3, seed=0)
        assert g.edge_count == 6
        assert all(d == 3 for d in g.degrees())

    def test_m1_yields_tree(self):
        g = barabasi_albert(50, 1, seed=8)
        assert g.edge_count == 49

    def test_hubs_emerge(self):
        # preferential attachment must produce degrees far above m
        g = barabasi_albert(2000, 3, seed=12)
        assert max(g.degrees()) > 30

    def test_targets_drawn_in_proportion_to_degree(self):
        # Node 2 attaches to node 0 or 1, so node 3 meets degrees (2, 1, 1)
        # or (1, 2, 1), each half the time, and picks nodes 0, 1 and 2 with
        # chances 3/8, 3/8 and 1/4.  A uniform pick would give 1/3 each.
        picks = [barabasi_albert(4, 1, seed).neighbors(3)[0] for seed in range(4000)]
        freq = np.bincount(picks, minlength=3) / len(picks)
        np.testing.assert_allclose(freq, [3 / 8, 3 / 8, 1 / 4], atol=0.03)

    def test_deterministic_per_seed(self):
        assert barabasi_albert(60, 4, seed=2) == barabasi_albert(60, 4, seed=2)
        assert barabasi_albert(60, 4, seed=2) != barabasi_albert(60, 4, seed=3)

    def test_memory_linear_in_nodes_and_edges(self):
        # About 150k edges: the target array and the edge keys _build_graph
        # sorts are a few MiB each, about 10 MiB together at the peak.
        tracemalloc.start()
        try:
            barabasi_albert(15000, 10, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * 2**20

    @pytest.mark.parametrize("n,m", [(5, 0), (5, 5), (5, 6)])
    def test_bad_m(self, n, m):
        with pytest.raises(ValueError, match="1 <= m < n"):
            barabasi_albert(n, m, seed=0)


class TestGeneratorSpec:
    def ba_spec(self, **overrides):
        base = dict(
            family="BA", count=3, nodes_range=(20, 40), m_range=(2, 4), master_seed=1
        )
        base.update(overrides)
        return GeneratorSpec(**base)

    def test_count_zero_allowed(self):
        spec = self.ba_spec(count=0)
        assert generate_corpus([spec]) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            self.ba_spec(count=-1)

    def test_er_needs_exactly_one_parameter_range(self):
        with pytest.raises(ValueError, match="exactly one"):
            GeneratorSpec(
                family="ER", count=1, nodes_range=(5, 9), master_seed=0,
                p_range=(0.1, 0.2), avg_degree_range=(2.0, 3.0),
            )
        with pytest.raises(ValueError, match="exactly one"):
            GeneratorSpec(
                family="ER", count=1, nodes_range=(5, 9), master_seed=0
            )

    def test_er_degree_range_must_be_finite(self):
        with pytest.raises(ValueError, match=r"bad degree range \[1.0, inf\]"):
            GeneratorSpec(family="ER", count=1, nodes_range=(5, 9), master_seed=0,
                          avg_degree_range=(1.0, float("inf")))

    def test_ba_m_must_stay_below_node_floor(self):
        with pytest.raises(ValueError, match="m_hi < n_lo"):
            self.ba_spec(nodes_range=(4, 10), m_range=(2, 4))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            GeneratorSpec(
                family="WS", count=1, nodes_range=(5, 9), master_seed=0
            )

    @pytest.mark.parametrize("family", ["BA", "ER"])
    def test_node_range_above_limit_rejected(self, family):
        params = {"m_range": (2, 4)} if family == "BA" else {"avg_degree_range": (2.0, 3.0)}
        with pytest.raises(ValueError, match=f"exceed the limit of {MAX_NODES}"):
            GeneratorSpec(family=family, count=1, nodes_range=(10**13, 10**13),
                          master_seed=0, **params)
        GeneratorSpec(family=family, count=1, nodes_range=(10, MAX_NODES),
                      master_seed=0, **params)


class TestCorpus:
    def test_default_corpus_shape(self):
        entries = generate_corpus(default_corpus_specs(42))
        assert len(entries) == 125
        assert sum(1 for e in entries if e.category == "BA") == 50
        assert sum(1 for e in entries if e.category == "ER") == 75
        assert entries[0].name == "ba_0000"
        assert entries[49].name == "ba_0049"
        assert entries[50].name == "er_0050"
        assert entries[-1].name == "er_0124"
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)

    def test_node_ranges_respected(self):
        entries = generate_corpus(default_corpus_specs(7))
        assert all(100 <= e.graph.node_count <= 2000 for e in entries)

    def test_params_strings(self):
        entries = generate_corpus(default_corpus_specs(3))
        for e in entries:
            if e.category == "BA":
                assert e.params.startswith("m=")
            else:
                assert e.params.startswith("p=")
                assert 0.0 <= float(e.params[2:]) <= 1.0

    def test_deterministic_in_master_seed(self):
        a = generate_corpus(default_corpus_specs(5))
        b = generate_corpus(default_corpus_specs(5))
        c = generate_corpus(default_corpus_specs(6))
        assert [e.graph for e in a] == [e.graph for e in b]
        assert [e.graph for e in a] != [e.graph for e in c]

    def test_entries_independent_of_order(self):
        # entry i depends only on (spec, i), never on earlier entries
        specs = default_corpus_specs(9)
        corpus = generate_corpus(specs)
        for local, global_idx in [(17, 17), (0, 0), (49, 49), (74, 124)]:
            spec = specs[0] if global_idx < 50 else specs[1]
            entry = generate_entry(spec, local, global_idx)
            assert entry.graph == corpus[global_idx].graph
            assert entry.name == corpus[global_idx].name


class TestSpecFile:
    GOOD = """
[corpus]
master_seed = 99

[ba]
count = 4
nodes_min = 30
nodes_max = 60
m_min = 2
m_max = 3

[er]
count = 5
nodes_min = 30
nodes_max = 60
avg_degree_min = 4
avg_degree_max = 10
"""

    def test_parse_good_file(self):
        specs = parse_generator_spec(self.GOOD, default_master=1)
        assert [s.family for s in specs] == ["BA", "ER"]
        assert specs[0].count == 4
        assert specs[0].m_range == (2, 3)
        assert specs[1].avg_degree_range == (4.0, 10.0)
        # sections without explicit seeds derive from the corpus master
        assert specs[0].master_seed == derive_seed(99, 0)
        assert specs[1].master_seed == derive_seed(99, 1)

    def test_default_master_used_without_corpus_section(self):
        text = "[ba]\ncount=1\nnodes_min=10\nnodes_max=20\nm_min=2\nm_max=2\n"
        specs = parse_generator_spec(text, default_master=123)
        assert specs[0].master_seed == derive_seed(123, 0)

    def test_explicit_section_seed_wins(self):
        text = "[ba]\ncount=1\nnodes_min=10\nnodes_max=20\nm_min=2\nm_max=2\nseed=55\n"
        specs = parse_generator_spec(text, default_master=123)
        assert specs[0].master_seed == 55

    def test_qualified_sections_allow_same_family_twice(self):
        text = (
            "[er sparse]\ncount=1\nnodes_min=10\nnodes_max=20\n"
            "p_min=0.05\np_max=0.1\n"
            "[er dense]\ncount=1\nnodes_min=10\nnodes_max=20\n"
            "p_min=0.4\np_max=0.5\n"
        )
        specs = parse_generator_spec(text, default_master=0)
        assert len(specs) == 2
        assert specs[0].p_range == (0.05, 0.1)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown generator section"):
            parse_generator_spec("[watts]\ncount=1\n", default_master=0)

    def test_unknown_key_rejected(self):
        text = "[ba]\ncount=1\nnodes_min=5\nnodes_max=9\nm_min=2\nm_max=2\nbogus=1\n"
        with pytest.raises(ValueError, match="unknown keys"):
            parse_generator_spec(text, default_master=0)

    def test_unknown_corpus_key_rejected(self):
        with pytest.raises(ValueError, match="corpus"):
            parse_generator_spec("[corpus]\nbogus = 3\n", default_master=0)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValueError, match=r"bad \[ba\] section: BA spec needs exactly one "
                                             r"range of m and no other, got none"):
            parse_generator_spec(
                "[ba]\ncount=1\nnodes_min=5\nnodes_max=9\n", default_master=0
            )

    def test_missing_count_rejected(self):
        with pytest.raises(ValueError, match=r"\[er\] missing keys: \['count'\]"):
            parse_generator_spec(
                "[er]\nnodes_min=5\nnodes_max=9\np_min=0.1\np_max=0.2\n", default_master=0
            )

    def test_half_specified_range_rejected(self):
        text = "[er]\ncount=1\nnodes_min=5\nnodes_max=9\np_min=0.2\n"
        with pytest.raises(ValueError, match="needs both"):
            parse_generator_spec(text, default_master=0)

    def test_malformed_file_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_generator_spec("count=1\nnodes_min=5\n", default_master=0)


class TestSeedDerivation:
    def test_derive_seed_is_stable_and_spread(self):
        a = derive_seed(42, 0)
        assert a == derive_seed(42, 0)
        assert derive_seed(42, 1) != a
        assert derive_seed(43, 0) != a
        assert 0 <= a < 2 ** 64
