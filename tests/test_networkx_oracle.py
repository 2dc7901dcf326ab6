"""networkx as an independent oracle on graphs of the stock corpus.

Every fifth graph of the seed-7 stock corpus (10 BA and 15 ER graphs) is
checked; all 125 take about half a minute in networkx.
"""

import pytest

nx = pytest.importorskip("networkx")

import oracles  # noqa: E402
from netclass import default_corpus_specs, extract_features  # noqa: E402
from netclass.features import core_decomposition, triangle_counts  # noqa: E402
from netclass.synth import generate_entry  # noqa: E402

SPECS = default_corpus_specs(7)
# (spec, index within the spec, index in the corpus) of every fifth graph
SAMPLE = [(spec_index, i, offset + i)
          for spec_index, offset in ((0, 0), (1, SPECS[0].count))
          for i in range(SPECS[spec_index].count)
          if (offset + i) % 5 == 0]


@pytest.fixture(scope="module", params=SAMPLE, ids=lambda s: f"graph{s[2]:03d}")
def pair(request):
    spec_index, local, index = request.param
    graph = generate_entry(SPECS[spec_index], local, index).graph
    reference = nx.Graph()
    reference.add_nodes_from(range(graph.node_count))
    reference.add_edges_from(graph.edges())
    return graph, reference


def test_sample_covers_both_families():
    assert len(SAMPLE) == 25
    assert {s for s, _, _ in SAMPLE} == {0, 1}


def test_triangles_and_core_numbers_exact(pair):
    graph, reference = pair
    counts, total = triangle_counts(graph)
    triangles = nx.triangles(reference)
    assert counts.tolist() == [triangles[v] for v in range(graph.node_count)]
    assert total == sum(triangles.values()) // 3
    cores = nx.core_number(reference)
    assert core_decomposition(graph).core_numbers.tolist() == [
        cores[v] for v in range(graph.node_count)]


def test_clustering_transitivity_assortativity(pair):
    graph, reference = pair
    fv = extract_features(graph)
    assert fv.avg_clustering_coeff == pytest.approx(nx.average_clustering(reference), rel=1e-12)
    assert fv.frac_closed_triangles == pytest.approx(nx.transitivity(reference), rel=1e-12)
    assert fv.assortativity == pytest.approx(
        nx.degree_assortativity_coefficient(reference), rel=1e-12)


def test_clique_and_colouring_bounds(pair):
    """max_clique_lb <= omega <= chromatic_number <= max_kcore + 1, with
    omega exact from networkx, and the colouring behind chromatic_number
    (first fit in reverse peel order) is proper.  The clique bound is one
    below omega on some ER graphs, so it is checked as a bound."""
    graph, reference = pair
    fv = extract_features(graph)
    omega = max(len(c) for c in nx.find_cliques(reference))
    assert fv.max_clique_lb <= omega <= fv.chromatic_number <= fv.max_kcore + 1
    color = oracles.greedy_coloring(graph.node_count, list(graph.edges()),
                                    core_decomposition(graph).peel_order.tolist())
    assert len(set(color.values())) == fv.chromatic_number
    assert all(color[u] != color[v] for u, v in reference.edges())
