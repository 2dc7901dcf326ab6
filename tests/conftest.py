"""Shared fixture graphs with independently derived expected feature values."""

import os
from itertools import combinations

import pytest

from netclass import parse_edge_list
from netclass.graph import Graph, from_edges

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# Verdict lines recorded by the acceptance tests; echoed after the run so
# they stay visible even though pytest captures stdout during tests.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# Edge lists use labels 0..n-1; features are isomorphism-invariant so the
# exact compaction order never matters to the expected values below.
NAMED_EDGE_LISTS = {
    "k4": list(combinations(range(4), 2)),
    "p3": [(0, 1), (1, 2)],
    "c5": [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
    "s4": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "bowtie": [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)],
    "k33": [(a, 3 + b) for a in range(3) for b in range(3)],
    "k4_pendant": list(combinations(range(4), 2)) + [(3, 4)],
}

# Hand-computed expected features, keyed by fixture name.  Reals are exact
# rationals rendered as Python floats; comparisons use a 1e-9 tolerance.
EXPECTED_FEATURES = {
    "k4": dict(
        nodes=4, edges=6, density=1.0, max_degree=3, min_degree=3,
        avg_degree=3.0, assortativity=0.0, total_triangles=4,
        avg_triangles=3.0, max_triangles=3, avg_clustering_coeff=1.0,
        frac_closed_triangles=1.0, max_kcore=3, max_clique_lb=4,
        chromatic_number=4,
    ),
    "p3": dict(
        nodes=3, edges=2, density=2 / 3, max_degree=2, min_degree=1,
        avg_degree=4 / 3, assortativity=-1.0, total_triangles=0,
        avg_triangles=0.0, max_triangles=0, avg_clustering_coeff=0.0,
        frac_closed_triangles=0.0, max_kcore=1, max_clique_lb=2,
        chromatic_number=2,
    ),
    "c5": dict(
        nodes=5, edges=5, density=0.5, max_degree=2, min_degree=2,
        avg_degree=2.0, assortativity=0.0, total_triangles=0,
        avg_triangles=0.0, max_triangles=0, avg_clustering_coeff=0.0,
        frac_closed_triangles=0.0, max_kcore=2, max_clique_lb=2,
        chromatic_number=3,
    ),
    "s4": dict(
        nodes=5, edges=4, density=0.4, max_degree=4, min_degree=1,
        avg_degree=1.6, assortativity=-1.0, total_triangles=0,
        avg_triangles=0.0, max_triangles=0, avg_clustering_coeff=0.0,
        frac_closed_triangles=0.0, max_kcore=1, max_clique_lb=2,
        chromatic_number=2,
    ),
    "bowtie": dict(
        nodes=5, edges=6, density=0.6, max_degree=4, min_degree=2,
        avg_degree=2.4, assortativity=-0.5, total_triangles=2,
        avg_triangles=1.2, max_triangles=2, avg_clustering_coeff=13 / 15,
        frac_closed_triangles=0.6, max_kcore=2, max_clique_lb=3,
        chromatic_number=3,
    ),
    "k33": dict(
        nodes=6, edges=9, density=0.6, max_degree=3, min_degree=3,
        avg_degree=3.0, assortativity=0.0, total_triangles=0,
        avg_triangles=0.0, max_triangles=0, avg_clustering_coeff=0.0,
        frac_closed_triangles=0.0, max_kcore=3, max_clique_lb=2,
        chromatic_number=2,
    ),
    "k4_pendant": dict(
        nodes=5, edges=7, density=0.7, max_degree=4, min_degree=1,
        avg_degree=2.8, assortativity=-5 / 9, total_triangles=4,
        avg_triangles=2.4, max_triangles=3, avg_clustering_coeff=0.7,
        frac_closed_triangles=0.8, max_kcore=3, max_clique_lb=4,
        chromatic_number=4,
    ),
}

# Values for the karate club graph; the exact ones were derived by hand or
# are standard published facts, and assortativity carries its own tolerance.
KARATE_EXPECTED = dict(
    nodes=34, edges=78, max_degree=17, min_degree=1,
    total_triangles=45, max_triangles=18, max_kcore=4,
    max_clique_lb=5, chromatic_number=5,
    frac_closed_triangles=135 / 528,
)
KARATE_ASSORTATIVITY = -0.4756


def build_graph(edges) -> Graph:
    graph, _ = from_edges(edges)
    return graph


@pytest.fixture(scope="session")
def named_graphs() -> dict:
    return {name: build_graph(edges) for name, edges in NAMED_EDGE_LISTS.items()}


@pytest.fixture(scope="session")
def karate() -> Graph:
    with open(os.path.join(FIXTURES_DIR, "karate.edges")) as handle:
        graph, _ = parse_edge_list(handle.read())
    return graph
