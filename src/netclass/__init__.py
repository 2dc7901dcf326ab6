"""Deterministic structural classification of networks.

Parse graphs, extract 15 structural features, generate labeled synthetic
corpora, and run the bundled from-scratch learners (random forest, k-means,
t-SNE) over the resulting feature tables.  Every random choice flows from an
explicit seed, so equal inputs give byte-equal outputs.

The names below are the whole top-level API, the ones the README uses;
everything else is imported from its submodule, for example
``netclass.graph.parse_matrix_market``.
"""

from .data import Dataset, feature_log_flags
from .evaluate import cross_validate
from .features import extract_features
from .forest import ForestParams, forest_predict, forest_train
from .graph import parse_edge_list
from .kmeans import kmeans
from .synth import default_corpus_specs, generate_corpus
from .tsne import tsne

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ForestParams",
    "cross_validate",
    "default_corpus_specs",
    "extract_features",
    "feature_log_flags",
    "forest_predict",
    "forest_train",
    "generate_corpus",
    "kmeans",
    "parse_edge_list",
    "tsne",
]
