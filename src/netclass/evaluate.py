"""Stratified cross-validation, confusion matrices, and cluster overlap.

Each fold trains its own forest on the other folds' rows, and a forest fits
nothing but its trees, so no held-out row reaches the forest that predicts
it.  cross_validate counts the confusion matrix of its pooled predictions; a
ConfusionMatrix holds only the counts and label names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .features import csv_text
from .forest import ForestParams, forest_predict, forest_train
from .seeding import derive_seed, make_rng


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """The fold of each row: each class's shuffled rows are dealt round-robin
    across folds 0..k-1.

    Classes are processed in ascending label order with one shared generator,
    so per-class fold counts differ by at most one.
    """
    y = np.asarray(labels, dtype=np.int64)
    n = len(y)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    rng = make_rng(seed)
    folds = np.empty(n, dtype=np.int64)
    for label in np.unique(y):
        perm = rng.permutation(np.nonzero(y == label)[0])
        folds[perm] = np.arange(len(perm)) % k
    return folds


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row = true label, column = predicted label."""

    counts: np.ndarray
    label_names: tuple[str, ...]

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


@dataclass(frozen=True)
class CVResult:
    """Per-row arrays: folds[i] is the fold row i was held out in, and
    predictions[i] and votes[i] (one count per class) come from that fold's
    forest, which never saw row i."""

    folds: np.ndarray
    predictions: np.ndarray
    votes: np.ndarray
    confusion: ConfusionMatrix

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy


def cross_validate(
    dataset: Dataset, params: ForestParams, k: int, seed: int, map=map
) -> CVResult:
    """k-fold CV with a fresh forest per fold that holds rows; predictions
    are pooled.

    The folds use derive_seed(seed, 0) and fold f trains with master seed
    derive_seed(seed, 1 + f), so results are reproducible regardless of fold
    evaluation order.  `map(fold, range(k))` runs the folds: any map that
    returns fold f's (predictions, votes) in order will do, such as one
    that spreads the folds over processes.
    """
    folds = stratified_kfold(dataset.labels, k, derive_seed(seed, 0))

    def fold(f):
        train_idx = np.nonzero(folds != f)[0]
        if not len(train_idx):
            raise ValueError(f"fold {f} leaves no training rows")
        held = dataset.matrix[folds == f]
        if not len(held):  # every class has fewer rows than k
            return np.zeros(0, dtype=np.int64), np.zeros((0, dataset.n_classes), dtype=np.int64)
        forest = forest_train(dataset.subset(train_idx), params, derive_seed(seed, 1 + f))
        return forest_predict(forest, held)

    n = dataset.n_rows
    predictions = np.full(n, -1, dtype=np.int64)
    votes = np.zeros((n, dataset.n_classes), dtype=np.int64)
    for f, fold_result in enumerate(map(fold, range(k))):
        predictions[folds == f], votes[folds == f] = fold_result
    counts = np.zeros((dataset.n_classes, dataset.n_classes), dtype=np.int64)
    np.add.at(counts, (dataset.labels, predictions), 1)
    confusion = ConfusionMatrix(counts, dataset.label_names)
    return CVResult(folds, predictions, votes, confusion)


@dataclass(frozen=True)
class OverlapReport:
    """Cluster-by-category composition plus suggested category merges.

    Each category's column is normalized to a distribution over clusters;
    the overlap mass of two categories is the dot product of their
    distributions (1.0 when they always share a cluster, 0.0 when disjoint).
    """

    counts: np.ndarray
    label_names: tuple[str, ...]
    purity: tuple[float, ...]
    suggestions: tuple[tuple[str, str, float], ...]
    threshold: float


def cluster_category_overlap(
    assignments: np.ndarray,
    labels: np.ndarray,
    label_names: tuple[str, ...],
    n_clusters: "int | None" = None,
    threshold: float = 0.6,
) -> OverlapReport:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"overlap threshold must be within [0, 1], got {threshold:g}")
    a = np.asarray(assignments, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if a.shape != y.shape or a.ndim != 1 or len(a) == 0:
        raise ValueError("assignments and labels must be equal-length non-empty vectors")
    if n_clusters is None:
        n_clusters = int(a.max()) + 1
    kk = len(label_names)
    if a.min() < 0 or a.max() >= n_clusters or y.min() < 0 or y.max() >= kk:
        raise ValueError("assignment or label index out of range")
    counts = np.zeros((n_clusters, kk), dtype=np.int64)
    np.add.at(counts, (a, y), 1)
    row_tot = counts.sum(axis=1)
    purity = tuple(
        float(counts[c].max() / row_tot[c]) if row_tot[c] else 0.0
        for c in range(n_clusters)
    )
    col_tot = counts.sum(axis=0).astype(np.float64)
    suggestions = []
    for i in range(kk):
        if col_tot[i] == 0:
            continue
        vi = counts[:, i] / col_tot[i]
        for j in range(i + 1, kk):
            if col_tot[j] == 0:
                continue
            mass = float((vi * (counts[:, j] / col_tot[j])).sum())
            if mass >= threshold:
                suggestions.append((label_names[i], label_names[j], mass))
    return OverlapReport(counts, tuple(label_names), purity, tuple(suggestions), threshold)


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    return csv_text(["category"] + list(cm.label_names), (
        [name] + [str(int(v)) for v in cm.counts[i]]
        for i, name in enumerate(cm.label_names)
    ))


def _aligned(rows: list[list[str]], footer: list[str]) -> str:
    """The rows with every cell right-aligned to the widest one, then the footer."""
    width = max(len(cell) for row in rows for cell in row)
    lines = [" ".join(f"{cell:>{width}}" for cell in row) for row in rows]
    return "\n".join(lines + footer) + "\n"


def confusion_to_text(cm: ConfusionMatrix) -> str:
    return _aligned(
        [["true", *cm.label_names]]
        + [[name, *(str(int(v)) for v in row)]
           for name, row in zip(cm.label_names, cm.counts)],
        [f"accuracy {cm.accuracy:.6f}"],
    )


def misclass_to_csv(dataset: Dataset, result: CVResult) -> str:
    """The rows whose cross-validated prediction is wrong, in row order."""
    names = dataset.label_names
    header = ["name", "category", "predicted"] + [f"votes_{s}" for s in names]
    return csv_text(header, (
        [dataset.names[i], names[dataset.labels[i]], names[result.predictions[i]]]
        + [str(int(v)) for v in result.votes[i]]
        for i in np.nonzero(result.predictions != dataset.labels)[0]
    ))


def overlap_to_text(report: OverlapReport) -> str:
    pairs = [f"  {a} + {b} ({mass:.4f})" for a, b, mass in report.suggestions]
    head = f"merge candidates (overlap >= {report.threshold:g})"
    return _aligned(
        [["cluster", *report.label_names, "purity"]]
        + [[str(c), *(str(int(v)) for v in counts), f"{report.purity[c]:.4f}"]
           for c, counts in enumerate(report.counts)],
        [head + ":", *pairs] if pairs else ["no " + head],
    )
