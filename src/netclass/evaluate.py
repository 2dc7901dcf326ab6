"""Stratified cross-validation, confusion matrices, and cluster overlap.

Standardization never leaks across folds: each fold trains its own forest,
and forest training fits its transform on the training rows alone.  The
fitted per-fold parameters are kept on the result so the isolation can be
checked from outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, StandardizeParams
from .features import csv_text
from .forest import ForestParams, forest_predict, forest_train
from .seeding import derive_seed, make_rng


@dataclass(frozen=True)
class FoldPlan:
    """A disjoint cover of row indices 0..N-1 by k (possibly empty) folds."""

    folds: tuple[tuple[int, ...], ...]
    seed: int

    def __post_init__(self):
        seen = [i for fold in self.folds for i in fold]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("folds do not partition 0..N-1")

    def train_indices(self, fold: int) -> tuple[int, ...]:
        held = set(self.folds[fold])
        total = sum(len(f) for f in self.folds)
        return tuple(i for i in range(total) if i not in held)


def stratified_kfold(labels: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Deal each class's shuffled indices round-robin across k folds.

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
    folds: list[list[int]] = [[] for _ in range(k)]
    for label in np.unique(y):
        idx = np.nonzero(y == label)[0]
        perm = rng.permutation(idx)
        for j, row in enumerate(perm):
            folds[j % k].append(int(row))
    return FoldPlan(tuple(tuple(sorted(f)) for f in folds), seed)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row = true label, column = predicted label."""

    counts: np.ndarray
    label_names: tuple[str, ...]

    @classmethod
    def from_predictions(
        cls, true: np.ndarray, predicted: np.ndarray, label_names: tuple[str, ...]
    ) -> "ConfusionMatrix":
        t = np.asarray(true, dtype=np.int64)
        p = np.asarray(predicted, dtype=np.int64)
        if t.shape != p.shape or t.ndim != 1:
            raise ValueError("true and predicted labels must be equal-length vectors")
        if len(t) == 0:
            raise ValueError("cannot build a confusion matrix from no predictions")
        kk = len(label_names)
        if t.min() < 0 or t.max() >= kk or p.min() < 0 or p.max() >= kk:
            raise ValueError("label index outside label table")
        counts = np.zeros((kk, kk), dtype=np.int64)
        np.add.at(counts, (t, p), 1)
        return cls(counts, tuple(label_names))

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


@dataclass(frozen=True)
class MisclassRecord:
    name: str
    true_label: str
    predicted_label: str
    votes: tuple[int, ...]


@dataclass(frozen=True)
class CVResult:
    accuracy: float
    confusion: ConfusionMatrix
    misclassified: tuple[MisclassRecord, ...]
    predictions: np.ndarray
    plan: FoldPlan
    fold_standardize: tuple[StandardizeParams, ...]


def cross_validate(
    dataset: Dataset, params: ForestParams, k: int, seed: int
) -> CVResult:
    """k-fold CV with a fresh forest per fold; predictions are pooled.

    The fold plan uses derive_seed(seed, 0) and fold f trains with master
    seed derive_seed(seed, 1 + f), so results are reproducible regardless of
    fold evaluation order.
    """
    plan = stratified_kfold(dataset.labels, k, derive_seed(seed, 0))
    n = dataset.n_rows
    predictions = np.full(n, -1, dtype=np.int64)
    votes = np.zeros((n, dataset.n_classes), dtype=np.int64)
    fold_params = []
    for f, test_idx in enumerate(plan.folds):
        train_idx = plan.train_indices(f)
        if not train_idx:
            raise ValueError(f"fold {f} leaves no training rows")
        forest = forest_train(dataset.subset(train_idx), params, derive_seed(seed, 1 + f))
        fold_params.append(forest.standardize)
        rows = list(test_idx)
        predictions[rows], votes[rows] = forest_predict(forest, dataset.matrix[rows])
    confusion = ConfusionMatrix.from_predictions(
        dataset.labels, predictions, dataset.label_names
    )
    misclassified = tuple(
        MisclassRecord(
            dataset.names[i],
            dataset.label_names[dataset.labels[i]],
            dataset.label_names[predictions[i]],
            tuple(int(c) for c in votes[i]),
        )
        for i in range(n)
        if predictions[i] != dataset.labels[i]
    )
    return CVResult(
        accuracy=confusion.accuracy,
        confusion=confusion,
        misclassified=misclassified,
        predictions=predictions,
        plan=plan,
        fold_standardize=tuple(fold_params),
    )


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
            mass = float(vi @ (counts[:, j] / col_tot[j]))
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


def misclass_to_csv(records, label_names: tuple[str, ...]) -> str:
    header = ["name", "category", "predicted"] + [f"votes_{s}" for s in label_names]
    return csv_text(header, (
        [rec.name, rec.true_label, rec.predicted_label] + [str(v) for v in rec.votes]
        for rec in records
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
