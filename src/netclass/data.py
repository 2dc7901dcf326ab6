"""Labeled design matrices and the log/z-score preprocessing they share.

Count-like feature columns are compressed with log10(1+x) before z-scoring;
constant columns standardize to zero so no consumer ever sees NaN.  The
fitted parameters travel with trained models so that prediction-time inputs
are transformed identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES

# Heavy-tailed count-scale features; the remaining five (density, avg_degree,
# assortativity, avg_clustering_coeff, frac_closed_triangles) stay linear.
LOG_FEATURES = frozenset({
    "nodes", "edges", "max_degree", "min_degree",
    "total_triangles", "avg_triangles", "max_triangles",
    "max_kcore", "max_clique_lb", "chromatic_number",
})


def feature_log_flags() -> tuple[bool, ...]:
    """Per-column log-transform flags for the canonical 15-feature layout."""
    return tuple(name in LOG_FEATURES for name in FEATURE_NAMES)


@dataclass(frozen=True)
class Dataset:
    """Rows of (name, label, feature vector) with a shared label table."""

    names: tuple[str, ...]
    labels: np.ndarray
    label_names: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        n = len(self.names)
        if self.labels.shape != (n,) or self.matrix.shape[0] != n:
            raise ValueError("names, labels and matrix row counts disagree")
        if len(self.label_names) < 1:
            raise ValueError("need at least one label")
        if n and (self.labels.min() < 0 or self.labels.max() >= len(self.label_names)):
            raise ValueError("label index outside label table")

    @property
    def n_rows(self) -> int:
        return len(self.names)

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    @classmethod
    def from_feature_table(
        cls, names: list[str], categories: list[str], matrix: np.ndarray
    ) -> "Dataset":
        """Build a Dataset from CSV contents; every row must carry a category."""
        missing = [n for n, c in zip(names, categories) if not c]
        if missing:
            raise ValueError(f"rows without a category: {missing[:5]}")
        label_names = tuple(sorted(set(categories)))
        lookup = {c: i for i, c in enumerate(label_names)}
        labels = np.array([lookup[c] for c in categories], dtype=np.int64)
        return cls(tuple(names), labels, label_names, np.asarray(matrix, dtype=np.float64))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            tuple(self.names[i] for i in idx),
            self.labels[idx],
            self.label_names,
            self.matrix[idx],
        )


@dataclass(frozen=True)
class StandardizeParams:
    """Fitted per-column transform: optional log10(1+x), then (x - mean)/std.

    Columns whose std is zero map to zero.
    """

    log_flags: tuple[bool, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]


def fit_standardize(
    matrix: np.ndarray, log_flags: "tuple[bool, ...] | None" = None
) -> StandardizeParams:
    """Fit transform parameters on a training matrix (population std)."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a non-empty 2-D matrix")
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite values")
    d = x.shape[1]
    if log_flags is None:
        log_flags = (False,) * d
    if len(log_flags) != d:
        raise ValueError("log_flags length does not match column count")
    x = _apply_log(x, log_flags)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    return StandardizeParams(tuple(log_flags), tuple(means), tuple(stds))


def _apply_log(x: np.ndarray, log_flags: tuple[bool, ...]) -> np.ndarray:
    x = x.copy()
    for j, flag in enumerate(log_flags):
        if flag:
            col = x[:, j]
            if (col < 0).any():
                raise ValueError(f"negative value in count-like column {j}")
            x[:, j] = np.log10(1.0 + col)
    return x


def apply_standardize(params: StandardizeParams, matrix: np.ndarray) -> np.ndarray:
    """Apply fitted parameters to a matrix (rows need not be the fit rows)."""
    x = np.asarray(matrix, dtype=np.float64)
    one_row = x.ndim == 1
    if one_row:
        x = x[None, :]
    if x.shape[1] != len(params.means):
        raise ValueError(
            f"matrix has {x.shape[1]} columns, params expect {len(params.means)}"
        )
    if not np.isfinite(x).all():
        raise ValueError("matrix contains non-finite values")
    x = _apply_log(x, params.log_flags)
    means = np.array(params.means)
    stds = np.array(params.stds)
    safe = np.where(stds > 0.0, stds, 1.0)
    out = (x - means) / safe
    out[:, stds == 0.0] = 0.0
    return out[0] if one_row else out
