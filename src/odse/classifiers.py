"""kNN and binary C-SVM classifiers on precomputed distances.

The classifiers never compute a distance: the caller's space does.  The
embedded space gives Euclidean distances between dissimilarity vectors
(`embedding.euclidean_distances`); the input space gives alignment
dissimilarities between sequences (`embedding.compute_matrix` tables).
The SVM kernel is exp(-gamma * d^2) in both spaces, used without any
positive-definiteness correction.  The SVM is trained by a deterministic
SMO loop so that training is reproducible bit for bit.

Class labels are 0 and 1 throughout and the kNN's k is odd; the SVM maps
the labels to -1/+1 internally and a decision value of 0 is class 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dp
from .errors import OdseError, TrainingError, is_integer

MEDIAN_HEURISTIC = "median-heuristic"

# A pair step smaller than this does not count as progress; it is well
# below any decision-relevant scale but keeps the sweep loop from
# spinning on float noise.
_STEP_EPS = 1e-7
_SUPPORT_EPS = 1e-10


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5

    def __post_init__(self):
        if not is_integer(self.k) or self.k < 1 or self.k % 2 == 0:
            raise OdseError(f"k must be a positive odd integer, got {self.k}")


@dataclass(frozen=True)
class SvmConfig:
    c: float = 2.0
    kernel_gamma: float | str = MEDIAN_HEURISTIC
    kkt_tolerance: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise OdseError(f"c must be positive and finite, got {self.c}")
        gamma = self.kernel_gamma
        if gamma != MEDIAN_HEURISTIC and not (
            isinstance(gamma, (int, float)) and math.isfinite(gamma) and gamma > 0
        ):
            raise OdseError(
                f"kernel_gamma must be finite and positive or {MEDIAN_HEURISTIC!r}, got {gamma!r}"
            )
        if not (math.isfinite(self.kkt_tolerance) and self.kkt_tolerance > 0.0):
            raise OdseError(f"kkt_tolerance must be finite and positive, got {self.kkt_tolerance}")
        if not is_integer(self.max_passes) or self.max_passes < 1:
            raise OdseError(f"max_passes must be an integer of at least 1, got {self.max_passes}")


@dataclass(frozen=True)
class TrainedSvm:
    """Support set of a trained binary SVM.

    support holds the training-set indices of the support items in
    increasing order; alphas and targets (the mapped -1/+1 labels) follow
    the same order, and so must the distances a query is decided on.
    """

    support: np.ndarray
    alphas: np.ndarray
    targets: np.ndarray
    bias: float
    gamma: float


def _distance_rows(distances) -> np.ndarray:
    """distances as float64, one query's (n,) row or an (m, n) array of
    rows; any other number of dimensions raises OdseError."""
    dist = np.asarray(distances, dtype=np.float64)
    if dist.ndim not in (1, 2):
        raise OdseError(f"expected (n,) or (m, n) distances, got {dist.ndim} dimensions")
    return dist


# --------------------------------------------------------------------------
# kNN


def knn_label_from_distances(distances, labels, k: int):
    """Majority label of the k closest items given precomputed distances:
    an int for one row of distances, an int64 array with one label per
    row for an (m, n) array.

    labels are n values, each 0 or 1, and k is odd, so a vote never ties:
    the label is 1 when more than half of the k nearest are 1.  Ties in
    distance at rank k go to the lower training index.  Any other labels,
    an even k or a k below 1 raise TrainingError.
    """
    dist = _distance_rows(distances)
    n = dist.shape[-1]
    if k < 1:
        raise TrainingError(f"kNN needs k >= 1, got {k}")
    if k % 2 != 1:
        raise TrainingError(f"kNN needs an odd k, got {k}")
    labels = _class_labels(labels, n)
    if n == 0:
        raise TrainingError("kNN needs a non-empty training set")
    if n < k:
        raise TrainingError(f"kNN needs at least k={k} training items, got {n}")
    nearest = np.argsort(dist, axis=-1, kind="stable")[..., :k]
    voted = 2 * labels[nearest].sum(axis=-1) > k
    return int(voted) if dist.ndim == 1 else voted.astype(np.int64)


def _class_labels(labels, n: int) -> np.ndarray:
    """labels as an (n,) array of values equal to 0 or 1, else TrainingError."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise TrainingError(f"expected {n} labels, got an array of shape {labels.shape}")
    foreign = (labels != 0) & (labels != 1)
    if np.any(foreign):
        raise TrainingError(f"labels must be 0/1, got {labels[foreign].tolist()[0]!r}")
    return labels


# --------------------------------------------------------------------------
# SVM


def median_heuristic_gamma(distances: np.ndarray) -> float:
    """1 / (2 * median^2) of the off-diagonal pairwise distances.

    Falls back to 1.0 when the median is zero (all points coincide).
    """
    n = distances.shape[0]
    if n < 2:
        return 1.0
    # np.median's own steps, one or two middle values after np.partition
    # and their np.mean; np.median's first call imports numpy.ma
    values = distances[np.triu_indices(n, k=1)]
    lo, hi = (len(values) - 1) // 2, len(values) // 2
    med = float(np.mean(np.partition(values, (lo, hi))[lo : hi + 1]))
    if med <= 0.0:
        return 1.0
    return 1.0 / (2.0 * med * med)


def smo_solve(gram, targets, c: float, tol: float, max_passes: int):
    """Pairwise coordinate ascent on the SVM dual over a fixed Gram matrix.

    targets must be -1/+1.  The loop is fully deterministic: the first
    index sweeps in order, and the partner is the feasible index with the
    largest |E_i - E_j|, ties toward the lower index.  A partner is
    feasible when its box [lo, hi] is not empty, its curvature
    K_ii + K_jj - 2 K_ij is positive (so an indefinite Gram matrix never
    divides by zero) and its clipped step is at least _STEP_EPS; alphas
    stay in [0, C].  Stops after a sweep with no step (no alpha would
    ever move again under the same order) or after max_passes sweeps.

    Each sweep is the `smo_sweep` of `_dp.load()`, compiled or numpy;
    both take step_eps = _STEP_EPS and do the same floating-point
    operations in the same order, so they agree bit for bit.  The
    per-sweep errors, every pair's curvature and the final bias stay in
    numpy.  A gram that is not a finite (n, n) array or targets that are
    not a finite (n,) array raise ValueError before any sweep runs.
    """
    k = np.asarray(gram, dtype=np.float64)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    if y.ndim != 1 or k.shape != (len(y), len(y)):
        raise ValueError("gram must be an (n, n) array for n targets")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(y))):
        raise ValueError("gram and targets must be finite")
    n = len(y)
    diag = k.diagonal()
    # every pair's curvature K_ii + K_jj - 2 K_ij, computed once per solve
    eta_all = np.ascontiguousarray((diag[:, None] + diag[None, :]) - 2.0 * k)
    sweep = _dp.load().smo_sweep
    # the sweeps read k row-major; the matrix-vector products below keep
    # the caller's layout, whose BLAS summation order they always had
    k_rows = np.ascontiguousarray(k)
    alphas = np.zeros(n, dtype=np.float64)
    b = 0.0
    for _ in range(max_passes):
        errors = k @ (alphas * y) + b - y
        b, changed = sweep(k_rows, y, eta_all, c, tol, _STEP_EPS, alphas, errors, b)
        if changed == 0:
            break
    # recompute the bias from the free support vectors when there are any;
    # averaging is more stable than the last pairwise estimate
    free = (alphas > _SUPPORT_EPS) & (alphas < c - _SUPPORT_EPS)
    if np.any(free):
        f_wo_b = k[free] @ (alphas * y)
        b = float(np.mean(y[free] - f_wo_b))
    return alphas, b


def svm_train(dist, labels, cfg: SvmConfig) -> TrainedSvm:
    """Train a binary C-SVM from the symmetric training distance matrix.

    The Gram matrix exp(-gamma * d^2) and the median-heuristic width are
    both derived from dist, so training is the same in every space.
    Labels other than n values of 0 and 1, both present, raise TrainingError.
    """
    labels = _class_labels(labels, np.size(labels))
    n = len(labels)
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise TrainingError("training set must contain both classes")
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (n, n):
        raise TrainingError("pairwise distance matrix has the wrong shape")
    gamma = cfg.kernel_gamma if cfg.kernel_gamma != MEDIAN_HEURISTIC \
        else median_heuristic_gamma(dist)
    gram = np.exp(-gamma * dist * dist)
    y = np.where(labels == 1, 1.0, -1.0)
    alphas, bias = smo_solve(gram, y, cfg.c, cfg.kkt_tolerance, cfg.max_passes)
    keep = alphas > _SUPPORT_EPS
    return TrainedSvm(support=np.flatnonzero(keep), alphas=alphas[keep],
                      targets=y[keep], bias=float(bias), gamma=float(gamma))


def svm_decision(model: TrainedSvm, distances):
    """Decision values given distances to the support items, in the order
    of model.support: a float for one row of distances, an array with one
    value per row for an (m, n) array.  Each row sums in the same order
    in both forms, so the two agree bit for bit."""
    dist = _distance_rows(distances)
    if dist.shape[-1:] != model.alphas.shape:
        raise OdseError("expected one distance per support item")
    # one temporary the size of dist, worked in place
    kvals = -model.gamma * dist
    kvals *= dist
    np.exp(kvals, out=kvals)
    kvals *= model.alphas * model.targets
    values = kvals.sum(axis=-1) + model.bias
    return float(values) if dist.ndim == 1 else values


def svm_predict(model: TrainedSvm, distances):
    """Label 1 where the decision value is positive, else 0: an int for
    one row of distances, an int64 array for an (m, n) array."""
    values = svm_decision(model, distances)
    if isinstance(values, float):
        return 1 if values > 0.0 else 0
    return (values > 0.0).astype(np.int64)
