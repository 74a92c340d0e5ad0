"""Non-parametric Renyi entropy estimators.

Two estimators are provided: a Parzen-window plug-in estimator of the
quadratic (order-2) Renyi entropy, and a power-weighted minimum spanning
tree estimator for orders in (0, 1).  Both are used to score how
informative a prototype's dissimilarity column is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .embedding import euclidean_distances
from .errors import OdseError

QRE = "QRE"
MST = "MST"


@dataclass(frozen=True)
class EstimatorConfig:
    kind: str = QRE
    sigma: float = 0.5
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in (QRE, MST):
            raise OdseError(f"unknown estimator kind {self.kind!r}")
        if not self.sigma > 0.0:
            raise OdseError("sigma must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise OdseError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class EntropyValue:
    """Raw estimate in nats plus a clamped [0,1] informativeness score."""

    raw: float
    normalized: float


def _as_matrix(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise OdseError("samples must have shape (N,) or (N, d)")
    return x


def qre_entropy(samples, sigma: float) -> float:
    """Quadratic Renyi entropy via a Parzen window.

    Returns -ln of the mean pairwise Gaussian kernel value, the kernel
    width being sigma times sqrt(2).
    """
    x = _as_matrix(samples)
    n, d = x.shape
    if n < 1:
        raise OdseError("QRE estimator needs at least one sample")
    if not sigma > 0.0:
        raise OdseError("sigma must be positive")
    sq = euclidean_distances(x, x, squared=True)
    # kernel G_{sigma*sqrt(2)}: normalizer (4*pi*sigma^2)^(-d/2)
    kernel_sum = float(np.sum(np.exp(-sq / (4.0 * sigma * sigma))))
    mean = kernel_sum / (n * n)
    return 0.5 * d * math.log(4.0 * math.pi * sigma * sigma) - math.log(mean)


def _prim_mst_lengths(dist: np.ndarray) -> np.ndarray:
    """Edge lengths of the minimum spanning tree of a dense distance
    matrix, grown greedily from vertex 0.  np.argmin resolves ties toward
    the lowest vertex index, which makes the tree deterministic."""
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    best[0] = np.inf
    lengths = np.empty(n - 1, dtype=np.float64)
    for step in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        lengths[step] = best[j]
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return lengths


def _power_sum(lengths: np.ndarray, gamma: float) -> float:
    # summed in sorted order: all minimum spanning trees share one
    # edge-weight multiset, so the value is independent of how the tree
    # was grown
    return float(np.sum(np.sort(lengths**gamma)))


def mst_entropy(samples, cfg: EstimatorConfig) -> float:
    """Renyi entropy of order alpha from the power-weighted spanning tree.

    With gamma = d * (1 - alpha):
        (1 / (1 - alpha)) * ln(L_gamma / N**alpha)
    The estimator's bias constant is left out: it shifts every estimate
    equally, and the thresholds comparing entropies are learned.
    Returns -inf when every sample coincides (zero tree length).  When
    L_gamma exceeds the float range, ln L_gamma is taken in log space.
    """
    x = _as_matrix(samples)
    n, d = x.shape
    if n < 2:
        raise OdseError("MST estimator needs at least two samples")
    gamma = d * (1.0 - cfg.alpha)
    lengths = _prim_mst_lengths(euclidean_distances(x, x))
    with np.errstate(over="ignore"):
        total = _power_sum(lengths, gamma)
    if total == 0.0:
        return float("-inf")
    if math.isinf(total):
        # log-sum-exp over gamma * ln(length); zero edges add nothing
        with np.errstate(divide="ignore"):
            logs = gamma * np.log(lengths)
        top = float(logs.max())
        log_total = top + math.log(float(np.sum(np.exp(logs - top))))
        return (log_total - cfg.alpha * math.log(n)) / (1.0 - cfg.alpha)
    return math.log(total / n**cfg.alpha) / (1.0 - cfg.alpha)


def normalized_column_entropy(column, cfg: EstimatorConfig) -> EntropyValue:
    """Informativeness score of a 1-D dissimilarity column: the
    one-dimensional case of `normalized_vector_entropy`."""
    return _normalized_entropy(np.reshape(column, (-1, 1)), cfg)


def normalized_vector_entropy(samples, cfg: EstimatorConfig) -> EntropyValue:
    """Informativeness score of a sample set of shape (N,) or (N, d).

    The raw estimate is divided by a reference value, the entropy of the
    uniform density over the bounding box of the non-degenerate
    dimensions.  When that reference is not positive (box volume <= 1)
    the ratio is formed the other way around so the score stays in [0,1]
    and still grows with spread.  A set whose samples all coincide
    scores 0 without invoking the estimator.
    """
    return _normalized_entropy(samples, cfg)


# the one rule behind both public scores; the column score does not call
# normalized_vector_entropy itself, so that timing or counting either
# public name sees only its own callers
def _normalized_entropy(samples, cfg: EstimatorConfig) -> EntropyValue:
    x = _as_matrix(samples)
    if x.shape[0] < 2:
        raise OdseError("entropy score needs at least two samples")
    ranges = x.max(axis=0) - x.min(axis=0)
    positive = ranges[ranges > 0.0]
    if positive.size == 0:
        return EntropyValue(raw=float("-inf"), normalized=0.0)
    ref = float(np.sum(np.log(positive)))
    raw = qre_entropy(x, cfg.sigma) if cfg.kind == QRE else mst_entropy(x, cfg)
    if ref > 0.0:
        h = raw / ref
    elif raw >= 0.0:
        h = 1.0
    else:
        h = ref / raw
    return EntropyValue(raw=raw, normalized=min(max(h, 0.0), 1.0))
