"""Non-parametric Renyi entropy estimators.

Two estimators are provided: a Parzen-window plug-in estimator of the
quadratic (order-2) Renyi entropy, and a power-weighted minimum spanning
tree estimator for orders in (0, 1).  Either scores how informative a
prototype's dissimilarity column is; a vector set is scored by MST.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dp
from .embedding import euclidean_distances
from .errors import OdseError

QRE = "QRE"
MST = "MST"


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise OdseError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class EstimatorConfig:
    """The column estimator and the order of every MST estimate; the
    Parzen width is a genome's gene, passed to `column_scores`."""

    kind: str = QRE
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in (QRE, MST):
            raise OdseError(f"unknown estimator kind {self.kind!r}")
        _check_alpha(self.alpha)


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


def _qre_value(kernel_sum: float, n: int, d: int, sigma: float) -> float:
    # kernel G_{sigma*sqrt(2)}: normalizer (4*pi*sigma^2)^(-d/2)
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


def mst_entropy(samples, alpha: float) -> float:
    """Renyi entropy of order alpha from the power-weighted spanning tree.

    With gamma = d * (1 - alpha):
        (1 / (1 - alpha)) * ln(L_gamma / N**alpha)
    The estimator's bias constant is left out: it shifts every estimate
    equally, and the thresholds comparing entropies are learned.
    Returns -inf when every sample coincides (zero tree length).  When
    L_gamma exceeds the float range, ln L_gamma is taken in log space.
    """
    _check_alpha(alpha)
    x = _as_matrix(samples)
    n, d = x.shape
    if n < 2:
        raise OdseError("MST estimator needs at least two samples")
    return _mst_value(_prim_mst_lengths(euclidean_distances(x, x)), n, d, alpha)


def _mst_value(lengths: np.ndarray, n: int, d: int, alpha: float) -> float:
    gamma = d * (1.0 - alpha)
    with np.errstate(over="ignore"):
        total = _power_sum(lengths, gamma)
    if total == 0.0 and not lengths.any():
        return float("-inf")
    if total == 0.0 or math.isinf(total):
        # an under- or overflowing sum: log-sum-exp over gamma * ln(length),
        # summed in the order the lengths come in; zero edges add nothing
        with np.errstate(divide="ignore"):
            logs = gamma * np.log(lengths)
        top = float(logs.max())
        log_total = top + math.log(float(np.sum(np.exp(logs - top))))
        return (log_total - alpha * math.log(n)) / (1.0 - alpha)
    return math.log(total / n**alpha) / (1.0 - alpha)


def _checked_table(samples) -> np.ndarray:
    x = _as_matrix(samples)
    if x.shape[0] < 2:
        raise OdseError("entropy score needs at least two samples")
    if not np.isfinite(x).all():
        raise OdseError("entropy score needs finite samples")
    return x


def _score(raw: float, ref: float) -> EntropyValue:
    """The estimate `raw` against the reference `ref`, clamped to [0, 1]."""
    if ref > 0.0:
        h = raw / ref
    elif raw >= 0.0:
        h = 1.0
    else:
        h = ref / raw
    return EntropyValue(raw=raw, normalized=min(max(h, 0.0), 1.0))


def normalized_vector_entropy(samples, alpha: float) -> EntropyValue:
    """Informativeness score of a sample set of shape (N,) or (N, d),
    from its MST entropy of order alpha.

    The raw estimate is divided by a reference value, the entropy of the
    uniform density over the bounding box of the non-degenerate
    dimensions.  When that reference is not positive (box volume <= 1)
    the ratio is formed the other way around so the score stays in [0,1]
    and still grows with spread.  A set whose samples all coincide
    scores 0 without invoking the estimator.  Non-finite samples are
    refused.
    """
    _check_alpha(alpha)
    x = _checked_table(samples)
    ranges = x.max(axis=0) - x.min(axis=0)
    positive = ranges[ranges > 0.0]
    if positive.size == 0:
        return EntropyValue(raw=float("-inf"), normalized=0.0)
    ref = float(np.sum(np.log(positive)))
    return _score(mst_entropy(x, alpha), ref)


def column_scores(table, cfg: EstimatorConfig, sigma=None) -> list[EntropyValue]:
    """Informativeness score of each column of an (N, M) table under
    cfg.kind.  sigma, the Parzen width, must be finite and positive
    under QRE; MST does not read it, and entry j then equals
    normalized_vector_entropy(table[:, j], cfg.alpha) bit for bit.

    A column is one-dimensional, and so is its work.  QRE: each
    column's Parzen terms are computed in one N x N buffer reused for
    every column, their exponents -(a - b)**2 / (4 sigma**2) by the
    `parzen_exponents` of `_dp.load()`, compiled or numpy.  MST: the
    sorted column's adjacent gaps form a minimum spanning tree, since
    rounded distances are monotone along a sorted axis, and every
    minimum spanning tree has the edge lengths Prim's finds.
    """
    if cfg.kind == QRE and (sigma is None or not (math.isfinite(sigma) and sigma > 0.0)):
        raise OdseError(f"sigma must be finite and positive, got {sigma}")
    # C order: the kernel reads column j from x[0, j] at a stride of m
    x = np.ascontiguousarray(_checked_table(table))
    n, m = x.shape
    ranges = x.max(axis=0) - x.min(axis=0)
    if cfg.kind == QRE:
        terms = np.empty((n, n))
        # (-s) / c == s / (-c) exactly
        scale = -(4.0 * sigma * sigma)
        parzen_exponents = _dp.load().parzen_exponents
    scores = []
    for j in range(m):
        if not ranges[j] > 0.0:
            scores.append(EntropyValue(raw=float("-inf"), normalized=0.0))
            continue
        c = x[:, j]
        if cfg.kind == QRE:
            parzen_exponents(c, scale, terms)
            np.exp(terms, out=terms)
            raw = _qre_value(float(terms.sum()), n, 1, sigma)
        else:
            gaps = np.diff(np.sort(c))
            raw = _mst_value(np.sqrt(gaps * gaps), n, 1, cfg.alpha)
        # the log of a one-element array, as for a one-column vector
        scores.append(_score(raw, float(np.sum(np.log(ranges[j:j + 1])))))
    return scores


def normalized_column_entropy(column, cfg: EstimatorConfig, sigma=None) -> EntropyValue:
    """Informativeness score of a 1-D dissimilarity column: the
    one-column case of `column_scores`."""
    return column_scores(np.reshape(column, (-1, 1)), cfg, sigma)[0]
