"""Shared fixtures and data factories.

The toy similarity matrix below is designed so every derived quantity is
a dyadic rational: substitution costs are 1, 0.75, 0.5 or 0.25 and the
gap cost is 0.5.  Sums of such values are exact in binary floating point
whatever the summation order, which lets tests compare the vectorized
dynamic program against brute-force oracles with strict equality.
"""

import csv
import io

import numpy as np
import pytest

from odse.alignment import build_cost_model, dissimilarity_table, parse_similarity_matrix
from odse.datasets import LabeledSequence
from odse.embedding import DissimilarityMatrix, euclidean_distances
from odse.entropy import (
    EntropyValue,
    _as_matrix,
    _checked_table,
    _power_sum,
    _prim_mst_lengths,
    _qre_value,
    _score,
)
from odse.errors import OdseError
from odse.sequences import Sequence

TOY_MATRIX_TEXT = """\
# four-letter toy similarity table; max cost numerator 4
   A  R  N  D
A  4  0  1  2
R  0  4  3  3
N  1  3  4  3
D  2  3  3  4
"""

RESIDUES = "ARNDCQEGHILKMFPSTWYV"


@pytest.fixture(scope="session")
def toy_sim():
    return parse_similarity_matrix(TOY_MATRIX_TEXT)


@pytest.fixture(scope="session")
def toy_cm(toy_sim):
    return build_cost_model(toy_sim)


def random_sequences(rng, count, lo=3, hi=8, alphabet="ARND", prefix="s"):
    """Random sequences with ids prefix0, prefix1, ..."""
    letters = list(alphabet)
    out = []
    for i in range(count):
        length = int(rng.integers(lo, hi + 1))
        out.append(
            Sequence(f"{prefix}{i}", "".join(rng.choice(letters, size=length)))
        )
    return out


def synthetic_proteins(
    rng, n_insoluble=130, n_soluble=110, n_middle=20, lo=5, hi=9, alphabet="ARND"
):
    """LabeledSequence list with solubilities drawn inside each band."""
    letters = list(alphabet)
    bands = (
        (n_insoluble, 0.0, 0.3),
        (n_soluble, 0.7, 1.0),
        (n_middle, 0.35, 0.65),
    )
    data = []
    i = 0
    for count, lo_s, hi_s in bands:
        for _ in range(count):
            length = int(rng.integers(lo, hi + 1))
            seq = Sequence(f"p{i:04d}", "".join(rng.choice(letters, size=length)))
            data.append(LabeledSequence(seq, float(rng.uniform(lo_s, hi_s))))
            i += 1
    return data


def motif_dataset(rng, n_per_class, length=30, max_edits=3, alphabet=RESIDUES):
    """Two classes built from two random templates, each sample carrying
    at most max_edits random substitutions.  Returns (Sequence, label)
    pairs, class 0 first."""
    letters = list(alphabet)
    templates = [
        "".join(rng.choice(letters, size=length)) for _ in range(2)
    ]
    items = []
    for label, template in enumerate(templates):
        for j in range(n_per_class):
            chars = list(template)
            n_edits = int(rng.integers(0, max_edits + 1))
            if n_edits:
                for pos in rng.choice(length, size=n_edits, replace=False):
                    chars[int(pos)] = letters[int(rng.integers(len(letters)))]
            items.append((Sequence(f"c{label}_{j}", "".join(chars)), label))
    return items


def pair_dissimilarity(s: Sequence, t: Sequence, cm) -> float:
    """The alignment dissimilarity of s to t, the one cell of their
    table; d(s, t) and d(t, s) can differ by rounding (about 1e-13)."""
    return float(dissimilarity_table([s], [t], cm)[0, 0])


def sub_cost(cm, a: str, b: str) -> float:
    """The substitution cost of symbol a for symbol b under cm."""
    return float(cm.sub_cost[cm.alphabet.index(a), cm.alphabet.index(b)])


def alignment_oracle(s: Sequence, t: Sequence, cm) -> float:
    """Minimum alignment cost by explicit enumeration of every monotone
    edit script.  Exponential; only for short sequences."""
    best = [float("inf")]

    def walk(i, j, acc):
        if i == len(s) and j == len(t):
            if acc < best[0]:
                best[0] = acc
            return
        if i < len(s) and j < len(t):
            walk(i + 1, j + 1, acc + sub_cost(cm, s.symbols[i], t.symbols[j]))
        if i < len(s):
            walk(i + 1, j, acc + cm.gap_cost)
        if j < len(t):
            walk(i, j + 1, acc + cm.gap_cost)

    walk(0, 0, 0.0)
    return best[0]


def mst_power_sum(points: np.ndarray, gamma: float) -> float:
    """Power-weighted length of the spanning tree `mst_entropy` grows on
    points: its Prim step and its sorted power sum, on the Euclidean
    distance table it builds."""
    return _power_sum(_prim_mst_lengths(euclidean_distances(points, points)), gamma)


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
    diff = x[:, None, :] - x[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    kernel_sum = float(np.sum(np.exp(-sq / (4.0 * sigma * sigma))))
    return _qre_value(kernel_sum, n, d, sigma)


def qre_vector_score(samples, sigma: float) -> EntropyValue:
    """The QRE score of a sample set of shape (N,) or (N, d): its
    Parzen estimate of width sigma against the log-volume of the
    bounding box of its non-degenerate dimensions, by the library's one
    score rule.  The reference arithmetic of `column_scores` under QRE,
    which scores each column bit for bit as this scores it alone."""
    x = _checked_table(samples)
    ranges = x.max(axis=0) - x.min(axis=0)
    positive = ranges[ranges > 0.0]
    if positive.size == 0:
        return EntropyValue(raw=float("-inf"), normalized=0.0)
    ref = float(np.sum(np.log(positive)))
    return _score(qre_entropy(x, sigma), ref)


def spanning_tree_oracle(points: np.ndarray, gamma: float) -> float:
    """Minimum power-weighted spanning-tree total by enumerating every
    labeled tree through its Pruefer sequence (n <= 6)."""
    n = points.shape[0]
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def tree_edges(pruefer):
        degree = [1] * n
        for v in pruefer:
            degree[v] += 1
        edges = []
        seq = list(pruefer)
        for v in seq:
            for leaf in range(n):
                if degree[leaf] == 1:
                    edges.append((leaf, v))
                    degree[leaf] -= 1
                    degree[v] -= 1
                    break
        last = [v for v in range(n) if degree[v] == 1]
        edges.append((last[0], last[1]))
        return edges

    # powers go through the array ufunc, not scalar **: the two pow code
    # paths can disagree in the last ulp, which would break exact
    # comparisons that are really about tree selection
    if n == 2:
        return float(np.sum(np.array([dist[0, 1]]) ** gamma))
    best = float("inf")
    for code in np.ndindex(*([n] * (n - 2))):
        edges = np.array([dist[a, b] for a, b in tree_edges(code)])
        total = float(np.sum(np.sort(edges**gamma)))
        if total < best:
            best = total
    return best


def parse_matrix_csv(text):
    """The DissimilarityMatrix of a `matrix_to_csv` dump, read back with
    csv and float."""
    header, *rows = csv.reader(io.StringIO(text))
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    return DissimilarityMatrix(
        values.reshape(len(rows), len(header) - 1),
        tuple(row[0] for row in rows),
        tuple(header[1:]),
    )
