"""Substitution matrices, alignment cost models and the weighted edit distance.

The dissimilarity between two sequences is the global-alignment cost under
a per-pair substitution cost table and a uniform per-symbol gap cost.  Cost
tables are derived from an integer similarity matrix in the NCBI plain-text
layout (PAM/BLOSUM style).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import _dp
from .errors import CostModelError, MatrixFormatError, SymbolError, check_threads
from .sequences import Sequence, numbered_lines, read_text

RAW = "raw"
BY_MAX_LENGTH = "by-max-length"
NORMALIZATIONS = (RAW, BY_MAX_LENGTH)
# largest gap_weight, the gap cost in units of the mean off-diagonal cost
GAP_WEIGHT_MAX = 4.0
# largest magnitude of a similarity-matrix entry, which is stored as int64
_SCORE_MAX = int(np.iinfo(np.int64).max)
# most queries one call of the compiled alignment kernel takes, which
# bounds the by-max-length temporaries of one chunk of a table
CHUNK_ROWS = 256


def check_gap_weight(gap_weight: float) -> None:
    """The one range rule of every gap weight: (0, GAP_WEIGHT_MAX]."""
    if not 0.0 < gap_weight <= GAP_WEIGHT_MAX:
        raise CostModelError(f"gap_weight must be in (0, {GAP_WEIGHT_MAX:g}], got {gap_weight}")


def check_normalization(normalization: str) -> None:
    """The one rule of every normalization name: one of NORMALIZATIONS."""
    if normalization not in NORMALIZATIONS:
        raise CostModelError(f"unknown normalization {normalization!r}; choose from {NORMALIZATIONS}")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square, symmetric integer similarity table over a symbol alphabet."""

    alphabet: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        n = len(self.alphabet)
        if n == 0:
            raise MatrixFormatError("similarity matrix has an empty alphabet")
        if self.scores.shape != (n, n):
            raise MatrixFormatError(
                f"score table is {self.scores.shape}, expected {(n, n)}"
            )
        if not np.array_equal(self.scores, self.scores.T):
            i, j = np.argwhere(self.scores != self.scores.T)[0]
            raise MatrixFormatError(
                f"asymmetric entries: S({self.alphabet[i]},{self.alphabet[j]})"
                f"={self.scores[i, j]} but S({self.alphabet[j]},{self.alphabet[i]})"
                f"={self.scores[j, i]}"
            )


def parse_similarity_matrix(text: str) -> SimilarityMatrix:
    """Parse an NCBI-layout matrix file: '#' comments, a header row of
    symbols, then one integer row per symbol."""
    alphabet: list[str] = []
    rows: dict[str, tuple[int, list[int]]] = {}

    for lineno, raw in numbered_lines(text):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not alphabet:
            for tok in tokens:
                if len(tok) != 1:
                    raise MatrixFormatError(
                        f"header symbol {tok!r} is not a single character",
                        line=lineno,
                    )
                if tok in alphabet:
                    raise MatrixFormatError(
                        f"duplicate header symbol {tok!r}", line=lineno
                    )
                alphabet.append(tok)
            continue
        sym = tokens[0]
        if sym not in alphabet:
            raise MatrixFormatError(f"unknown row symbol {sym!r}", line=lineno)
        if sym in rows:
            raise MatrixFormatError(f"duplicate row for symbol {sym!r}", line=lineno)
        entries = tokens[1:]
        if len(entries) != len(alphabet):
            raise MatrixFormatError(
                f"row {sym!r} has {len(entries)} entries, expected {len(alphabet)}",
                line=lineno,
            )
        try:
            values = [int(tok) for tok in entries]
        except ValueError as exc:
            raise MatrixFormatError(str(exc), line=lineno) from None
        too_big = [tok for tok, v in zip(entries, values) if abs(v) > _SCORE_MAX]
        if too_big:
            raise MatrixFormatError(
                f"entry {too_big[0]} does not fit in 64 bits", line=lineno
            )
        rows[sym] = (lineno, values)

    if not alphabet:
        raise MatrixFormatError("no header row found")
    missing = [a for a in alphabet if a not in rows]
    if missing:
        raise MatrixFormatError(
            f"table is not square: no rows for symbols {missing}"
        )
    scores = np.array([rows[a][1] for a in alphabet], dtype=np.int64)
    return SimilarityMatrix(tuple(alphabet), scores)


def load_similarity_matrix(path) -> SimilarityMatrix:
    return parse_similarity_matrix(read_text(path))


def pam120_path() -> Path:
    """Path of the bundled PAM120 matrix file (NCBI distribution layout)."""
    return Path(str(resources.files(__package__) / "data" / "PAM120"))


@dataclass(frozen=True)
class AlignmentCostModel:
    """Substitution costs in [0,1] with zero diagonal, plus a gap cost.

    `normalization` selects raw alignment cost or division by the longer
    sequence length.
    """

    alphabet: tuple[str, ...]
    sub_cost: np.ndarray
    gap_cost: float
    normalization: str = RAW

    def __post_init__(self):
        n = len(self.alphabet)
        if n == 0:
            raise CostModelError("cost model has an empty alphabet")
        # a repeated symbol would silently take the costs of its last place
        for i, a in enumerate(self.alphabet):
            if not (isinstance(a, str) and len(a) == 1) or a in self.alphabet[:i]:
                raise CostModelError(f"alphabet symbols must be distinct characters, got {a!r}")
        c = self.sub_cost
        if c.shape != (n, n):
            raise CostModelError(f"cost table is {c.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(c)):
            raise CostModelError("cost table has non-finite entries")
        if c.min() < 0.0 or c.max() > 1.0:
            raise CostModelError("cost values must lie in [0, 1]")
        if np.any(c.diagonal() != 0.0):
            raise CostModelError("diagonal costs must be exactly 0")
        if not np.array_equal(c, c.T):
            raise CostModelError("cost table must be symmetric")
        # build_cost_model gives at most GAP_WEIGHT_MAX (the off-diagonal
        # mean is at most 1); a larger gap cost, say from an edited model
        # archive, can overflow the DP to inf
        if not 0.0 <= self.gap_cost <= GAP_WEIGHT_MAX:
            raise CostModelError(
                f"gap cost must be in [0, {GAP_WEIGHT_MAX:g}], got {self.gap_cost}"
            )
        check_normalization(self.normalization)
        object.__setattr__(
            self, "_index", {a: i for i, a in enumerate(self.alphabet)}
        )

    def encode(self, seq: Sequence) -> np.ndarray:
        """Map symbols to alphabet indices, rejecting foreign symbols."""
        idx = self._index
        try:
            return np.array([idx[ch] for ch in seq.symbols], dtype=np.intp)
        except KeyError:
            for pos, ch in enumerate(seq.symbols):
                if ch not in idx:
                    raise SymbolError(seq.id, pos, ch) from None
            raise


def build_cost_model(
    m: SimilarityMatrix,
    gap_weight: float = 1.0,
    normalization: str = RAW,
) -> AlignmentCostModel:
    """Turn a similarity matrix into substitution costs.

    c(a,b) = [ (S(a,a)+S(b,b))/2 - S(a,b) ] / Z with Z the maximum of the
    numerator over all pairs, so costs span [0,1] with zero diagonal.  The
    gap cost is gap_weight times the mean off-diagonal cost.
    """
    check_gap_weight(gap_weight)
    s = m.scores.astype(np.float64)
    diag = np.diagonal(s)
    numer = (diag[:, None] + diag[None, :]) / 2.0 - s
    if numer.min() < 0.0:
        bad = np.argwhere(numer < 0.0)
        pairs = ", ".join(
            f"({m.alphabet[i]},{m.alphabet[j]})" for i, j in bad[:8]
        )
        raise CostModelError(
            f"similarity matrix is not diagonally dominant for pairs {pairs}"
        )
    z = numer.max()
    if z == 0.0:
        raise CostModelError("constant similarity matrix: all costs are zero")
    cost = numer / z
    np.fill_diagonal(cost, 0.0)
    n = len(m.alphabet)
    off_mean = cost.sum() / (n * n - n)
    return AlignmentCostModel(
        alphabet=m.alphabet,
        sub_cost=cost,
        gap_cost=float(gap_weight * off_mean),
        normalization=normalization,
    )


def _checked_batch(codes, proto_mat, proto_lens, sub_cost):
    """The arrays both DP paths read, contiguous, after the checks both run
    first: a symbol code outside the cost table raises IndexError, and a
    target length outside the padded width or a cost table that does not
    fit raises ValueError."""
    codes = np.ascontiguousarray(codes, dtype=np.intp)
    proto_mat = np.ascontiguousarray(proto_mat, dtype=np.intp)
    proto_lens = np.ascontiguousarray(proto_lens, dtype=np.intp)
    sub_cost = np.ascontiguousarray(sub_cost, dtype=np.float64)
    n_targets, width = proto_mat.shape
    n_alpha = sub_cost.shape[0]
    if sub_cost.shape != (n_alpha, n_alpha) or proto_lens.shape != (n_targets,):
        raise ValueError("cost table or target lengths do not match the batch")
    if proto_lens.size and (proto_lens.min() < 0 or proto_lens.max() > width):
        raise ValueError("target lengths must lie within the padded width")
    for c in (codes, proto_mat):
        if c.size and (c.min() < 0 or c.max() >= n_alpha):
            raise IndexError("symbol code outside the cost table")
    return codes, proto_mat, proto_lens, sub_cost


def alignment_cost_rows(
    query: np.ndarray,
    proto_mat: np.ndarray,
    proto_lens: np.ndarray,
    sub_cost: np.ndarray,
    gap: float,
) -> np.ndarray:
    """Global-alignment costs of one encoded query against a batch of
    encoded, padded targets: the one-query case of the `cost_table` call
    behind `dissimilarity_table`, after the same checks (IndexError for a
    symbol code outside the cost table, ValueError for a target length
    outside the padded width or a cost table that does not fit).  Both
    of `_dp`'s kernel sets agree bit for bit whatever the batch's order
    or size.
    """
    query, proto_mat, proto_lens, sub_cost = _checked_batch(query, proto_mat, proto_lens, sub_cost)
    out = np.empty((1, len(proto_lens)), dtype=np.float64)
    starts = np.array([0, len(query)], dtype=np.intp)
    cols = np.arange(len(proto_lens), dtype=np.intp)
    _dp.load().cost_table(query, starts, proto_mat, proto_lens, sub_cost, gap, cols, out)
    return out[0]


def dissimilarity_table(
    queries, targets, cm: AlignmentCostModel, threads: int = 1
) -> np.ndarray:
    """Alignment dissimilarities of each query (rows) to each target
    (columns), normalized as `cm` says.

    Every alignment table is built here.  The targets are encoded,
    ordered by length (stable) so the kernel's blocks of lanes are
    nearly full, and zero-padded to a common width once; the queries are
    encoded once into one flat code array with offsets, and the whole
    batch is checked once.  The queries are then cut into contiguous
    chunks of nearly equal size and at most CHUNK_ROWS queries, a
    multiple of `threads` of them (or one per query, if there are
    fewer), and each chunk is one `cost_table` kernel call, which writes its
    rows straight into the caller's column order.  Each cost depends on
    one query and one target alone, so neither the order, the chunks nor
    the number of worker threads changes a result.  threads must be an
    integer of at least 1.
    """
    check_threads(threads)
    codes = [cm.encode(t) for t in targets]
    lens = np.array([len(c) for c in codes], dtype=np.intp)
    order = np.argsort(lens, kind="stable")
    mat = np.zeros((len(codes), int(lens.max(initial=0))), dtype=np.intp)
    for row, k in enumerate(order):
        mat[row, : lens[k]] = codes[k]
    qlens = np.array([len(q.symbols) for q in queries], dtype=np.intp)
    starts = np.zeros(len(qlens) + 1, dtype=np.intp)
    np.cumsum(qlens, out=starts[1:])
    flat = np.empty(starts[-1], dtype=np.intp)
    for i, q in enumerate(queries):
        flat[starts[i]:starts[i + 1]] = cm.encode(q)
    flat, mat, sorted_lens, sub = _checked_batch(flat, mat, lens[order], cm.sub_cost)
    out = np.empty((len(qlens), len(codes)), dtype=np.float64)
    cost_table = _dp.load().cost_table

    def fill(lo, hi):
        cost_table(flat, starts[lo:hi + 1], mat, sorted_lens, sub, cm.gap_cost, order, out[lo:hi])
        if cm.normalization == BY_MAX_LENGTH:
            denom = np.maximum(qlens[lo:hi, None], lens).astype(np.float64)
            with np.errstate(invalid="ignore"):
                out[lo:hi] = np.where(denom > 0.0, out[lo:hi] / denom, 0.0)

    # a multiple of `threads` chunks of nearly equal size, so the workers
    # get equal shares
    n = len(qlens)
    n_chunks = max(1, min(n, threads * -(-n // (threads * CHUNK_ROWS))))
    cuts = [n * c // n_chunks for c in range(n_chunks + 1)]
    chunks = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda chunk: fill(*chunk), chunks))
    else:
        for chunk in chunks:
            fill(*chunk)
    return out


def dissimilarities_to_targets(
    s: Sequence, targets, cm: AlignmentCostModel
) -> np.ndarray:
    """Vector of alignment dissimilarities from `s` to each target."""
    return dissimilarity_table([s], targets, cm)[0]
